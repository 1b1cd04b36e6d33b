(** Discrete-event simulation kernel with SystemC-like semantics.

    The kernel reproduces the OSCI SystemC scheduler that the paper's SCTC
    runs on: an evaluation phase running all runnable processes, an update
    phase committing signal values, delta-cycle notification, and timed
    advance. Processes are cooperative threads implemented with OCaml 5
    effect handlers; [wait_event]/[wait_for] suspend the calling process
    exactly like SystemC's [wait]. *)

type t
(** A simulation kernel instance. Kernels are independent; a process spawned
    on one kernel must only wait on events of the same kernel. *)

type event
(** A notification channel ([sc_event] analog). *)

type process
(** Handle of a spawned process. *)

(** Why a suspended process was woken up. *)
type wake_reason =
  | Woken_by of event  (** one of the awaited events was notified *)
  | Timeout  (** the [timeout] of {!wait_any} elapsed first *)

exception Deadlock of string
(** Raised by {!run} when [~expect_activity:true] and the simulation ends
    with processes still suspended and no pending notification. *)

val create : unit -> t

val now : t -> int
(** Current simulation time (abstract time units). *)

val delta_count : t -> int
(** Number of delta cycles executed so far (diagnostic / bench metric). *)

val event : t -> string -> event

val event_name : event -> string

val spawn : t -> name:string -> (unit -> unit) -> process
(** [spawn kernel ~name body] registers a thread process. It starts running
    at the beginning of the next {!run} evaluation phase. [body] may call the
    wait functions below; when [body] returns, the process terminates. *)

(** {2 Waiting — must be called from inside a process body} *)

val wait_event : event -> unit
(** Suspend until the event is notified. *)

val wait_any : ?timeout:int -> event list -> wake_reason
(** Suspend until one of the events fires, or until [timeout] time units
    elapse (when given). A wait armed on several events wakes once, by the
    first notified. The event list must not be empty, and [timeout] must
    not be negative. *)

val wait_for : t -> int -> unit
(** Suspend for [n > 0] time units; [wait_for k 0] waits one delta cycle. *)

(** {2 Notification} *)

val notify : event -> unit
(** Delta notification: waiters wake in the next delta cycle. *)

val notify_immediate : event -> unit
(** Immediate notification: waiters join the current evaluation phase. *)

val notify_in : event -> int -> unit
(** Timed notification after [n] time units; [n <= 0] behaves like
    {!notify}. *)

(** {2 Update phase} *)

val schedule_update : t -> (unit -> unit) -> unit
(** Register an action for the update phase of the current delta cycle
    (used by {!Signal} to commit values). *)

(** {2 Running} *)

val stop : t -> unit
(** Request the simulation to stop at the end of the current delta cycle.
    Callable from inside a process. *)

val run : ?max_time:int -> ?max_deltas:int -> ?expect_activity:bool -> t -> unit
(** Run until no activity remains, [stop] is called, simulation time would
    exceed [max_time], or [max_deltas] delta cycles have executed. [run] may
    be called again afterwards to resume. *)

val stopped : t -> bool
