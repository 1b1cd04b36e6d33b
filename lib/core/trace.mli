(** Structured trace/event bus for verification sessions.

    Everything the checker stack observes — triggers, proposition samples,
    verdict changes, the ESW-monitor handshake, test-case boundaries,
    watchdogs and software crashes — is published as a typed event on a
    bus. Sinks subscribe to the bus; a campaign job's bus buffers its
    events in memory ({!memory_sink}) and the campaign renders them as
    JSONL. The {!null} bus is a shared disabled instance; emitting into
    it costs one branch, so hot paths stay fast when tracing is off
    (guard allocations with {!enabled}).

    The bus also keeps cheap aggregate counters (triggers, samples,
    triggers/second) that are maintained even when no sink is attached. *)

(** What happened. Time-unit stamping is added by the bus. *)
type kind =
  | Trigger  (** the checker was triggered (one {!Checker.step}) *)
  | Sample of { prop : string; value : bool }
      (** a proposition was sampled during a monitor step *)
  | Verdict_change of { property : string; verdict : Verdict.t }
      (** a property's verdict was first reported, or changed *)
  | Handshake_armed of { source : string }
      (** the trigger process armed the monitors (for the ESW monitor:
          the initialization-flag handshake completed) *)
  | Test_case_begin of { index : int; op : string }
  | Test_case_end of { index : int; result : string option }
      (** [result = None]: the operation never answered (watchdog) *)
  | Watchdog_fired of { index : int; op : string }
  | Software_crashed of { reason : string }

type event = {
  seq : int;  (** emission order on this bus, starting at 0 *)
  time_unit : int;  (** backend time (cycles / statements) at emission *)
  kind : kind;
}

(** A subscriber. [close] is called once by {!close}. *)
type sink = { on_event : event -> unit; on_close : unit -> unit }

type t

val null : t
(** The shared disabled bus: {!emit} is a no-op, {!enabled} is [false],
    counters stay zero. {!attach} on it raises [Invalid_argument]. *)

val create : unit -> t

val enabled : t -> bool
(** [false] exactly for {!null}. Hot paths should guard event
    construction: [if Trace.enabled t then Trace.emit t (...)]. *)

val attach : t -> sink -> unit
(** @raise Invalid_argument on the {!null} bus. *)

val set_time_source : t -> (unit -> int) -> unit
(** Install the clock used to stamp [time_unit] (a verification session
    installs its backend's cycle/statement counter; default constant 0). *)

val emit : t -> kind -> unit

val close : t -> unit
(** Close every attached sink. *)

(** {2 Aggregate counters} *)

val events : t -> int
val triggers : t -> int
val samples : t -> int

val triggers_per_sec : t -> float
(** Triggers divided by wall-clock seconds since bus creation. *)

(** {2 Sinks} *)

val memory_sink : unit -> sink * (unit -> event list)
(** Buffering sink; the closure returns events oldest first. Every
    campaign job traces into one of these; files are written by the
    campaign's sinks ([Verif.Campaign.jsonl_file_sink]). *)

(** {2 Rendering and parsing} *)

val kind_label : kind -> string
(** The JSON ["event"] tag, e.g. ["verdict_change"]. *)

val event_to_json : event -> string
(** One-line JSON object (no trailing newline). *)

val event_to_json_into : Buffer.t -> event -> unit
(** Append exactly the bytes of {!event_to_json} to [buffer] without
    intermediate allocations — the hot path of streaming campaign
    emission, where every event of every job is rendered once. *)

val event_of_json : string -> (event, string) result
(** Inverse of {!event_to_json} (accepts any key order). *)

(** {2 JSON helpers} (shared with {!Report}) *)

module Json : sig
  val escape : string -> string
  (** Escape for inclusion inside a JSON string literal (no quotes). *)

  val string : string -> string
  (** Quoted JSON string. *)

  val obj : (string * string) list -> string
  (** Object from pre-rendered member values. *)

  val int : int -> string
  val bool : bool -> string
  val float : float -> string
  val null : string
  val option : ('a -> string) -> 'a option -> string
end
