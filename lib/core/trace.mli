(** Structured trace/event bus for verification sessions.

    Everything the checker stack observes — triggers, proposition samples,
    verdict changes, the ESW-monitor handshake, test-case boundaries,
    watchdogs and software crashes — is published as a typed event on a
    bus. Sinks subscribe to the bus. A campaign job's bus gets only the
    sinks whose product one of the campaign's sinks reads: the events in
    memory ({!memory_sink}) and the JSONL lines ({!Rendered.sink}),
    rendered on the worker as the events are emitted. The {!null} bus
    is a shared disabled instance; emitting into it costs one branch, so
    hot paths stay fast when tracing is off (guard allocations with
    {!enabled}).

    The bus also keeps cheap aggregate counters (events, triggers,
    samples, triggers/second). A bus with no sink attached only keeps
    those: {!emit} builds no {!event} and does not read the time
    source. *)

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
(** Count the event (every kind advances {!events}). Only when a sink
    is attached is the {!event} built, stamped with its [seq] and the
    time source, and handed to every sink. *)

val has_sinks : t -> bool
(** Whether a sink is attached: only then does an emitted event reach
    anyone. *)

val count_samples : t -> int -> unit
(** [count_samples bus n] advances the counters exactly as [n] emitted
    [Sample]s would, without building them: the sampling hot path of a
    bus that no sink reads. A no-op on {!null}.
    @raise Invalid_argument when a sink is attached. *)

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
(** Buffering sink; the closure returns events oldest first. A campaign
    job traces into one of these only when one of the campaign's sinks
    reads events; files are written by the campaign's JSONL sinks
    ([Verif.Campaign.jsonl_file_sink]) from {!Rendered} lines. *)

(** {2 Rendering and parsing} *)

val kind_label : kind -> string
(** The JSON ["event"] tag, e.g. ["verdict_change"]. *)

val event_to_json : event -> string
(** One-line JSON object (no trailing newline). *)

val event_to_json_into : Buffer.t -> event -> unit
(** Append exactly the bytes of {!event_to_json} to [buffer] without
    intermediate allocations. *)

(** A job's trace pre-rendered as JSONL: one line per event, each
    stored as its tail — the bytes of {!event_to_json} after the seq's
    digits, plus newline — so that the line's seq can be chosen when
    the lines are written. A campaign worker renders the tails before
    the campaign-global seq is known. *)
module Rendered : sig
  type t

  val create : unit -> t

  val sink : t -> sink
  (** A bus sink that renders every event's tail as it is emitted. The
      tails go into line-aligned chunks of at most 64 KiB (longer lines
      get a chunk of their own), with each line's length recorded. *)

  val lines : t -> int
  (** Lines rendered so far: one per event the sink received. *)

  val add_to_buffer : Buffer.t -> t -> first_seq:int -> unit
  (** Append every line, the [i]th (from 0) numbered [first_seq + i]:
      the bytes {!event_to_json_into} and a newline give for each event
      with that seq. Per line this writes the seq prefix and digits and
      blits the recorded tail; it allocates nothing per line. *)
end

val event_of_json : string -> (event, string) result
(** Inverse of {!event_to_json}: a schema check over {!Obs.Json.parse}
    (any key order; bytes after the object are an error). *)
