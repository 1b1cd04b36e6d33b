(** The SystemC Temporal Checker (SCTC) core.

    A checker owns a proposition table (the probes into the system under
    verification), a set of temporal properties, and one executable monitor
    per property. Each call to {!step} is one trigger of the checker — the
    paper triggers it on the microprocessor clock (approach 1) or on the
    program-counter event of the derived software model (approach 2).

    The trigger hot path runs over a {e compiled trigger plan}, rebuilt
    lazily whenever the property set, the trace bus or a monitor's
    finality changes: every proposition in the pending properties'
    support is probed exactly once per trigger into a shared sample
    vector (in sorted name order, each probe published as one
    [Trace.Sample] event), monitors read that vector through precomputed
    integer slot maps ({!Monitor.step_indexed}), and monitors whose
    verdict is final — and published — are skipped entirely. Every
    monitor steps an [Ar_automaton] table, so a steady-state trigger costs
    one row lookup per property.

    Properties can be given as {!Formula.t} values or as PSL / FLTL text;
    the engine ({!Engine.t}) is selectable per property and decides only
    how the table is filled: on first visit (on-the-fly progression),
    eagerly by explicit synthesis, or from the guards of the automaton
    passed through the IL text form (property → AR-automaton → IL →
    monitor, the full paper pipeline). *)

type t

type engine = Engine.t = Otf | Explicit | Il
(** Re-export of {!Engine.t} — the one engine enum shared by every front
    end; see {!Engine} for the semantics of each constructor and the
    string/CLI conversions. *)

val create :
  ?trace:Trace.t -> ?metrics:Obs.Registry.t -> name:string -> unit -> t
(** [trace] defaults to {!Trace.null} (no events published); [metrics]
    defaults to {!Obs.Registry.null} (no-op handles, one boolean test on
    the hot path). With a live registry the checker records
    [sctc_triggers_total], [sctc_verdict_transitions_total],
    [sctc_progression_cache_hits_total] /
    [sctc_progression_cache_misses_total] (the automaton tables' fill
    hits and misses), per-trigger latency under the [check] stage timer,
    and charges property parsing and explicit synthesis — failed
    attempts included — to the [parse] / [synthesize] stage timers. *)

val name : t -> string

(** {2 Tracing} *)

val trace : t -> Trace.t
val set_trace : t -> Trace.t -> unit

val set_time_source : t -> (unit -> int) -> unit
(** Install the clock used to stamp {!first_final_at} (and, for
    convenience, available to sessions for their trace bus). Defaults to
    the checker's own trigger count. *)

(** {2 Propositions} *)

val register_proposition : t -> Proposition.t -> unit
(** @raise Invalid_argument on duplicate proposition names. *)

val register_sampler : t -> string -> (unit -> bool) -> unit
(** Convenience: register a stateless proposition from a sampler. *)

val proposition_names : t -> string list

(** {2 Properties} *)

val add_property :
  ?engine:engine -> ?max_states:int -> t -> name:string -> Formula.t -> unit
(** [engine] defaults to {!Engine.default} ({!Engine.Otf}), as in every
    session/harness/CLI front end. [Explicit] and [Il] fill the domain's
    shared table for the formula under [max_states] (see
    {!Ar_automaton.fill}); the time of every attempt that does work is
    added to {!synthesis_seconds} and the [synthesize] stage timer, even
    when it gives up with {!Ar_automaton.Too_large}.
    @raise Invalid_argument if a proposition in the formula's support is not
    registered, or if the property name is already used.
    @raise Ar_automaton.Too_large if [Explicit]/[Il] synthesis exceeds
    [max_states]. *)

val add_property_text :
  ?engine:engine ->
  ?max_states:int ->
  ?syntax:Prop.syntax ->
  t ->
  name:string ->
  string ->
  unit
(** Parse via {!Prop.parse_exn} and add ([syntax] defaults to [`Auto], as
    in {!Prop.parse}).
    @raise Prop.Parse_error on malformed property text. *)

val property_names : t -> string list

(** {2 Monitoring} *)

val step : t -> unit
(** One trigger: advance every monitor by one observation step. *)

val trigger : t -> unit
(** One trigger, publishing the [Trace.Trigger] event first — what the
    simulation trigger loops ({!Trigger}, the session backends) call. *)

val steps : t -> int

val active_properties : t -> int
(** Properties the next trigger will visit: pending monitors plus final
    ones whose verdict is still unpublished on the trace bus. Settled,
    published properties are skipped by the trigger plan. *)

val sampled_propositions : t -> string list
(** The shared sample vector of the next trigger, in probe (sorted name)
    order: the union of the pending properties' supports. Propositions
    supporting only settled properties are no longer probed. *)

val verdict : t -> string -> Verdict.t
(** Current verdict of a property.
    @raise Invalid_argument for unknown names (the message lists the
    registered property names). *)

val verdict_opt : t -> string -> Verdict.t option
(** Non-raising {!verdict}; [None] for unknown names. *)

val verdicts : t -> (string * Verdict.t) list

val overall : t -> Verdict.t
(** {!Verdict.combine} over all properties. *)

val finalize : ?strong:bool -> t -> (string * Verdict.t) list
(** End-of-trace verdicts (does not mutate the checker). *)

val first_final_at : t -> string -> int option
(** Time unit (via the installed time source) at which a property first
    reached a final verdict, if it has.
    @raise Invalid_argument for unknown names (the message lists the
    registered property names). *)

val first_final_at_opt : t -> string -> int option
(** Non-raising {!first_final_at}; [None] for unknown names and for
    properties that never reached a final verdict. *)

val reset : t -> unit
(** Reset all monitors and stateful propositions to their initial states. *)

val synthesis_seconds : t -> float
(** Total explicit AR-automaton generation time accumulated by
    [add_property], failed attempts included — the paper's "AR-automaton
    generation time" component of verification time. *)

val on_violation : t -> (string -> int -> unit) -> unit
(** Install a callback invoked as [f property_name step] the first time a
    property's verdict turns [False]. *)
