(** Accept/Reject automata: the one monitor representation.

    SCTC translates a property into an AR-automaton that is executed
    during system monitoring (Ruf et al., DATE 2001). States are
    obligations (formulas); the automaton reads one proposition
    assignment per trigger and moves to the progressed obligation.
    [Accept] and [Reject] states are absorbing and correspond to
    validation/violation on the finite trace; everything else is pending.

    An automaton is a transition table that fills in as it runs. A state
    gets an id the first time it is reached and keeps its verdict kind and
    one successor row. A row is indexed by a mask over the formula's
    sorted support ({!props}); rows are dense arrays up to
    {!max_dense_props} propositions, hash tables up to
    {!max_cached_props}, and recomputed per step beyond that. A missing
    successor is computed by {!Progression.step} (or, for an {!import}ed
    table, by the automaton's guards) the first time {!next} needs it.

    Filling on demand is lazy determinization: only reachable
    (state, mask) transitions are ever computed. {!fill} completes the
    table eagerly instead — explicit synthesis, which for a bounded
    operator [F[b]] creates O(b) count-down states, the source of the
    large AR-automaton generation times the paper reports for time bound
    100000.

    Tables are domain-local: step a table only on the domain that
    created it. *)

type state_kind = Accept | Reject | Pend

type t

exception Too_large of int
(** Raised by {!fill} when the state count exceeds [max_states]. *)

val max_dense_props : int
(** 12: rows over at most this many propositions are dense arrays. *)

val max_cached_props : int
(** 16: rows up to this width are hashed; wider rows are recomputed on
    every step, and {!fill} refuses them. *)

val create : Formula.t -> t
(** A fresh table holding only the initial state (the formula itself). *)

val shared : Formula.t -> t
(** The calling domain's table for [formula], created on first use: a
    per-domain memo keyed by the formula's hash-cons id, so every monitor
    of one formula on one domain shares (and fills) one table, without
    any cross-domain locking. *)

val import :
  props:string array ->
  initial:int ->
  kinds:state_kind array ->
  (int -> int -> int) ->
  t
(** [import ~props ~initial ~kinds successor] is a table over the fixed
    state set [kinds] whose rows are filled on demand by
    [successor state mask] — the guard lookup of an imported IL
    automaton. Imported tables carry no state formulas. *)

val fill : ?max_states:int -> t -> unit
(** Complete the table eagerly: every state reachable from the initial
    one, under every mask. The time spent is added to {!build_seconds}.
    No-op on a complete table.
    @raise Too_large when the table holds, or would grow to, more than
    [max_states] states (default 200000); the table stays usable and
    keeps what was filled.
    @raise Invalid_argument on more than {!max_cached_props}
    propositions. *)

val synthesize : ?max_states:int -> Formula.t -> t
(** [synthesize ?max_states formula] is {!create} then {!fill}: the
    explicit automaton, built from scratch. *)

val complete : t -> bool
(** Has {!fill} completed this table? *)

val props : t -> string array
(** Proposition order defining assignment bitmasks: bit [i] = value of
    [props.(i)]. *)

val num_states : t -> int
(** States reached so far (all reachable ones once {!complete}). *)

val num_props : t -> int
val initial : t -> int
val kind : t -> int -> state_kind

val verdict : t -> int -> Verdict.t
(** The verdict a state's kind stands for. *)

val next : t -> int -> int -> int
(** [next a state mask] is the successor under assignment [mask], filled
    on first use.
    @raise Invalid_argument from an imported table's guards when none
    covers [mask]. *)

val state_formula : t -> int -> Formula.t option
(** The obligation a state denotes; [None] for {!import}ed tables. *)

val build_seconds : t -> float
(** Wall-clock time spent in {!fill} (the paper's "AR-automaton
    generation time" component of verification time). *)

val mask_of_valuation : t -> (string -> bool) -> int

val stats : t -> string
(** Human-readable summary: states, propositions, build time. *)

(** {2 Fill counters}

    Process-wide counts of {!next} lookups served by a filled row (hits)
    and successors computed on demand (misses), summed over every domain;
    exported through [lib/obs] by the checker as
    [sctc_progression_cache_{hits,misses}_total]. *)

type counters = { hits : int; misses : int }

val counters : unit -> counters
(** Aggregated over all domains (takes the registry mutex). *)

type cell = private { mutable hits : int; mutable misses : int }

val local_counters : unit -> cell
(** The calling domain's own live counters — lock-free; reading its
    fields before and after a trigger gives the trigger's delta without
    allocating, as the metered checker path does. *)
