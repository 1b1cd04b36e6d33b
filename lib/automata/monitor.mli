(** Executable property monitors.

    A monitor binds a property to the system under verification through a
    name-resolution function (typically {!Proposition.Table.binding}) and is
    stepped once per trigger — a clock edge in the paper's approach 1, a
    program-counter event in approach 2. Each step samples every supporting
    proposition exactly once (so stateful propositions advance uniformly)
    and advances the AR-automaton.

    A monitor is one {!Ar_automaton.t} table plus a current state id. The
    engines differ only in how that table is filled: {!of_formula} shares
    the domain's on-demand table for the formula, {!of_automaton} takes
    any table (eagerly filled by {!Ar_automaton.fill}), and {!of_il}
    imports an IL description. All compute identical verdicts. A monitor
    must be stepped on the domain that created its table. *)

type t

val of_formula :
  name:string -> Formula.t -> binding:(string -> unit -> bool) -> t
(** On-the-fly engine: the table of {!Ar_automaton.shared}, filled
    through {!Progression.step} on first visit. *)

val of_automaton :
  name:string -> Ar_automaton.t -> binding:(string -> unit -> bool) -> t
(** Step the given table. *)

val of_il : name:string -> Il.t -> binding:(string -> unit -> bool) -> t
(** Step the table {!Il.to_automaton} imports, whose rows come from the
    IL guards. *)

val name : t -> string

val step : t -> Verdict.t
(** Sample propositions, advance, and return the verdict after this step.
    Once the verdict is final ({!Verdict.is_final}), further steps are
    no-ops. *)

val step_indexed : t -> samples:bool array -> map:int array -> Verdict.t
(** [step_indexed monitor ~samples ~map] advances from an externally
    sampled vector instead of the monitor's own samplers: support slot
    [i] reads [samples.(map.(i))]. This is the checker's compiled
    trigger-plan path — each proposition is probed exactly once per
    trigger at the checker level and shared across monitors. [map] must
    have one entry per {!support} slot. Final verdicts short-circuit as
    in {!step}. *)

val support : t -> string array
(** The monitored support in slot order (a copy): the proposition names
    whose sampled values [step_indexed] expects, in the order the [map]
    argument indexes them. *)

val verdict : t -> Verdict.t
val steps : t -> int

val finalize : ?strong:bool -> t -> Verdict.t
(** End-of-trace verdict, see {!Progression.finalize}. An imported IL
    table carries no obligation formulas, so a pending IL monitor
    finalizes to [Pending] regardless of [strong]. *)

val reset : t -> unit
(** Return to the initial state and step count 0. *)
