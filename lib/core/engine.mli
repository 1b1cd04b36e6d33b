(** The monitor-synthesis engine selection — one enum for the whole stack.

    {!Checker.engine} is an alias of this type, [Tcheck_cli.engine_conv]
    is the cmdliner converter over {!of_string}/{!to_string}, and every
    config record ([Verif.Session.config], [Eee.Harness.plan],
    [Eee.Driver.config]) carries a value of this type.

    Every engine steps the same representation, an [Ar_automaton.t]
    transition table; they differ only in how the table is filled:

    - {!Otf} — on first visit, through formula progression. No synthesis
      cost at registration; only the reachable fragment of the
      AR-automaton is ever determinized. The default.
    - {!Explicit} — eagerly, by explicit synthesis under a state budget
      ([Ar_automaton.fill]); synthesis can blow up on large bounds
      ([Ar_automaton.Too_large]).
    - {!Il} — the paper's full pipeline: the explicit table exported as
      IL text, parsed back, and imported with rows filled from the
      guards.

    Verdicts are identical across all engines, per step. *)

type t = Otf | Explicit | Il

val all : t list
(** In {!to_string} order: [otf], [explicit], [il]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts ["on-the-fly"] as an alias of ["otf"]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on unknown names (the message lists the
    known ones). *)

val pp : Format.formatter -> t -> unit

val describe : t -> string
(** One-line description, for CLI docs and bench tables. *)

val default : t
(** {!Otf}. *)
