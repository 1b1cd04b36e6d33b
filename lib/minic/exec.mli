(** Backend-agnostic execution of MiniC programs.

    The single entry point the rest of the system uses to run embedded
    software: the verification session's reference backend, the derived
    SystemC-like model and the EEE harness all go through this
    interface, so the tree-walking {!Interp} and the bytecode {!Vm} are
    interchangeable per run ([--backend interp|vm|auto] on the CLI).

    The outcome, hook and exception types are equalities with the
    interpreter's, so existing pattern matches compile unchanged, and
    both backends produce identical observable behavior — same hook
    order, statement counts, verdicts, error messages — with the
    interpreter retained as the differential-testing oracle. *)

type kind =
  | Interp  (** tree-walking reference interpreter *)
  | Vm  (** bytecode compiler + dispatch-loop VM *)
  | Auto
      (** prefer the VM; fall back to the interpreter when the compiler
          rejects a program ({!Compile.Unsupported}) *)

type outcome = Interp.outcome =
  | Finished of int option
  | Halted
  | Fuel_exhausted

type hooks = Interp.hooks = {
  mem_read : int -> int;
  mem_write : int -> int -> unit;
  nondet : lo:int -> hi:int -> int;
  on_statement : Ast.stmt -> unit;
  on_function_entry : string -> unit;
}

exception Assertion_failed of Ast.position
exception Assumption_failed of Ast.position
exception Runtime_error of string * Ast.position
exception Out_of_fuel

val default_hooks : unit -> hooks

val to_string : kind -> string
(** ["interp"], ["vm"], ["auto"] — the CLI names. *)

val of_string : string -> kind option

type t

val create : ?backend:kind -> Typecheck.info -> t
(** Instantiate a program on the chosen backend (default [Auto]).
    Globals are initialized in declaration order either way.
    @raise Compile.Unsupported when [backend] is [Vm] and the program
    uses a construct the compiler rejects. *)

val kind : t -> kind
(** The resolved backend: [Interp] or [Vm], never [Auto]. *)

val kind_name : t -> string

val requested : t -> kind
(** What {!create} was asked for (may be [Auto]). *)

val info : t -> Typecheck.info

val bytecode : t -> Bytecode.t option
(** The compiled program when the VM backend is active. *)

val set_hooks : t -> hooks -> unit
(** Register the hooks used by {!run}/{!call} when none are passed. *)

val hooks : t -> hooks

val reset : t -> unit
(** Back to the freshly created state: globals reinitialized, statement
    count zeroed. *)

val run : ?fuel:int -> ?hooks:hooks -> t -> entry:string -> outcome
(** Call the entry function (default fuel: 10 million statements).
    @raise Invalid_argument if [entry] does not exist or takes
    parameters.
    @raise Assertion_failed, Runtime_error as encountered. *)

val call : ?hooks:hooks -> t -> fuel:int ref -> string -> int list -> int option
(** Invoke one function with argument values (drivers issuing
    individual operations against a resident program state). *)

val read_global : t -> string -> int
(** @raise Invalid_argument for unknown or array globals. *)

val global_reader : t -> string -> unit -> int
(** [global_reader t name] is [fun () -> read_global t name], with the
    global resolved once on the VM backend, so that a proposition
    sampled at every statement neither hashes the name nor allocates.
    It stays valid across {!reset}. *)

val write_global : t -> string -> int -> unit

val read_element : t -> string -> int -> int

val globals_snapshot : t -> (string * int) list
(** Scalar globals with current values, sorted by name. *)

val statements_executed : t -> int
