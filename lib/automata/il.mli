(** Intermediate Language (IL) representation of AR-automata.

    SCTC's flow is: property text → AR-automaton in IL form → executable
    monitor. The IL is a flat, serializable automaton description whose
    transition guards are sums of cubes over the proposition vector — the
    representation a SystemC code generator would consume. This module
    converts explicit automata to IL, pretty-prints, and parses the textual
    form back (round-trip stable), so IL files can be stored next to a
    design and re-loaded without re-synthesis. *)

type kind = Ar_automaton.state_kind = Accept | Reject | Pend

type transition = {
  guard : Cube.t list;  (** disjunction of cubes over the proposition order *)
  target : int;
}

type state = { kind : kind; outgoing : transition list }

type t = {
  name : string;
  props : string array;
  initial : int;
  states : state array;
}

val of_automaton : name:string -> Ar_automaton.t -> t
(** Guards are minimized cube covers of the assignment sets per successor.
    Accept/Reject states get no outgoing transitions (they are absorbing).
    @raise Invalid_argument unless the automaton is
    {!Ar_automaton.complete}. *)

val next : t -> int -> int -> int
(** [next il state mask] follows the transition whose guard covers [mask]
    by scanning the guard cubes in order; absorbing states return
    themselves. This is the reference semantics — monitors step through
    the {!to_automaton} table instead, and the two are differentially
    tested against each other.
    @raise Invalid_argument if no guard matches (malformed IL); the
    message names the automaton and spells the valuation out as a
    proposition assignment ([p=0 q=1 …]), not just the raw mask. *)

val to_automaton : t -> Ar_automaton.t
(** Import as a table whose rows are filled on demand from the guards
    (one {!next} scan per (state, mask), then a row lookup), so an
    imported monitor steps at table speed. {!next}'s missing-guard
    error surfaces from {!Ar_automaton.next}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Parse_error of string

val parse : string -> t
(** Parses the textual form produced by {!pp}. *)

val num_transitions : t -> int
(** Total transition (cube) count — the IL size metric. *)
