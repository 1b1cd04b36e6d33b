(** The one JSON codec for the repository's artifacts: the campaign
    trace (JSONL), the {!Export.to_jsonl} metrics snapshot, the
    [BENCH_campaign.json] trajectory and the report's JSONL rows.

    The writers render member values as strings that callers assemble
    with {!obj} (the hot trace path appends {!escape} and {!add_int}
    output straight into a buffer). The reader parses one complete JSON
    value; each artifact's reader is a schema check over {!parse}. *)

(** {2 Writing} *)

val escape : string -> string
(** Escape for inclusion inside a JSON string literal (no quotes):
    ["\""], ["\\"], ["\n"], ["\r"], ["\t"] get their two-byte escapes,
    other bytes below 0x20 become [\u00XX]; every other byte, including
    bytes >= 0x80, is copied as is. A string with nothing to escape is
    returned itself, without allocating. *)

val string : string -> string
(** Quoted JSON string. *)

val obj : (string * string) list -> string
(** Object from pre-rendered member values. *)

val int : int -> string
val bool : bool -> string

val add_int : Buffer.t -> int -> unit
(** Append the bytes of {!int} without allocating; exact for every int,
    [min_int] included. *)

val float : float -> string
(** [%.6g]; non-finite values render as [null]. *)

val null : string
val option : ('a -> string) -> 'a option -> string

(** {2 Reading} *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** an integer lexeme that fits an OCaml [int] *)
  | Float of float  (** any other number *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in input order, duplicates kept *)

val parse : string -> (t, string) result
(** Parse exactly one value, surrounded by optional whitespace (space,
    tab, CR, LF); any other byte after it is an error.

    - Strings are byte-transparent: unescaped bytes are copied as they
      are. [\uXXXX] decodes to the UTF-8 encoding of U+XXXX, except
      that a surrogate (D800 to DFFF, paired or not) decodes to U+FFFD.
      So every string {!escape} writes reads back byte for byte.
    - A number starts with [-] or a digit and runs over
      [0-9 + - . e E]. An optional [-] followed by digits is an [Int]
      when it fits an OCaml [int], otherwise a [Float]; any other
      numeral must parse with [float_of_string]. That admits a few
      non-JSON numerals, such as [01] and [1.], which the metrics
      snapshot reader has always accepted.

    [Error] names the problem and its byte offset. *)

val number : t -> float option
(** [Int] and [Float] as a float; [None] for any other value. *)
