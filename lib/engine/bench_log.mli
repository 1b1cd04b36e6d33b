(** Reader/writer for the [BENCH_campaign.json] bench trajectory.

    The bench harness appends one flat JSON object per round; the file
    spans the repository's whole history. Rows written before the
    ["table"] tag existed carry none — {!parse_line} tolerates them and
    infers their table from distinctive fields ([legacy_tps] marks a
    checker row, [interp_sps] a simulate row, anything else a campaign
    row) instead of rejecting the prefix of the trajectory. Rows are
    read with {!Obs.Json.parse}, the same reader as the trace and the
    metrics snapshot; the row format is the schema on top of it. *)

type value = Number of float | Bool of bool | String of string | Null

type row = {
  table : string;  (** tag, or the inferred table for legacy rows *)
  tagged : bool;  (** [false] for rows whose table was inferred *)
  fields : (string * value) list;  (** in line order, ["table"] included
                                       when present *)
}

val parse_line : string -> (row, string) result
(** Parse one trajectory line: a JSON object whose values are scalars
    (nested containers are not part of the row format and are rejected).
    Every number, integer or not, becomes a {!Number}. *)

val load : string -> (row list, string) result
(** Every row of a trajectory file, blank lines skipped; the first
    malformed line fails the load with [file:line: message].
    @raise Sys_error when the file cannot be opened. *)

(** {2 Field accessors} — [None] when absent or of another kind. *)

val field : row -> string -> value option
val number : row -> string -> float option
val int_field : row -> string -> int option
val bool_field : row -> string -> bool option
val str_field : row -> string -> string option

(** {2 Writing} *)

val render : table:string -> (string * string) list -> string
(** One trajectory line from pre-rendered {!Obs.Json} member
    values, with the uniform [("table", table)] tag placed first.
    @raise Invalid_argument when [members] already contains ["table"]. *)
