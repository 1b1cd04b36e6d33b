(* Bench_log — reader/writer for the BENCH_campaign.json trajectory.

   One flat JSON object per line, appended by bench/main.ml across the
   repository's history. Rows written before the "table" tag existed
   carry no tag; the reader infers their table from distinctive fields
   instead of rejecting them. The row format is a schema over the shared
   Obs.Json reader: an object whose values are all scalars. *)

module Json = Obs.Json

type value = Number of float | Bool of bool | String of string | Null

type row = { table : string; tagged : bool; fields : (string * value) list }

let scalar = function
  | Json.Null -> Some Null
  | Json.Bool b -> Some (Bool b)
  | Json.String s -> Some (String s)
  | Json.Int n -> Some (Number (float_of_int n))
  | Json.Float v -> Some (Number v)
  | Json.Array _ | Json.Object _ -> None

let parse_line line =
  match Json.parse line with
  | Error _ as error -> error
  | Ok (Json.Object members) -> (
    let fields =
      List.filter_map
        (fun (key, v) -> Option.map (fun v -> (key, v)) (scalar v))
        members
    in
    if List.compare_lengths fields members <> 0 then
      Error "nested containers are not part of the row format"
    else
      let has key = List.mem_assoc key fields in
      match List.assoc_opt "table" fields with
      | Some (String table) -> Ok { table; tagged = true; fields }
      | Some _ -> Error "\"table\" is not a string"
      | None ->
        (* pre-tag legacy rows: infer the table from fields only that
           table's writer emits (checker/simulate rows were born tagged,
           so in practice untagged rows are early campaign rows — the
           inference still keys on content, not on that history) *)
        let table =
          if has "legacy_tps" then "checker"
          else if has "interp_sps" then "simulate"
          else "campaign"
        in
        Ok { table; tagged = false; fields })
  | Ok _ -> Error "row is not a JSON object"

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          match parse_line line with
          | Ok row -> go (lineno + 1) (row :: acc)
          | Error msg ->
            Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

let field row key = List.assoc_opt key row.fields

let number row key =
  match field row key with Some (Number v) -> Some v | _ -> None

let int_field row key =
  match number row key with Some v -> Some (int_of_float v) | None -> None

let bool_field row key =
  match field row key with Some (Bool b) -> Some b | _ -> None

let str_field row key =
  match field row key with Some (String s) -> Some s | _ -> None

let render ~table members =
  if List.mem_assoc "table" members then
    invalid_arg "Verif.Bench_log.render: members must not contain \"table\"";
  Json.obj (("table", Json.string table) :: members)
