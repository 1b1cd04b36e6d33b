type t = Otf | Explicit | Il

let all = [ Otf; Explicit; Il ]

let to_string = function Otf -> "otf" | Explicit -> "explicit" | Il -> "il"

let of_string text =
  match String.lowercase_ascii (String.trim text) with
  | "otf" | "on-the-fly" | "onthefly" -> Some Otf
  | "explicit" -> Some Explicit
  | "il" -> Some Il
  | _ -> None

let of_string_exn text =
  match of_string text with
  | Some engine -> engine
  | None ->
    invalid_arg
      (Printf.sprintf
         "Sctc.Engine.of_string_exn: unknown engine %S (expected %s)" text
         (String.concat ", " (List.map to_string all)))

let pp fmt engine = Format.pp_print_string fmt (to_string engine)

let describe = function
  | Otf -> "AR-automaton table filled on first visit (the default)"
  | Explicit -> "AR-automaton table filled eagerly by explicit synthesis"
  | Il -> "explicit table round-tripped through the IL text, rows from guards"

let default = Otf
