type row = {
  row_name : string;
  vt_seconds : float;
  test_cases : int option;
  coverage_pct : float option;
  result : string;
}

let row ?test_cases ?coverage_pct name vt_seconds result =
  { row_name = name; vt_seconds; test_cases; coverage_pct; result }

let cell_of_column row = function
  | "V.T.(s)" -> Printf.sprintf "%.3f" row.vt_seconds
  | "T.C." -> (
    match row.test_cases with None -> "-" | Some n -> string_of_int n)
  | "C.(%)" -> (
    match row.coverage_pct with
    | None -> "-"
    | Some p -> Printf.sprintf "%.1f" p)
  | "Result" -> row.result
  | other -> invalid_arg ("Report: unknown column " ^ other)

let pp_table fmt ~title ~columns rows =
  let headers = "Property" :: columns in
  let body =
    List.map
      (fun row -> row.row_name :: List.map (cell_of_column row) columns)
      rows
  in
  let widths =
    List.mapi
      (fun i header ->
        List.fold_left
          (fun acc cells -> max acc (String.length (List.nth cells i)))
          (String.length header) body)
      headers
  in
  let pad text width = text ^ String.make (width - String.length text) ' ' in
  let render_line cells =
    String.concat "  " (List.map2 pad cells widths)
  in
  Format.fprintf fmt "== %s ==@\n" title;
  Format.fprintf fmt "%s@\n" (render_line headers);
  Format.fprintf fmt "%s@\n"
    (String.concat "  "
       (List.map (fun width -> String.make width '-') widths));
  List.iter (fun cells -> Format.fprintf fmt "%s@\n" (render_line cells)) body

let to_string ~title ~columns rows =
  Format.asprintf "%a" (fun fmt () -> pp_table fmt ~title ~columns rows) ()

(* RFC-4180: quote a field iff it contains a comma, quote, CR or LF;
   embedded quotes are doubled *)
let csv_field text =
  let needs_quoting =
    String.exists
      (function ',' | '"' | '\n' | '\r' -> true | _ -> false)
      text
  in
  if not needs_quoting then text
  else begin
    let buffer = Buffer.create (String.length text + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buffer "\"\""
        else Buffer.add_char buffer c)
      text;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
  end

let csv_header = "name,vt_seconds,test_cases,coverage_pct,result"

let csv rows =
  let cell_option f = function None -> "" | Some v -> f v in
  String.concat "\n"
    (csv_header
    :: List.map
         (fun row ->
           String.concat ","
             [
               csv_field row.row_name;
               Printf.sprintf "%.6f" row.vt_seconds;
               cell_option string_of_int row.test_cases;
               cell_option (Printf.sprintf "%.2f") row.coverage_pct;
               csv_field row.result;
             ])
         rows)

let jsonl rows =
  String.concat "\n"
    (List.map
       (fun row ->
         Obs.Json.obj
           [
             ("name", Obs.Json.string row.row_name);
             ("vt_seconds", Printf.sprintf "%.6f" row.vt_seconds);
             ("test_cases", Obs.Json.option Obs.Json.int row.test_cases);
             ( "coverage_pct",
               Obs.Json.option Obs.Json.float row.coverage_pct );
             ("result", Obs.Json.string row.result);
           ])
       rows)
