(* --- writing -------------------------------------------------------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* not [String.exists], whose local loop is a closure allocated per call *)
let rec clean s i =
  i >= String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

(* A clean string is returned as is: the trace writes one member name per
   sample, so the common case must not allocate. *)
let escape s =
  if clean s 0 then s
  else begin
    let buffer = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\r' -> Buffer.add_string buffer "\\r"
        | '\t' -> Buffer.add_string buffer "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.contents buffer
  end

let string s = "\"" ^ escape s ^ "\""

let obj members =
  "{"
  ^ String.concat ","
      (List.map (fun (key, value) -> string key ^ ":" ^ value) members)
  ^ "}"

let int = string_of_int

(* The digits come from the non-positive counterpart of [n], which every
   int has: negating min_int would overflow. *)
let rec add_nonpositive buffer n =
  if n <= -10 then add_nonpositive buffer (n / 10);
  Buffer.add_char buffer (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buffer n =
  if n < 0 then begin
    Buffer.add_char buffer '-';
    add_nonpositive buffer n
  end
  else add_nonpositive buffer (-n)
let bool b = if b then "true" else "false"

let float v =
  (* JSON numbers must not be "nan"/"inf" *)
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let null = "null"
let option render = function None -> null | Some v -> render v

(* --- reading -------------------------------------------------------------- *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Bad of string

let number = function
  | Int n -> Some (float_of_int n)
  | Float v -> Some v
  | _ -> None

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let error msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub line !pos len = word then begin
      pos := !pos + len;
      value
    end
    else error "bad literal"
  in
  let parse_string () =
    if !pos >= n || line.[!pos] <> '"' then error "expected '\"'";
    incr pos;
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then error "dangling escape";
          (match line.[!pos] with
          | '"' -> Buffer.add_char buffer '"'
          | '\\' -> Buffer.add_char buffer '\\'
          | '/' -> Buffer.add_char buffer '/'
          | 'n' -> Buffer.add_char buffer '\n'
          | 'r' -> Buffer.add_char buffer '\r'
          | 't' -> Buffer.add_char buffer '\t'
          | 'b' -> Buffer.add_char buffer '\b'
          | 'f' -> Buffer.add_char buffer '\012'
          | 'u' ->
            if !pos + 4 >= n then error "short \\u escape";
            let hex i =
              match line.[!pos + i] with
              | '0' .. '9' as c -> Char.code c - Char.code '0'
              | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
              | _ -> error "bad \\u escape"
            in
            let code =
              (hex 1 lsl 12) lor (hex 2 lsl 8) lor (hex 3 lsl 4) lor hex 4
            in
            Buffer.add_utf_8_uchar buffer
              (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
            pos := !pos + 4
          | c -> error (Printf.sprintf "unknown escape \\%c" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char buffer c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let numeral c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numeral line.[!pos] do
      incr pos
    done;
    let lexeme = String.sub line start (!pos - start) in
    (* over these bytes int_of_string reads exactly -?[0-9]+, and fails
       on overflow, which falls through to a Float *)
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lexeme with
      | Some v -> Float v
      | None -> error "bad number")
  in
  (* comma-separated items up to [close]; the opening byte is consumed *)
  let sequence close item =
    skip_ws ();
    if !pos < n && line.[!pos] = close then begin
      incr pos;
      []
    end
    else
      let rec go items =
        let items = item () :: items in
        skip_ws ();
        if !pos < n && line.[!pos] = ',' then begin
          incr pos;
          go items
        end
        else if !pos < n && line.[!pos] = close then begin
          incr pos;
          List.rev items
        end
        else error (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then error "missing value"
    else
      match line.[!pos] with
      | '"' -> String (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '{' ->
        incr pos;
        Object (sequence '}' member)
      | '[' ->
        incr pos;
        Array (sequence ']' parse_value)
      | '-' | '0' .. '9' -> parse_number ()
      | c -> error (Printf.sprintf "unexpected '%c'" c)
  and member () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    if !pos >= n || line.[!pos] <> ':' then error "expected ':'";
    incr pos;
    (key, parse_value ())
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing input";
    value
  with
  | value -> Ok value
  | exception Bad msg -> Error msg
