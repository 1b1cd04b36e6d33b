module L = Fltl_lexer

type syntax = [ `Fltl | `Psl | `Auto ]

type error = { line : int; col : int; message : string; input : string }

exception Parse_error of error

let error_to_string error =
  Printf.sprintf "%d:%d: %s in %S" error.line error.col error.message
    error.input

let pp_error fmt error = Format.pp_print_string fmt (error_to_string error)

(* PSL-only keywords decide [`Auto]; [until]/[release] are valid in both
   grammars and keep their FLTL reading (see the interface). *)
let psl_only = function
  | L.KW_ALWAYS | L.KW_NEVER | L.KW_EVENTUALLY | L.KW_NEXT -> true
  | _ -> false

let detect tokens =
  if List.exists (fun (token, _) -> psl_only token) tokens then `Psl else `Fltl

let detect_syntax text =
  match L.tokenize text with
  | tokens -> detect tokens
  | exception L.Lex_error _ -> `Fltl

exception Syntax_error of string * L.position

(* One recursive descent for both syntaxes: only the untiled and unary
   levels look at [syntax]. [tokens] ends with EOF, which no rule consumes. *)
let grammar syntax tokens =
  let rest = ref tokens in
  let peek () = List.hd !rest in
  let advance () = rest := List.tl !rest in
  let fail message pos = raise (Syntax_error (message, pos)) in
  let accept token = fst (peek ()) = token && (advance (); true) in
  let expect token =
    let got, pos = peek () in
    if got = token then advance ()
    else
      fail
        (Printf.sprintf "expected %s but found %s" (L.token_to_string token)
           (L.token_to_string got))
        pos
  in
  (* '[' INT ']', absent -> None *)
  let bracketed what =
    if not (accept L.LBRACKET) then None
    else
      match peek () with
      | L.INT n, _ ->
        advance ();
        expect L.RBRACKET;
        Some n
      | got, pos -> fail (what ^ ", found " ^ L.token_to_string got) pos
  in
  let bound () = bracketed "expected integer bound" in
  let rec formula () =
    let rec loop acc =
      if accept L.IFF_OP || accept L.KW_IFF then
        loop (Formula.iff acc (implied ()))
      else acc
    in
    loop (implied ())
  and implied () =
    let left = ored () in
    if accept L.ARROW || accept L.KW_IMPLIES then
      Formula.implies left (implied ())
    else left
  and ored () =
    let rec loop acc =
      if accept L.BAR || accept L.KW_OR then loop (Formula.or_ acc (anded ()))
      else acc
    in
    loop (anded ())
  and anded () =
    let rec loop acc =
      if accept L.AMP || accept L.KW_AND then
        loop (Formula.and_ acc (untiled ()))
      else acc
    in
    loop (untiled ())
  and untiled () =
    let left = unary () in
    match (syntax, fst (peek ())) with
    | `Fltl, (L.KW_U | L.KW_UNTIL) ->
      advance ();
      let bound = bound () in
      Formula.until bound left (untiled ())
    | `Fltl, (L.KW_R | L.KW_RELEASE) ->
      advance ();
      let bound = bound () in
      Formula.release bound left (untiled ())
    | `Psl, L.KW_UNTIL ->
      advance ();
      let strong = accept L.BANG in
      let right = untiled () in
      if strong then Formula.until None left right
      else (* weak until: q R (p | q) *)
        Formula.release None right (Formula.or_ left right)
    | `Psl, L.KW_RELEASE ->
      advance ();
      Formula.release None left (untiled ())
    | _ -> left
  and unary () =
    match (syntax, fst (peek ())) with
    | _, (L.BANG | L.KW_NOT) ->
      advance ();
      Formula.not_ (unary ())
    | `Fltl, L.KW_X ->
      advance ();
      Formula.next (unary ())
    | `Fltl, L.KW_F ->
      advance ();
      let bound = bound () in
      Formula.finally bound (unary ())
    | `Fltl, L.KW_G ->
      advance ();
      let bound = bound () in
      Formula.globally bound (unary ())
    | `Psl, L.KW_ALWAYS ->
      advance ();
      Formula.globally None (unary ())
    | `Psl, L.KW_NEVER ->
      advance ();
      Formula.globally None (Formula.not_ (unary ()))
    | `Psl, L.KW_EVENTUALLY ->
      advance ();
      (* eventually and eventually! coincide on our monitors *)
      ignore (accept L.BANG);
      Formula.finally None (unary ())
    | `Psl, L.KW_NEXT ->
      advance ();
      ignore (accept L.BANG);
      let count = Option.value ~default:1 (bracketed "expected integer") in
      let inner = unary () in
      let rec iterate n acc =
        if n <= 0 then acc else iterate (n - 1) (Formula.next acc)
      in
      iterate count inner
    | _ -> atom ()
  and atom () =
    match peek () with
    | L.KW_TRUE, _ ->
      advance ();
      Formula.tru
    | L.KW_FALSE, _ ->
      advance ();
      Formula.fls
    | L.IDENT name, _ ->
      advance ();
      Formula.prop name
    | L.LPAREN, _ ->
      advance ();
      let inner = formula () in
      expect L.RPAREN;
      inner
    | got, pos ->
      let where = match syntax with `Fltl -> "formula" | `Psl -> "PSL formula" in
      fail (Printf.sprintf "unexpected %s in %s" (L.token_to_string got) where) pos
  in
  let result = formula () in
  (match peek () with
  | L.EOF, _ -> ()
  | got, pos -> fail ("trailing input: " ^ L.token_to_string got) pos);
  result

let parse ?(syntax = `Auto) text =
  let error message (pos : L.position) =
    Error { line = pos.line; col = pos.column; message; input = text }
  in
  match L.tokenize text with
  | exception L.Lex_error (message, pos) -> error message pos
  | tokens -> (
    let chosen =
      match syntax with `Auto -> detect tokens | (`Fltl | `Psl) as s -> s
    in
    match grammar chosen tokens with
    | formula -> Ok formula
    | exception Syntax_error (message, pos) -> error message pos)

let parse_exn ?syntax text =
  match parse ?syntax text with
  | Ok formula -> formula
  | Error error -> raise (Parse_error error)

let () =
  Printexc.register_printer (function
    | Parse_error error ->
      Some (Printf.sprintf "Sctc.Prop.Parse_error (%s)" (error_to_string error))
    | _ -> None)
