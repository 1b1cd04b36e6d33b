(* Sctc.Prop is the single property-parsing entry point; these tests pin
   its contract: every row of the golden corpus (including every EEE
   case-study property) reproduces byte for byte, the auto-detection rule
   (PSL keywords flip, until/release do not), the structured error shape,
   and the checker's text path. *)

module Prop = Sctc.Prop

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let formula =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (Formula.to_string f))
    Formula.equal

(* ---- the golden corpus --------------------------------------------------- *)

(* golden/prop_corpus.tsv, one row per (syntax, text):
   [fltl|psl|auto] TAB String.escaped text TAB rendering, where the
   rendering is [Formula.to_string] of the result or
   [Prop.error_to_string] of the error. The texts are the EEE properties
   (with and without a bound), the hand-written cases of this suite and
   test_logic, bracket edge cases, grammar-directed random texts (some
   mutated) and seeded token soups over the lexer's vocabulary.

   [Formula.to_string] prints and/or operands in hash-cons id order, and
   ids follow the order in which terms are first built in the process. So
   every row is parsed once, in file order, before any other test builds a
   formula; the two equivalence tests share that one pass. *)
let corpus =
  lazy
    (In_channel.with_open_bin "golden/prop_corpus.tsv" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun row ->
           match String.split_on_char '\t' row with
           | [ mode; escaped; expected ] ->
             let syntax =
               match mode with
               | "fltl" -> `Fltl
               | "psl" -> `Psl
               | "auto" -> `Auto
               | _ -> Alcotest.failf "bad syntax column %S" mode
             in
             let text = Scanf.unescaped escaped in
             let got =
               match Prop.parse ~syntax text with
               | Ok f -> Formula.to_string f
               | Error e -> Prop.error_to_string e
             in
             (mode, escaped, expected, got)
           | _ -> Alcotest.failf "malformed corpus row %S" row))

let check_corpus modes () =
  let rows =
    List.filter (fun (mode, _, _, _) -> List.mem mode modes) (Lazy.force corpus)
  in
  check "corpus has rows" true (List.length rows >= 500);
  List.iter
    (fun (mode, escaped, expected, got) ->
      check_string (mode ^ " " ^ escaped) expected got)
    rows

(* ---- auto-detection ------------------------------------------------------ *)

let test_auto_detection () =
  let detected text = Prop.detect_syntax text in
  check "always is PSL" true (detected "always (a -> b)" = `Psl);
  check "never is PSL" true (detected "never fault" = `Psl);
  check "eventually is PSL" true (detected "eventually! p" = `Psl);
  check "next is PSL" true (detected "next p" = `Psl);
  check "G/F/X are FLTL" true (detected "G (a -> F[5] b)" = `Fltl);
  (* until/release exist in both grammars with different strengths: they
     must not flip detection, so bare-word texts keep FLTL semantics *)
  check "until stays FLTL" true (detected "a until b" = `Fltl);
  check "release stays FLTL" true (detected "a release b" = `Fltl);
  Alcotest.check formula "auto until is the strong FLTL U"
    (Prop.parse_exn ~syntax:`Fltl "a U b")
    (Prop.parse_exn "a until b");
  check "garbage detects as FLTL" true (detected "a @ b" = `Fltl);
  Alcotest.check formula "auto picks PSL on keyword"
    (Prop.parse_exn ~syntax:`Psl "always (a -> eventually! b)")
    (Prop.parse_exn "always (a -> eventually! b)")

(* ---- structured errors --------------------------------------------------- *)

let test_structured_errors () =
  (match Prop.parse "G (a -> " with
  | Ok _ -> Alcotest.fail "truncated property parsed"
  | Error e ->
    check_int "line" 1 e.Prop.line;
    check "column points past the arrow" true (e.Prop.col >= 8);
    check "message non-empty" true (e.Prop.message <> "");
    check_string "input preserved" "G (a -> " e.Prop.input;
    check "rendering carries position" true
      (String.length (Prop.error_to_string e) > 0
      && String.sub (Prop.error_to_string e) 0 2 = "1:"));
  (match Prop.parse "a @ b" with
  | Ok _ -> Alcotest.fail "lex error parsed"
  | Error e -> check_int "lex error column" 3 e.Prop.col);
  (match Prop.parse ~syntax:`Psl "always" with
  | Ok _ -> Alcotest.fail "bare keyword parsed"
  | Error _ -> ());
  (* a bound beyond max_int is a lex error at the literal, in every mode *)
  List.iter
    (fun syntax ->
      match Prop.parse ~syntax "F[99999999999999999999] a" with
      | Ok _ -> Alcotest.fail "overlong bound parsed"
      | Error e ->
        check_string "overlong bound"
          "1:3: integer literal out of range in \"F[99999999999999999999] a\""
          (Prop.error_to_string e))
    [ `Fltl; `Psl; `Auto ];
  check "parse_exn raises Parse_error" true
    (match Prop.parse_exn "G (" with
    | exception Prop.Parse_error _ -> true
    | _ -> false)

(* ---- the checker's text path --------------------------------------------- *)

let test_checker_auto_text () =
  let checker = Sctc.Checker.create ~name:"prop-test" () in
  Sctc.Checker.register_sampler checker "p" (fun () -> true);
  Sctc.Checker.register_sampler checker "q" (fun () -> true);
  Sctc.Checker.add_property_text ~syntax:`Auto checker ~name:"fltl"
    "G (p -> F q)";
  (* the default is `Auto, as for Prop.parse *)
  Sctc.Checker.add_property_text checker ~name:"psl"
    "always (p -> eventually! q)";
  Sctc.Checker.step checker;
  check "both properties monitored" true
    (List.length (Sctc.Checker.verdicts checker) = 2);
  check "malformed text raises Parse_error" true
    (match
       Sctc.Checker.add_property_text checker ~name:"bad" "G (p -> "
     with
    | exception Prop.Parse_error _ -> true
    | _ -> false);
  (* the bugfix companion: unknown names now raise a descriptive
     Invalid_argument instead of a bare Not_found *)
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check "unknown verdict name is descriptive" true
    (match Sctc.Checker.verdict checker "nope" with
    | exception Invalid_argument msg -> contains msg "fltl"
    | _ -> false)

let () =
  Alcotest.run "prop"
    [
      ( "equivalence",
        [
          Alcotest.test_case "FLTL (incl. EEE specs)" `Quick
            (check_corpus [ "fltl"; "auto" ]);
          Alcotest.test_case "PSL" `Quick (check_corpus [ "psl" ]);
        ] );
      ("auto", [ Alcotest.test_case "detection rule" `Quick test_auto_detection ]);
      ( "errors",
        [ Alcotest.test_case "structured fields" `Quick test_structured_errors ]
      );
      ( "checker",
        [ Alcotest.test_case "add_property_text Auto" `Quick
            test_checker_auto_text ]
      );
    ]
