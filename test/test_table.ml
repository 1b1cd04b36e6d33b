(* The AR-automaton table, filled on demand, and the engines over it.

   - differential qcheck: a lazily filled table agrees with plain
     [Progression.step] per step, [finalize] included; an eagerly filled
     table agrees with a lazily filled one on every reached (state, mask);
     an IL-imported table agrees with the guard-scan oracle [Il.next] on
     every (state, mask) after the textual round trip
   - the missing-guard diagnostic names the automaton and spells the
     valuation as a proposition assignment, on both the oracle and the
     imported table
   - one shared table per formula and domain, and a fill that gives up
     with [Too_large] leaves a usable table
   - [Engine] strings, and the checker charging a failed synthesis *)

module Checker = Sctc.Checker
module Engine = Sctc.Engine
module Registry = Obs.Registry
module F = Formula

(* --- random formulas over a/b/c (same shape as test_trigger_plan) ------ *)

let gen_formula =
  let open QCheck.Gen in
  let prop_name = oneofl [ "a"; "b"; "c" ] in
  let bound = oneof [ return None; map (fun n -> Some n) (int_bound 3) ] in
  sized_size (int_bound 12)
  @@ QCheck.Gen.fix (fun self n ->
         if n = 0 then oneof [ return F.tru; return F.fls; map F.prop prop_name ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map F.prop prop_name;
               map F.not_ sub;
               map2 F.and_ sub sub;
               map2 F.or_ sub sub;
               map F.next sub;
               map2 F.finally bound sub;
               map2 F.globally bound sub;
               map3 F.until bound sub sub;
               map3 F.release bound sub sub;
             ])

let gen_script =
  QCheck.Gen.(list_size (int_range 1 40) (triple bool bool bool))

let valuation_of (a, b, c) = function
  | "a" -> a
  | "b" -> b
  | "c" -> c
  | name -> invalid_arg ("unexpected proposition " ^ name)

let arbitrary_formula = QCheck.make ~print:F.to_string gen_formula

let arbitrary_run =
  QCheck.make
    ~print:(fun (formula, script) ->
      Printf.sprintf "%s over %d steps" (F.to_string formula)
        (List.length script))
    QCheck.Gen.(pair gen_formula gen_script)

(* keep the synthesized automata small: the comparisons are per
   (state, mask), and [Il.of_automaton] pays a cube minimization per
   state, so big automata only add runtime, not coverage *)
let automaton_of formula =
  match Ar_automaton.synthesize ~max_states:400 formula with
  | automaton -> automaton
  | exception Ar_automaton.Too_large _ -> QCheck.assume_fail ()

let obligation table state =
  match Ar_automaton.state_formula table state with
  | Some formula -> formula
  | None -> Alcotest.fail "a progression table carries state formulas"

(* --- the lazy table ----------------------------------------------------- *)

(* a fresh table per run, so every transition is filled on first visit
   inside the run it is checked in *)
let qcheck_lazy_vs_progression =
  QCheck.Test.make ~name:"lazy == progression, per step" ~count:300
    arbitrary_run (fun (formula, script) ->
      let current = ref (false, false, false) in
      let monitor =
        Monitor.of_automaton ~name:"lazy" (Ar_automaton.create formula)
          ~binding:(fun name () -> valuation_of !current name)
      in
      let reference = ref formula in
      List.iter
        (fun triple ->
          current := triple;
          let verdict = Monitor.step monitor in
          if not (Verdict.is_final (Progression.verdict !reference)) then
            reference := Progression.step !reference (valuation_of triple);
          let expected = Progression.verdict !reference in
          if not (Verdict.equal verdict expected) then
            Alcotest.failf "diverged on %s: %s vs %s" (F.to_string formula)
              (Verdict.to_string verdict) (Verdict.to_string expected))
        script;
      List.for_all
        (fun strong ->
          Verdict.equal
            (Monitor.finalize ~strong monitor)
            (Progression.finalize ~strong !reference))
        [ false; true ])

(* Walk a random script through a fresh lazy table first, so its state ids
   follow that run rather than the breadth-first order of synthesis; then
   explore the product of the two tables from their initial states and
   compare every reached (state, mask) by obligation. *)
let qcheck_eager_vs_lazy =
  QCheck.Test.make ~name:"eager == lazy on every reached (state, mask)"
    ~count:100 arbitrary_run (fun (formula, script) ->
      let eager = automaton_of formula in
      let lazy_ = Ar_automaton.create formula in
      ignore
        (List.fold_left
           (fun state triple ->
             Ar_automaton.next lazy_ state
               (Ar_automaton.mask_of_valuation lazy_ (valuation_of triple)))
           (Ar_automaton.initial lazy_) script);
      let width = Ar_automaton.num_props eager in
      let seen = Hashtbl.create 64 in
      let rec explore = function
        | [] -> ()
        | (l, e) :: rest when Hashtbl.mem seen (l, e) -> explore rest
        | (l, e) :: rest ->
          Hashtbl.replace seen (l, e) ();
          if not (F.equal (obligation lazy_ l) (obligation eager e)) then
            Alcotest.failf "states %d/%d of %s denote different obligations" l
              e (F.to_string formula);
          if Ar_automaton.kind lazy_ l <> Ar_automaton.kind eager e then
            Alcotest.failf "states %d/%d of %s differ in kind" l e
              (F.to_string formula);
          let successors =
            List.init (1 lsl width) (fun mask ->
                (Ar_automaton.next lazy_ l mask, Ar_automaton.next eager e mask))
          in
          explore (successors @ rest)
      in
      explore [ (Ar_automaton.initial lazy_, Ar_automaton.initial eager) ];
      Hashtbl.length seen >= Ar_automaton.num_states eager)

let test_shared_per_formula () =
  let formula = Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[7] (b & c))" in
  let table = Ar_automaton.shared formula in
  Alcotest.(check bool) "one table per formula" true
    (table == Ar_automaton.shared formula);
  Alcotest.(check bool) "starts with the initial state only" true
    (Ar_automaton.num_states table = 1 && not (Ar_automaton.complete table));
  let other =
    Domain.join
      (Domain.spawn (fun () -> Ar_automaton.shared formula))
  in
  Alcotest.(check bool) "another domain has its own table" true
    (other != table)

let test_too_large_keeps_table () =
  let formula = Sctc.Prop.parse_exn ~syntax:`Fltl "G (a -> F[300] b)" in
  let table = Ar_automaton.create formula in
  (match Ar_automaton.fill ~max_states:8 table with
  | () -> Alcotest.fail "expected Too_large"
  | exception Ar_automaton.Too_large n ->
    Alcotest.(check int) "count reported" 9 n);
  Alcotest.(check bool) "not complete" false (Ar_automaton.complete table);
  (* the same budget gives up at once; a larger one completes it *)
  (match Ar_automaton.fill ~max_states:8 table with
  | () -> Alcotest.fail "expected Too_large again"
  | exception Ar_automaton.Too_large _ -> ());
  Ar_automaton.fill table;
  Alcotest.(check bool) "complete" true (Ar_automaton.complete table);
  Alcotest.(check int) "same states as synthesis"
    (Ar_automaton.num_states (Ar_automaton.synthesize formula))
    (Ar_automaton.num_states table)

(* --- the IL import vs the guard-scan oracle ------------------------------ *)

let qcheck_import_vs_scan =
  QCheck.Test.make ~name:"imported table == Il.next over the IL round-trip"
    ~count:100 arbitrary_formula (fun formula ->
      let il = Il.of_automaton ~name:"t" (automaton_of formula) in
      (* through the textual form, as the Il engine loads it *)
      let il = Il.parse (Il.to_string il) in
      let table = Il.to_automaton il in
      let width = Array.length il.Il.props in
      let states = Array.length il.Il.states in
      Alcotest.(check int) "state count" states (Ar_automaton.num_states table);
      for state = 0 to states - 1 do
        for mask = 0 to (1 lsl width) - 1 do
          (* twice: the second lookup reads the filled row *)
          if
            Ar_automaton.next table state mask <> Il.next il state mask
            || Ar_automaton.next table state mask <> Il.next il state mask
          then
            Alcotest.failf "divergence at state %d mask %d of %s" state mask
              (F.to_string formula)
        done
      done;
      true)

let qcheck_il_roundtrip =
  QCheck.Test.make ~name:"IL pp/parse round trip preserves next" ~count:100
    arbitrary_formula (fun formula ->
      let automaton = automaton_of formula in
      let il = Il.of_automaton ~name:"rt" automaton in
      let il' = Il.parse (Il.to_string il) in
      Alcotest.(check string) "name" il.Il.name il'.Il.name;
      Alcotest.(check int) "initial" il.Il.initial il'.Il.initial;
      let width = Array.length il.Il.props in
      for state = 0 to Array.length il.Il.states - 1 do
        for mask = 0 to (1 lsl width) - 1 do
          Alcotest.(check int)
            (Printf.sprintf "state %d mask %d" state mask)
            (Il.next il state mask) (Il.next il' state mask)
        done
      done;
      true)

(* a pending state whose guards do not cover mask 0 (a=0 b=0): the
   diagnostic must name the automaton and spell the valuation out *)
let missing_guard_il =
  Il.parse
    "automaton gap {\n\
    \  props: a, b;\n\
    \  initial: 0;\n\
    \  state 0 pending {\n\
    \    on 1- -> 1;\n\
    \  }\n\
    \  state 1 accept {\n\
    \  }\n\
     }"

let test_missing_guard_message () =
  let expect_message next =
    match next () with
    | (_ : int) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg ->
      let contains needle =
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" msg needle)
          true
          (let len = String.length needle in
           let rec probe i =
             i + len <= String.length msg
             && (String.sub msg i len = needle || probe (i + 1))
           in
           probe 0)
      in
      contains "gap";
      contains "a=0";
      contains "b=1";
      contains "mask 2"
  in
  (* mask 2 = a false, b true; only cubes with a=1 are covered *)
  expect_message (fun () -> Il.next missing_guard_il 0 2);
  expect_message (fun () ->
      Ar_automaton.next (Il.to_automaton missing_guard_il) 0 2)

(* --- the engine enum and synthesis accounting --------------------------- *)

let test_engine_strings () =
  List.iter
    (fun engine ->
      Alcotest.(check bool)
        (Engine.to_string engine ^ " round-trips")
        true
        (Engine.of_string (Engine.to_string engine) = Some engine))
    Engine.all;
  Alcotest.(check (list string)) "the three engines" [ "otf"; "explicit"; "il" ]
    (List.map Engine.to_string Engine.all);
  Alcotest.(check string) "default" "otf" (Engine.to_string Engine.default);
  Alcotest.(check bool) "on-the-fly alias" true
    (Engine.of_string "on-the-fly" = Some Engine.Otf);
  Alcotest.(check bool) "case-insensitive" true
    (Engine.of_string "EXPLICIT" = Some Engine.Explicit);
  (* the removed engines are unknown names like any other *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Engine.of_string name = None);
      match Engine.of_string_exn name with
      | (_ : Engine.t) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
        Alcotest.(check string)
          (name ^ ": the message lists the engines")
          (Printf.sprintf
             "Sctc.Engine.of_string_exn: unknown engine %S (expected otf, \
              explicit, il)"
             name)
          msg)
    [ "warp"; "auto"; "hybrid" ]

(* a state budget far below the bound: the explicit attempt gives up, the
   exception reaches the caller, and its time is charged all the same *)
let test_failed_synthesis_charged () =
  List.iter
    (fun engine ->
      let metrics = Registry.create () in
      let checker = Checker.create ~metrics ~name:"charged" () in
      Checker.register_sampler checker "req" (fun () -> false);
      Checker.register_sampler checker "ack" (fun () -> false);
      (* a bound per engine that nothing else synthesizes on this domain,
         so the attempt has work to do *)
      let text =
        match engine with
        | Engine.Il -> "G (req -> F[4099] ack)"
        | _ -> "G (req -> F[4097] ack)"
      in
      (match
         Checker.add_property_text ~engine ~max_states:64 checker ~name:"p"
           text
       with
      | () -> Alcotest.fail "expected Too_large"
      | exception Ar_automaton.Too_large n ->
        Alcotest.(check bool) "count past the budget" true (n > 64));
      Alcotest.(check bool) "synthesis_seconds charged" true
        (Checker.synthesis_seconds checker > 0.0);
      let timer = Registry.stage_timer metrics Registry.Synthesize in
      Alcotest.(check bool) "synthesize stage timer charged" true
        (Registry.Timer.seconds timer > 0.0);
      Alcotest.(check int) "one attempt observed" 1 (Registry.Timer.count timer);
      Alcotest.(check (list string)) "no property registered" []
        (Checker.property_names checker))
    [ Engine.Explicit; Engine.Il ]

let test_checker_opt_accessors () =
  let checker = Checker.create ~name:"opt" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Checker.add_property_text checker ~name:"p" "F a";
  Alcotest.(check bool) "verdict_opt known" true
    (Checker.verdict_opt checker "p" <> None);
  Alcotest.(check bool) "verdict_opt unknown" true
    (Checker.verdict_opt checker "nope" = None);
  Alcotest.(check (option int)) "first_final_at_opt unknown" None
    (Checker.first_final_at_opt checker "nope");
  Checker.step checker;
  Alcotest.(check (option int)) "first_final_at_opt known" (Some 1)
    (Checker.first_final_at_opt checker "p");
  (* the raising twins keep raising, with the property list in the message *)
  (match Checker.verdict checker "nope" with
  | (_ : Verdict.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Checker.first_final_at checker "nope" with
  | (_ : int option) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let qcheck cases = List.map (QCheck_alcotest.to_alcotest ~verbose:false) cases

let () =
  Alcotest.run "table"
    [
      ( "lazy-table",
        [
          Alcotest.test_case "one shared table per formula and domain" `Quick
            test_shared_per_formula;
          Alcotest.test_case "Too_large keeps a usable table" `Quick
            test_too_large_keeps_table;
        ]
        @ qcheck [ qcheck_lazy_vs_progression; qcheck_eager_vs_lazy ] );
      ( "il-table",
        [
          Alcotest.test_case "missing-guard diagnostic" `Quick
            test_missing_guard_message;
        ]
        @ qcheck [ qcheck_import_vs_scan; qcheck_il_roundtrip ] );
      ( "engine-api",
        [
          Alcotest.test_case "string round-trips" `Quick test_engine_strings;
          Alcotest.test_case "failed synthesis charged" `Quick
            test_failed_synthesis_charged;
          Alcotest.test_case "_opt accessors" `Quick
            test_checker_opt_accessors;
        ] );
    ]
