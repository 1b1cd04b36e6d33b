(* Tests for the SCTC core: checker lifecycle, engines, violation callbacks,
   coverage collection, report rendering, and simulation triggers. *)

module Checker = Sctc.Checker
module Coverage = Sctc.Coverage
module Report = Sctc.Report
module Trace = Sctc.Trace
module Trigger = Sctc.Trigger
module Kernel = Sim.Kernel
module Clock = Sim.Clock

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

(* --- checker basics ------------------------------------------------------ *)

let scripted_checker ?engine () =
  let a = ref false and b = ref false in
  let checker = Checker.create ~name:"test" () in
  Checker.register_sampler checker "a" (fun () -> !a);
  Checker.register_sampler checker "b" (fun () -> !b);
  Checker.add_property_text ?engine checker ~name:"resp" "G (a -> F[2] b)";
  (checker, a, b)

let test_checker_basic_run () =
  let checker, a, b = scripted_checker () in
  Checker.step checker;
  check_verdict "pending initially" Verdict.Pending
    (Checker.verdict checker "resp");
  a := true;
  Checker.step checker;
  a := false;
  Checker.step checker;
  b := true;
  Checker.step checker;
  check_verdict "request answered, still guarding" Verdict.Pending
    (Checker.verdict checker "resp");
  Alcotest.(check int) "steps counted" 4 (Checker.steps checker)

let test_checker_violation_callback () =
  let checker, a, _b = scripted_checker () in
  let fired = ref [] in
  Checker.on_violation checker (fun name step -> fired := (name, step) :: !fired);
  a := true;
  Checker.step checker;
  (* trigger request *)
  a := false;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  (* F[2] window (steps 1..3) expired without b *)
  check_verdict "violated" Verdict.False (Checker.verdict checker "resp");
  Alcotest.(check (list (pair string int))) "fired exactly once at step 3"
    [ ("resp", 3) ] !fired;
  Checker.step checker;
  Alcotest.(check int) "no refire" 1 (List.length !fired)

let test_checker_engines_agree () =
  let run engine =
    let checker, a, b = scripted_checker ~engine () in
    let script =
      [ (false, false); (true, false); (false, false); (false, true);
        (true, false); (false, false); (false, false); (false, false) ]
    in
    List.map
      (fun (va, vb) ->
        a := va;
        b := vb;
        Checker.step checker;
        Checker.verdict checker "resp")
      script
  in
  let otf = run Checker.Otf in
  List.iter
    (fun engine ->
      let label = Sctc.Engine.to_string engine in
      List.iteri
        (fun i (v1, v2) ->
          check_verdict (Printf.sprintf "%s step %d" label i) v1 v2)
        (List.combine otf (run engine)))
    (List.filter (fun e -> e <> Sctc.Engine.Otf) Sctc.Engine.all)

let test_checker_unknown_prop_rejected () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  match
    Checker.add_property_text checker ~name:"p" "G (a -> F missing)"
  with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions proposition" true
      (String.length msg > 0)

let test_checker_duplicate_property () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Checker.add_property_text checker ~name:"p" "G a";
  match Checker.add_property_text checker ~name:"p" "F a" with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_checker_psl_syntax () =
  let checker = Checker.create ~name:"t" () in
  let ok = ref true in
  Checker.register_sampler checker "ok" (fun () -> !ok);
  Checker.add_property_text ~syntax:`Psl checker ~name:"inv"
    "always ok";
  Checker.step checker;
  check_verdict "pending" Verdict.Pending (Checker.verdict checker "inv");
  ok := false;
  Checker.step checker;
  check_verdict "violated" Verdict.False (Checker.verdict checker "inv")

let test_checker_overall_and_finalize () =
  let checker = Checker.create ~name:"t" () in
  let a = ref true in
  Checker.register_sampler checker "a" (fun () -> !a);
  Checker.add_property_text checker ~name:"safety" "G a";
  Checker.add_property_text checker ~name:"liveness" "F !a";
  Checker.step checker;
  check_verdict "overall pending" Verdict.Pending (Checker.overall checker);
  let final = Checker.finalize ~strong:true checker in
  check_verdict "safety true under strong close" Verdict.True
    (List.assoc "safety" final);
  check_verdict "liveness false under strong close" Verdict.False
    (List.assoc "liveness" final)

let test_checker_reset () =
  let checker, a, _b = scripted_checker () in
  a := true;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  Checker.step checker;
  check_verdict "violated before reset" Verdict.False
    (Checker.verdict checker "resp");
  Checker.reset checker;
  Alcotest.(check int) "steps zeroed" 0 (Checker.steps checker);
  check_verdict "pending after reset" Verdict.Pending
    (Checker.verdict checker "resp")

let test_synthesis_time_accounted () =
  let checker = Checker.create ~name:"t" () in
  Checker.register_sampler checker "a" (fun () -> true);
  Alcotest.(check (float 0.0)) "zero before" 0.0
    (Checker.synthesis_seconds checker);
  (* a bound no other test synthesizes, so this add is a cache miss *)
  Checker.add_property_text ~engine:Checker.Explicit checker ~name:"p"
    "F[2017] a";
  Alcotest.(check bool) "positive after explicit synthesis" true
    (Checker.synthesis_seconds checker > 0.0);
  (* the same property on a fresh checker is served by the per-domain
     automaton cache: no new synthesis time is charged *)
  let cached = Checker.create ~name:"t2" () in
  Checker.register_sampler cached "a" (fun () -> true);
  Checker.add_property_text ~engine:Checker.Explicit cached ~name:"p"
    "F[2017] a";
  Alcotest.(check (float 0.0)) "cache hit charges no synthesis time" 0.0
    (Checker.synthesis_seconds cached)

(* --- coverage ------------------------------------------------------------- *)

let test_coverage_basic () =
  let cov = Coverage.create ~name:"read" ~expected:[ "OK"; "BUSY"; "ERR" ] in
  Alcotest.(check (float 0.01)) "empty" 0.0 (Coverage.percent cov);
  Coverage.observe cov "OK";
  Coverage.observe cov "OK";
  Coverage.observe cov "BUSY";
  Alcotest.(check (float 0.01)) "two thirds" 66.67 (Coverage.percent cov);
  Alcotest.(check (list string)) "missing" [ "ERR" ] (Coverage.missing cov);
  Alcotest.(check int) "observations" 3 (Coverage.observations cov);
  Coverage.observe cov "WAT";
  Alcotest.(check (list string)) "unexpected" [ "WAT" ] (Coverage.unexpected cov);
  Coverage.observe cov "ERR";
  Alcotest.(check (float 0.01)) "full" 100.0 (Coverage.percent cov)

let test_coverage_merge_and_reset () =
  let mk () = Coverage.create ~name:"op" ~expected:[ "A"; "B" ] in
  let c1 = mk () and c2 = mk () in
  Coverage.observe c1 "A";
  Coverage.observe c2 "B";
  let merged = Coverage.merge c1 c2 in
  Alcotest.(check (float 0.01)) "merged full" 100.0 (Coverage.percent merged);
  Coverage.reset c1;
  Alcotest.(check (float 0.01)) "reset empty" 0.0 (Coverage.percent c1);
  let other = Coverage.create ~name:"other" ~expected:[ "A" ] in
  match Coverage.merge c1 other with
  | _ -> Alcotest.fail "expected incompatible merge to fail"
  | exception Invalid_argument _ -> ()

(* --- report ---------------------------------------------------------------- *)

let test_report_rendering () =
  let rows =
    [
      Report.row ~test_cases:100 ~coverage_pct:87.5 "Read" 1.25 "pass";
      Report.row "Write" 0.5 "Exception";
    ]
  in
  let text =
    Report.to_string ~title:"demo"
      ~columns:[ "V.T.(s)"; "T.C."; "C.(%)"; "Result" ]
      rows
  in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec search i = i + nl <= hl && (String.sub haystack i nl = needle || search (i + 1)) in
    search 0
  in
  Alcotest.(check bool) "title" true (contains "demo" text);
  Alcotest.(check bool) "row name" true (contains "Read" text);
  Alcotest.(check bool) "coverage" true (contains "87.5" text);
  Alcotest.(check bool) "dash for missing" true (contains "-" text);
  let csv = Report.csv rows in
  let csv_lines = String.split_on_char '\n' csv in
  Alcotest.(check int) "csv is header plus both rows" 3
    (List.length csv_lines);
  Alcotest.(check string) "csv header"
    "name,vt_seconds,test_cases,coverage_pct,result" (List.hd csv_lines)

let test_report_csv_quoting () =
  (* RFC 4180: fields holding commas or quotes are quoted, embedded quotes
     doubled; plain fields stay bare *)
  let csv = Report.csv [ Report.row "Read,\"raw\"" 1.0 "ok" ] in
  match String.split_on_char '\n' csv with
  | [ _header; data ] ->
    Alcotest.(check string) "quoted row" "\"Read,\"\"raw\"\"\",1.000000,,,ok"
      data
  | _ -> Alcotest.fail "expected exactly header and one data line"

let test_report_jsonl () =
  let rows =
    [
      Report.row ~test_cases:100 ~coverage_pct:87.5 "Read" 1.25 "pass";
      Report.row "Write" 0.5 "Exception";
    ]
  in
  let lines = String.split_on_char '\n' (Report.jsonl rows) in
  Alcotest.(check int) "one object per row" 2 (List.length lines);
  Alcotest.(check string) "row with all columns"
    {|{"name":"Read","vt_seconds":1.250000,"test_cases":100,"coverage_pct":87.5,"result":"pass"}|}
    (List.hd lines);
  Alcotest.(check string) "missing columns are null"
    {|{"name":"Write","vt_seconds":0.500000,"test_cases":null,"coverage_pct":null,"result":"Exception"}|}
    (List.nth lines 1)

(* --- sim triggers ----------------------------------------------------------- *)

let test_trigger_on_clock () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let level = ref 0 in
  let checker = Checker.create ~name:"clocked" () in
  Checker.register_sampler checker "high" (fun () -> !level > 3);
  Checker.add_property_text checker ~name:"even" "F high";
  ignore (Trigger.on_clock kernel clock checker);
  ignore
    (Kernel.spawn kernel ~name:"stim" (fun () ->
         let rec loop () =
           Clock.wait_posedge clock;
           incr level;
           loop ()
         in
         loop ()));
  Kernel.run ~max_time:100 kernel;
  Alcotest.(check bool) "checker stepped once per edge" true
    (Checker.steps checker >= 9);
  check_verdict "liveness seen" Verdict.True (Checker.verdict checker "even")

let test_trigger_handshake () =
  (* on_event_when must not arm properties before the flag turns true; the
     property G initialized would otherwise fail on the first cycles. *)
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let initialized = ref false in
  let checker = Checker.create ~name:"hs" () in
  Checker.register_sampler checker "initialized" (fun () -> !initialized);
  Checker.add_property_text checker ~name:"init-stays" "G initialized";
  ignore
    (Trigger.on_event_when kernel (Clock.posedge clock)
       ~ready:(fun () -> !initialized)
       checker);
  ignore
    (Kernel.spawn kernel ~name:"boot" (fun () ->
         Kernel.wait_for kernel 35;
         initialized := true));
  Kernel.run ~max_time:100 kernel;
  check_verdict "no spurious violation" Verdict.Pending
    (Checker.verdict checker "init-stays");
  Alcotest.(check bool) "stepped after handshake only" true
    (Checker.steps checker < 8 && Checker.steps checker > 0)

let test_trigger_handshake_arms_once () =
  (* triggers consumed while ready() is still false must not step the
     checker, and the bus must see exactly one Handshake_armed event *)
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let trace = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach trace sink;
  let initialized = ref false in
  let checker = Checker.create ~trace ~name:"hs2" () in
  Checker.register_sampler checker "initialized" (fun () -> !initialized);
  Checker.add_property_text checker ~name:"init-stays" "G initialized";
  ignore
    (Trigger.on_event_when kernel (Clock.posedge clock)
       ~ready:(fun () -> !initialized)
       checker);
  ignore
    (Kernel.spawn kernel ~name:"boot" (fun () ->
         Kernel.wait_for kernel 35;
         initialized := true));
  Kernel.run ~max_time:200 kernel;
  let count pred = List.length (List.filter pred (events ())) in
  Alcotest.(check int) "armed exactly once" 1
    (count (fun e ->
         match e.Trace.kind with Trace.Handshake_armed _ -> true | _ -> false));
  let triggers =
    count (fun e -> match e.Trace.kind with Trace.Trigger -> true | _ -> false)
  in
  Alcotest.(check bool) "steps only after the handshake" true (triggers > 0);
  Alcotest.(check int) "every published trigger stepped the checker" triggers
    (Checker.steps checker);
  (* the clock edges at t = 10, 20, 30 precede the handshake: they are
     consumed without stepping, so strictly fewer steps than edges *)
  Alcotest.(check bool) "pre-handshake edges consumed silently" true
    (triggers <= (200 / 10) - 3)

let suite_checker =
  [
    Alcotest.test_case "basic run" `Quick test_checker_basic_run;
    Alcotest.test_case "violation callback" `Quick
      test_checker_violation_callback;
    Alcotest.test_case "engines agree" `Quick test_checker_engines_agree;
    Alcotest.test_case "unknown proposition rejected" `Quick
      test_checker_unknown_prop_rejected;
    Alcotest.test_case "duplicate property rejected" `Quick
      test_checker_duplicate_property;
    Alcotest.test_case "psl syntax" `Quick test_checker_psl_syntax;
    Alcotest.test_case "overall and finalize" `Quick
      test_checker_overall_and_finalize;
    Alcotest.test_case "reset" `Quick test_checker_reset;
    Alcotest.test_case "synthesis time accounted" `Quick
      test_synthesis_time_accounted;
  ]

let suite_coverage =
  [
    Alcotest.test_case "basic" `Quick test_coverage_basic;
    Alcotest.test_case "merge and reset" `Quick test_coverage_merge_and_reset;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "csv quoting" `Quick test_report_csv_quoting;
    Alcotest.test_case "jsonl report" `Quick test_report_jsonl;
  ]

let suite_trigger =
  [
    Alcotest.test_case "on clock" `Quick test_trigger_on_clock;
    Alcotest.test_case "handshake gating" `Quick test_trigger_handshake;
    Alcotest.test_case "handshake arms exactly once" `Quick
      test_trigger_handshake_arms_once;
  ]

let () =
  Alcotest.run "sctc"
    [
      ("checker", suite_checker);
      ("coverage", suite_coverage);
      ("trigger", suite_trigger);
    ]
