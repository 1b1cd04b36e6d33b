(* Tests for the verification-session layer: both approaches must yield
   identical per-property verdicts on the same software, trace events must
   round-trip through JSONL, and campaign test-case boundaries must be
   published on the bus. *)

module Session = Verif.Session
module Result = Verif.Result
module Trace = Verif.Trace

let check_verdict = Alcotest.check (Alcotest.testable Verdict.pp Verdict.equal)

(* a small program observable on every backend: raises its initialization
   flag (the approach-1 handshake), counts to 8, then marks completion *)
let source =
  {|
    int flag;
    int x;
    int finished;

    void main(void) {
      int i;
      flag = 1;
      for (i = 0; i < 8; i = i + 1) {
        x = x + 1;
      }
      finished = 1;
    }
  |}

let program_info () = Minic.Typecheck.check (Minic.C_parser.parse source)

let config ?(trace = Trace.null) ~name ~flag () =
  {
    Session.default_config with
    Session.session_name = name;
    propositions =
      [ ("p_done", "finished == 1"); ("p_overflow", "x > 100") ];
    properties =
      [
        ("eventually_done", "F p_done");
        ("never_overflow", "G !p_overflow");
        ("not_yet_done", "G !p_done");
      ];
    bound = Some 100_000;
    flag;
    trace;
  }

let property_names = [ "eventually_done"; "never_overflow"; "not_yet_done" ]

let run_session ?trace ~name ~flag backend =
  let session =
    Session.create ~info:(program_info ())
      (config ?trace ~name ~flag ())
      backend
  in
  Session.boot session;
  Session.run session;
  let result = Session.result session in
  Session.close session;
  result

let test_approaches_agree () =
  let r1 = run_session ~name:"a1" ~flag:(Some "flag") Session.Soc_model in
  let r2 = run_session ~name:"a2" ~flag:None Session.Derived_model in
  Alcotest.(check string) "approach-1 backend name"
    "approach-1 (microprocessor model)" r1.Result.backend;
  Alcotest.(check string) "approach-2 backend name"
    "approach-2 (derived SystemC model)" r2.Result.backend;
  List.iter
    (fun name ->
      check_verdict (name ^ " agrees across approaches")
        (Result.verdict r1 name) (Result.verdict r2 name))
    property_names;
  check_verdict "completion observed" Verdict.True
    (Result.verdict r1 "eventually_done");
  check_verdict "safety violated once done" Verdict.False
    (Result.verdict r1 "not_yet_done");
  check_verdict "overflow guard stays pending" Verdict.Pending
    (Result.verdict r1 "never_overflow");
  Alcotest.(check bool) "approach-1 triggered" true (r1.Result.triggers > 0);
  Alcotest.(check bool) "approach-2 triggered" true (r2.Result.triggers > 0);
  (* final verdicts are stamped in backend time units *)
  Alcotest.(check bool) "first-final time recorded" true
    (Result.first_final_at r1 "eventually_done" <> None
    && Result.first_final_at r2 "eventually_done" <> None);
  Alcotest.(check (option int)) "non-final property has no stamp" None
    (Result.first_final_at r2 "never_overflow")

let test_reference_backend_agrees () =
  let r0 = run_session ~name:"ref" ~flag:None Session.Reference in
  Alcotest.(check string) "backend name" "reference interpreter"
    r0.Result.backend;
  check_verdict "completion observed" Verdict.True
    (Result.verdict r0 "eventually_done");
  check_verdict "safety violated once done" Verdict.False
    (Result.verdict r0 "not_yet_done")

let kind_is_handshake e =
  match e.Trace.kind with Trace.Handshake_armed _ -> true | _ -> false

let kind_is_verdict_change e =
  match e.Trace.kind with Trace.Verdict_change _ -> true | _ -> false

let test_trace_events_and_roundtrip () =
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  let _result =
    run_session ~trace:bus ~name:"traced" ~flag:None Session.Derived_model
  in
  let events = events () in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  Alcotest.(check bool) "handshake armed published" true
    (List.exists kind_is_handshake events);
  Alcotest.(check bool) "verdict change published" true
    (List.exists kind_is_verdict_change events);
  Alcotest.(check bool) "trigger counter" true (Trace.triggers bus > 0);
  Alcotest.(check bool) "sample counter" true (Trace.samples bus > 0);
  (* every event survives the JSONL round trip *)
  List.iter
    (fun event ->
      match Trace.event_of_json (Trace.event_to_json event) with
      | Ok parsed ->
        Alcotest.(check bool) "round trip identical" true (parsed = event)
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    events

let test_campaign_trace_events () =
  let bus = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach bus sink;
  let session =
    Eee.Harness.approach2 ~fault_rate:0.0 ~seed:11 ~chunk_statements:50
      ~trace:bus ()
  in
  Eee.Driver.install_spec session [ Eee.Eee_spec.Read ];
  let config =
    { Eee.Driver.default_config with test_cases = 5; seed = 5;
      watchdog_chunks = 400 }
  in
  let outcome = Eee.Driver.run_campaign session config Eee.Eee_spec.Read in
  Alcotest.(check int) "all cases completed" 5
    (Result.completed_cases outcome);
  let count pred = List.length (List.filter pred (events ())) in
  Alcotest.(check int) "one begin event per measured case" 5
    (count (fun e ->
         match e.Trace.kind with Trace.Test_case_begin _ -> true | _ -> false));
  Alcotest.(check int) "one end event per measured case" 5
    (count (fun e ->
         match e.Trace.kind with Trace.Test_case_end _ -> true | _ -> false));
  Alcotest.(check int) "no watchdog fired" 0
    (count (fun e ->
         match e.Trace.kind with Trace.Watchdog_fired _ -> true | _ -> false))

(* A bus with no sinks only counts: the same EEE session run on a
   sinkless bus and on a memory-sink bus must report the same counters
   and the same result, and the sinkless bus must never read its clock. *)
let eee_read_session trace =
  let session =
    Eee.Harness.approach2 ~fault_rate:0.01 ~seed:11 ~chunk_statements:50
      ~trace ()
  in
  Eee.Driver.install_spec session [ Eee.Eee_spec.Read ];
  let config =
    { Eee.Driver.default_config with test_cases = 5; seed = 5;
      watchdog_chunks = 400 }
  in
  Eee.Driver.run_campaign session config Eee.Eee_spec.Read

(* every field but the wall-clock timings *)
let result_fields (r : Result.t) =
  ( r.Result.backend,
    List.map
      (fun (p : Result.property) ->
        (p.Result.property, Verdict.to_string p.Result.verdict,
         p.Result.first_final_at))
      r.Result.properties,
    (r.Result.triggers, r.Result.time_units, r.Result.test_cases,
     r.Result.timeouts, r.Result.trace_events),
    (Result.coverage_percent r, Result.missing_returns r) )

let test_sinkless_bus_only_counts () =
  let counted = Trace.create () in
  let counted_result = eee_read_session counted in
  let buffered = Trace.create () in
  let sink, events = Trace.memory_sink () in
  Trace.attach buffered sink;
  let buffered_result = eee_read_session buffered in
  Alcotest.(check bool) "the session published events" true
    (Trace.events buffered > 0);
  Alcotest.(check int) "events == buffered event count"
    (List.length (events ())) (Trace.events buffered);
  Alcotest.(check (list int)) "same events, triggers and samples"
    [ Trace.events buffered; Trace.triggers buffered; Trace.samples buffered ]
    [ Trace.events counted; Trace.triggers counted; Trace.samples counted ];
  Alcotest.(check bool) "same result fields" true
    (result_fields buffered_result = result_fields counted_result);
  let reads = ref 0 in
  let bus = Trace.create () in
  Trace.set_time_source bus (fun () -> incr reads; 0);
  Trace.emit bus Trace.Trigger;
  Trace.emit bus (Trace.Sample { prop = "p"; value = true });
  Alcotest.(check int) "the sinkless bus never reads its clock" 0 !reads;
  Alcotest.(check (list int)) "but counts every event" [ 2; 1; 1 ]
    [ Trace.events bus; Trace.triggers bus; Trace.samples bus ]

(* Textual propositions ([--prop name=expr]) compile once over the
   session's pre-resolved global readers: a checked trigger allocates at
   most one minor word — the figure [tcheck verify --approach 2
   --metrics] prints per trigger checked — and an unknown or array
   global still fails when it is first sampled, with the backend's own
   exception. *)
let loop_source =
  {|
    int a;
    int b;
    int big[4];

    void main(void) {
      int i;
      for (i = 0; i < 20000; i = i + 1) {
        a = a + 1;
        b = a - i;
      }
    }
  |}

let loop_session ?(metrics = Obs.Registry.null) propositions =
  let session =
    Session.create
      ~info:(Minic.Typecheck.check (Minic.C_parser.parse loop_source))
      {
        Session.default_config with
        Session.session_name = "loop";
        propositions;
        properties =
          List.map (fun (name, _) -> ("holds_" ^ name, "G " ^ name))
            propositions;
        metrics;
      }
      Session.Derived_model
  in
  Session.boot session;
  Session.run session;
  session

let test_textual_propositions () =
  let metrics = Obs.Registry.create () in
  let session =
    loop_session ~metrics
      [ ("p_count", "a >= 0 && b >= 0"); ("p_step", "b <= 1") ]
  in
  let result = Session.result session in
  List.iter
    (fun (p : Result.property) ->
      check_verdict p.Result.property Verdict.Pending p.Result.verdict)
    result.Result.properties;
  let total = Obs.Registry.total metrics in
  let triggers = total "sctc_triggers_total" in
  let words = total (Obs.Registry.stage_words_name Obs.Registry.Check) in
  Alcotest.(check bool) "the loop was checked" true (triggers > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 minor word per trigger (%d words, %d triggers)"
       words triggers)
    true
    (float_of_int words /. float_of_int triggers <= 1.0);
  let fails text =
    match loop_session [ ("p_bad", text) ] with
    | _ -> "no exception"
    | exception exn -> Printexc.to_string exn
  in
  Alcotest.(check string) "unknown global"
    {|Invalid_argument("Vm.read_global: unknown nosuch")|}
    (fails "nosuch == 1");
  Alcotest.(check string) "array global"
    {|Invalid_argument("Vm.read_global: array big")|} (fails "big == 1");
  Alcotest.(check string) "impure expression"
    {|Failure("propositions must be pure expressions over globals")|}
    (fails "big[0] == 1")

let suite =
  [
    Alcotest.test_case "approaches agree" `Quick test_approaches_agree;
    Alcotest.test_case "reference backend agrees" `Quick
      test_reference_backend_agrees;
    Alcotest.test_case "trace events and JSONL round trip" `Quick
      test_trace_events_and_roundtrip;
    Alcotest.test_case "campaign trace events" `Quick
      test_campaign_trace_events;
    Alcotest.test_case "sinkless bus only counts" `Quick
      test_sinkless_bus_only_counts;
    Alcotest.test_case "textual propositions compile once" `Quick
      test_textual_propositions;
  ]

let () = Alcotest.run "engine" [ ("session", suite) ]
