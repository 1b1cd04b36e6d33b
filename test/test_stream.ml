(* The campaign-engine safety net. Verif.Campaign.run_stream must be
   observationally identical to a sequential List.map oracle defined
   below (each job on a private in-memory bus, no pool, no reassembly):
   same verdict vectors, same per-job errors, same merged counters, and
   a JSONL sink must receive exactly the bytes of the oracle's to_jsonl
   — for any worker count, chunk size and reassembly window, including
   windows far smaller than the job count. On top of identity, the
   engine's own contracts are pinned here: strictly ordered emission with campaign-global seq,
   crash and sink-failure containment, a backpressure window that
   actually bounds parked outcomes (asserted against a stalled job),
   sharded output whose in-order concatenation reproduces the merged
   stream byte for byte against the checked-in goldens, and a soak run
   (TCHECK_SOAK=1) showing live memory stays bounded where the
   collecting Campaign.run's accumulation grows with the campaign. *)

module Campaign = Verif.Campaign
module Session = Verif.Session
module Trace = Verif.Trace
module Registry = Obs.Registry
module Harness = Eee.Harness

(* ---- the cheap deterministic job mix (see test_campaign.ml) ------------ *)

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

let program_info = lazy (Minic.Typecheck.check (Minic.C_parser.parse source))

let session_job ~label ~backend ~properties =
  Campaign.job ~label (fun trace ->
      let config =
        {
          Session.default_config with
          Session.session_name = label;
          propositions =
            [ ("p_done", "finished == 1"); ("p_overflow", "x > 100") ];
          properties;
          bound = Some 100_000;
          flag = (match backend with Session.Soc_model -> Some "flag" | _ -> None);
          trace;
        }
      in
      let session =
        Session.create ~info:(Lazy.force program_info) config backend
      in
      Session.boot session;
      Session.run session;
      Session.result session)

(* job variants the generator draws from; Soc is the expensive one, so
   completion order under a pool differs from job order, and the crasher
   exercises error outcomes flowing through the reassembly buffer *)
let variant_count = 5

let job_of_variant index variant =
  let label kind = Printf.sprintf "%s-%d" kind index in
  match variant mod variant_count with
  | 0 ->
    session_job ~label:(label "ref") ~backend:Session.Reference
      ~properties:[ ("eventually_done", "F p_done") ]
  | 1 ->
    session_job ~label:(label "soc") ~backend:Session.Soc_model
      ~properties:
        [ ("never_overflow", "G !p_overflow"); ("not_yet_done", "G !p_done") ]
  | 2 ->
    session_job ~label:(label "esw") ~backend:Session.Derived_model
      ~properties:[ ("eventually_done", "F p_done") ]
  | 3 ->
    session_job ~label:(label "bounded") ~backend:Session.Derived_model
      ~properties:[ ("done_quickly", "F[500] p_done") ]
  | _ ->
    Campaign.job ~label:(label "crash") (fun _trace -> failwith "boom")

let make_jobs variants = List.mapi job_of_variant variants

let fixed_mix = [ 0; 1; 2; 3; 4; 0 ]

let counters summary =
  [
    Campaign.total_triggers summary;
    Campaign.total_time_units summary;
    Campaign.total_test_cases summary;
    Campaign.total_timeouts summary;
  ]

let verdict_strings summary =
  List.map
    (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
    (Campaign.verdicts summary)

(* ---- the oracle: a sequential List.map, no pool, no reassembly --------- *)

(* Each job runs on a private bus buffering its events in memory, its
   exception caught into the outcome, and the outcomes are assembled into
   a summary by hand — so verdicts, errors, the merged counters and
   to_jsonl (which renumbers the job-local seq) apply to it unchanged.
   It never calls Campaign.run or Campaign.run_stream. *)
let oracle jobs =
  let outcome index (job : Campaign.job) =
    let bus = Trace.create () in
    let sink, buffered = Trace.memory_sink () in
    Trace.attach bus sink;
    let result =
      match job.Campaign.run bus with
      | result -> Ok result
      | exception exn -> Error (Printexc.to_string exn)
    in
    Trace.close bus;
    { Campaign.index; label = job.Campaign.label; result;
      events = buffered () }
  in
  {
    Campaign.outcomes = List.mapi outcome jobs;
    workers = 1;
    wall_seconds = 0.0;
    queue = { Campaign.chunk = 1; acquisitions = 0; contention = 0 };
    stream = None;
  }

let crashes variants = List.length (List.filter (fun v -> v mod variant_count = 4) variants)

(* run the oracle and the engine on the same job list and check every
   observable matches; returns the stream summary for engine-specific
   assertions on top *)
let check_identical ?(label = "") ~workers ?chunk ?window variants =
  let tag suffix =
    Printf.sprintf "%sworkers=%d window=%s: %s" label workers
      (match window with Some w -> string_of_int w | None -> "default")
      suffix
  in
  let oracle = oracle (make_jobs variants) in
  let metrics = Registry.create () in
  let buffer = Buffer.create 4096 in
  let stream =
    Campaign.run_stream ~metrics ~workers ?chunk ?window
      ~sinks:[ Campaign.jsonl_buffer_sink buffer ]
      (make_jobs variants)
  in
  let n = List.length variants in
  Alcotest.(check (list (triple string string string)))
    (tag "identical verdict vectors")
    (verdict_strings oracle) (verdict_strings stream);
  Alcotest.(check (list (pair string string)))
    (tag "identical job errors")
    (Campaign.errors oracle) (Campaign.errors stream);
  Alcotest.(check (list int))
    (tag "identical merged counters")
    (counters oracle) (counters stream);
  Alcotest.(check string)
    (tag "sink bytes == oracle to_jsonl")
    (Campaign.to_jsonl oracle) (Buffer.contents buffer);
  Alcotest.(check int)
    (tag "summary retains no events")
    0
    (List.length (Campaign.events stream));
  (match stream.Campaign.stream with
  | None -> Alcotest.fail (tag "stream stats missing")
  | Some stats ->
    Alcotest.(check int) (tag "every outcome emitted") n
      stats.Campaign.emitted;
    Alcotest.(check bool) (tag "peak within the window") true
      (stats.Campaign.peak_window <= stats.Campaign.window));
  Alcotest.(check int)
    (tag "campaign_jobs_total")
    n
    (Registry.total metrics "campaign_jobs_total");
  Alcotest.(check int)
    (tag "campaign_stream_emitted_total")
    n
    (Registry.total metrics "campaign_stream_emitted_total");
  Alcotest.(check int)
    (tag "campaign_job_errors_total")
    (crashes variants)
    (Registry.total metrics "campaign_job_errors_total");
  stream

(* ---- fixed differential across the acceptance worker counts ------------ *)

let test_stream_matches_oracle () =
  List.iter
    (fun workers -> ignore (check_identical ~workers fixed_mix))
    [ 1; 2; 4; 7 ]

(* a window of 1 — maximum backpressure — must change scheduling only *)
let test_tiny_window_identity () =
  List.iter
    (fun workers ->
      ignore (check_identical ~workers ~chunk:1 ~window:1 fixed_mix))
    [ 2; 4; 7 ]

(* ---- QCheck: random mixes x pools x windows ----------------------------- *)

let qcheck_differential =
  QCheck.Test.make ~count:25
    ~name:"random job mix: stream == seed (verdicts, errors, bytes, obs)"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 10) (int_bound (variant_count - 1)))
        (int_bound 3) (int_bound 7))
    (fun (variants, workers_pick, window_pick) ->
      let workers = [| 1; 2; 4; 7 |].(workers_pick) in
      let window = 1 + window_pick in
      ignore
        (check_identical
           ~label:(Printf.sprintf "mix=%s "
                     (String.concat ""
                        (List.map string_of_int variants)))
           ~workers ~window variants);
      true)

(* ---- emission order and campaign-global seq ----------------------------- *)

let test_ordered_emission_and_seq () =
  let indices = ref [] in
  let seqs = ref [] in
  let recorder =
    Campaign.sink (fun outcome ->
        indices := outcome.Campaign.index :: !indices;
        List.iter
          (fun event -> seqs := event.Trace.seq :: !seqs)
          outcome.Campaign.events)
  in
  let summary =
    Campaign.run_stream ~workers:4 ~chunk:1 ~window:2 ~sinks:[ recorder ]
      (make_jobs fixed_mix)
  in
  let n = List.length fixed_mix in
  Alcotest.(check (list int)) "sinks see ascending job indices"
    (List.init n Fun.id) (List.rev !indices);
  let seqs = List.rev !seqs in
  Alcotest.(check bool) "stream carries events" true (List.length seqs > 0);
  List.iteri
    (fun expected seq ->
      if seq <> expected then
        Alcotest.failf "campaign-global seq: expected %d, got %d" expected seq)
    seqs;
  Alcotest.(check (list string)) "summary outcomes still in job order"
    (List.map (fun (j : Campaign.job) -> j.Campaign.label) (make_jobs fixed_mix))
    (List.map (fun o -> o.Campaign.label) summary.Campaign.outcomes)

(* ---- containment --------------------------------------------------------- *)

let test_crash_outcomes_flow_to_sinks () =
  let variants = [ 4; 0; 4; 0; 4 ] in
  let delivered = ref 0 in
  let errors_seen = ref 0 in
  let recorder =
    Campaign.sink (fun outcome ->
        incr delivered;
        match outcome.Campaign.result with
        | Error _ -> incr errors_seen
        | Ok _ -> ())
  in
  let summary =
    Campaign.run_stream ~workers:3 ~sinks:[ recorder ] (make_jobs variants)
  in
  Alcotest.(check int) "every outcome delivered, crashed or not" 5 !delivered;
  Alcotest.(check int) "crash outcomes flow through the stream" 3 !errors_seen;
  Alcotest.(check (list string)) "errors surface in job order"
    [ "crash-0"; "crash-2"; "crash-4" ]
    (List.map fst (Campaign.errors summary))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* a raising sink must not poison the pool: the campaign still runs every
   job, sink emission stops, and the failure resurfaces as a Failure once
   the campaign completes (workers=1 keeps the cut-off deterministic) *)
let test_sink_failure_contained () =
  let recorded = ref [] in
  let recorder =
    Campaign.sink (fun o -> recorded := o.Campaign.index :: !recorded)
  in
  let bomb =
    Campaign.sink (fun o ->
        if o.Campaign.index = 1 then failwith "sink bomb")
  in
  (match
     Campaign.run_stream ~workers:1 ~sinks:[ recorder; bomb ]
       (make_jobs [ 0; 0; 0; 0 ])
   with
  | _summary -> Alcotest.fail "sink failure must resurface as Failure"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "failure names the sink: %s" msg)
      true
      (contains ~needle:"sink failed" msg && contains ~needle:"sink bomb" msg));
  Alcotest.(check (list int))
    "emission stops at the failing outcome, earlier sinks included"
    [ 0; 1 ]
    (List.rev !recorded)

(* ---- backpressure: the window really bounds the buffer ------------------ *)

(* Job 0 stalls until some other worker's deposit has blocked on a full
   window (the wait counter is incremented before the Condition.wait, so
   spinning on the metric observes exactly that state). With chunk=1 and
   2 workers, the non-stalled worker finishes jobs 1..3 — filling the
   window — and then blocks depositing job 4; only then does job 0
   release and the frontier drain everything. Deterministic, not timing
   dependent: peak_window must equal the configured window and at least
   one backpressure wait must be recorded. *)
let test_backpressure_caps_window () =
  let window = 3 in
  let metrics = Registry.create () in
  let waits () = Registry.total metrics "campaign_backpressure_waits_total" in
  let stall _trace =
    let fuel = ref 2_000_000_000 in
    while waits () = 0 && !fuel > 0 do
      decr fuel;
      Domain.cpu_relax ()
    done;
    failwith "stall done"
  in
  let jobs =
    Campaign.job ~label:"stall" stall
    :: List.init 7 (fun i ->
           Campaign.job ~label:(Printf.sprintf "quick-%d" (i + 1))
             (fun _trace -> failwith "quick"))
  in
  let summary =
    Campaign.run_stream ~metrics ~workers:2 ~chunk:1 ~window jobs
  in
  (match summary.Campaign.stream with
  | None -> Alcotest.fail "stream stats missing"
  | Some stats ->
    Alcotest.(check int) "window recorded" window stats.Campaign.window;
    Alcotest.(check int) "stalled job caps the buffer at the window" window
      stats.Campaign.peak_window;
    Alcotest.(check bool) "deposits blocked on the full window" true
      (stats.Campaign.backpressure_waits >= 1);
    Alcotest.(check bool) "wait time is non-negative" true
      (stats.Campaign.backpressure_seconds >= 0.);
    Alcotest.(check int) "all outcomes emitted" 8 stats.Campaign.emitted);
  Alcotest.(check bool) "metric agrees with the summary" true (waits () >= 1);
  Alcotest.(check (float 0.))
    "stream-window gauge drains back to zero" 0.
    (Registry.Gauge.value (Registry.gauge metrics "campaign_stream_window"));
  Alcotest.(check int) "all 8 jobs crashed as scripted" 8
    (List.length (Campaign.errors summary))

(* ---- cancellation -------------------------------------------------------- *)

(* Early stop is contained: a sink cancels after the third emission
   while every still-running job spins until it observes the token, so
   the test deadlocks (and times out) if cancellation failed to reach
   the workers. The executed set must be a contiguous prefix (no
   emitted outcome dropped, none out of order), the parked-outcome
   gauge must drain to zero, and cancelled_jobs must account for
   exactly the jobs never started. Bounds on the prefix length: jobs
   0..2 always run (three emissions are needed to trigger the cancel),
   and at most one in-flight job per worker rides past it. *)
let test_cancel_stops_workers_and_keeps_prefix () =
  let total = 24 and workers = 4 in
  let metrics = Registry.create () in
  let cancel = Campaign.cancellation () in
  let emitted_indices = ref [] in
  let decider =
    Campaign.sink (fun outcome ->
        emitted_indices := outcome.Campaign.index :: !emitted_indices;
        if List.length !emitted_indices = 3 then Campaign.cancel cancel)
  in
  let jobs =
    List.init total (fun i ->
        Campaign.job ~label:(Printf.sprintf "cancel-%d" i) (fun _trace ->
            if i >= 3 then begin
              let fuel = ref 2_000_000_000 in
              while (not (Campaign.cancelled cancel)) && !fuel > 0 do
                decr fuel;
                Domain.cpu_relax ()
              done
            end;
            failwith "scripted"))
  in
  let summary =
    Campaign.run_stream ~metrics ~workers ~chunk:1 ~window:4 ~cancel
      ~sinks:[ decider ] jobs
  in
  let emitted = List.rev !emitted_indices in
  let executed = List.length emitted in
  Alcotest.(check bool)
    (Printf.sprintf "executed prefix within bounds (%d)" executed)
    true
    (executed >= 3 && executed <= 3 + workers);
  Alcotest.(check (list int)) "emitted outcomes form a contiguous prefix"
    (List.init executed Fun.id) emitted;
  Alcotest.(check int) "summary covers exactly the executed prefix" executed
    (List.length summary.Campaign.outcomes);
  Alcotest.(check int) "every executed job crashed as scripted" executed
    (List.length (Campaign.errors summary));
  (match summary.Campaign.stream with
  | None -> Alcotest.fail "stream stats missing"
  | Some stats ->
    Alcotest.(check int) "emitted matches the sink" executed
      stats.Campaign.emitted;
    Alcotest.(check int) "cancelled_jobs accounts for the rest"
      (total - executed) stats.Campaign.cancelled_jobs);
  Alcotest.(check (float 0.))
    "stream-window gauge drains back to zero" 0.
    (Registry.Gauge.value (Registry.gauge metrics "campaign_stream_window"));
  Alcotest.(check int) "emission metric agrees" executed
    (Registry.total metrics "campaign_stream_emitted_total")

(* an unused token changes nothing: the campaign runs to completion and
   reports zero cancelled jobs *)
let test_unused_cancel_token_is_inert () =
  let cancel = Campaign.cancellation () in
  let summary =
    Campaign.run_stream ~workers:2 ~cancel (make_jobs fixed_mix)
  in
  match summary.Campaign.stream with
  | None -> Alcotest.fail "stream stats missing"
  | Some stats ->
    Alcotest.(check int) "nothing cancelled" 0 stats.Campaign.cancelled_jobs;
    Alcotest.(check int) "every outcome emitted" (List.length fixed_mix)
      stats.Campaign.emitted

(* the regression this PR fixes: a campaign that is cancelled after a
   sink already failed must still resurface the sink's Failure — the
   executed-prefix invariant check must not mask it with an
   Assert_failure on the shortened outcome list *)
let test_cancelled_run_resurfaces_sink_failure () =
  let cancel = Campaign.cancellation () in
  let bomb =
    Campaign.sink (fun outcome ->
        if outcome.Campaign.index = 0 then failwith "late bomb")
  in
  let jobs =
    List.init 6 (fun i ->
        Campaign.job ~label:(Printf.sprintf "cb-%d" i) (fun _trace ->
            if i = 2 then Campaign.cancel cancel;
            failwith "scripted"))
  in
  match Campaign.run_stream ~workers:1 ~cancel ~sinks:[ bomb ] jobs with
  | _summary ->
    Alcotest.fail "sink failure must resurface despite the cancel"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "failure names the sink, not the cancel: %s" msg)
      true
      (contains ~needle:"sink failed" msg && contains ~needle:"late bomb" msg)

(* ---- sharded output ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_shard_routing () =
  Alcotest.(check string) "extension-aware shard path" "out.000.jsonl"
    (Campaign.shard_path "out.jsonl" ~shard:0);
  Alcotest.(check string) "extensionless shard path" "out.002"
    (Campaign.shard_path "out" ~shard:2);
  let route = Campaign.shard_of_job ~shards:3 ~jobs:4 in
  Alcotest.(check (list int)) "contiguous balanced ranges" [ 0; 0; 1; 2 ]
    (List.map route [ 0; 1; 2; 3 ]);
  (* monotone and in range for a larger mix *)
  let jobs = 17 and shards = 5 in
  let prev = ref 0 in
  for i = 0 to jobs - 1 do
    let s = Campaign.shard_of_job ~shards ~jobs i in
    if s < !prev || s >= shards then
      Alcotest.failf "job %d routed to shard %d after shard %d" i s !prev;
    prev := s
  done;
  Alcotest.(check int) "last job lands in the last shard" (shards - 1)
    (Campaign.shard_of_job ~shards ~jobs (jobs - 1))

let concat_shards path shards =
  String.concat ""
    (List.init shards (fun shard -> read_file (Campaign.shard_path path ~shard)))

let remove_shards path shards =
  List.iter
    (fun shard -> Sys.remove (Campaign.shard_path path ~shard))
    (List.init shards Fun.id)

(* a multi-job EEE campaign over 3 shards: every shard file exists, the
   flush counters ran, and concatenation in shard order reproduces the
   collecting run's merged JSONL byte for byte *)
let test_sharded_concat_identity () =
  let plan =
    {
      Harness.default_plan with
      Harness.ops =
        [ Eee.Eee_spec.Read; Eee.Eee_spec.Write; Eee.Eee_spec.Format;
          Eee.Eee_spec.Prepare ];
      approaches = [ 2 ];
      cases_per_op = 2;
      fault_rate = 0.01;
      seed = 23;
    }
  in
  let collected = Harness.run_campaign ~workers:1 plan in
  Alcotest.(check (list (pair string string))) "no job errors" []
    (Campaign.errors collected);
  let shards = 3 in
  let jobs = List.length (Harness.campaign_jobs plan) in
  Alcotest.(check int) "four jobs in the plan" 4 jobs;
  let path = Filename.temp_file "stream_shards" ".jsonl" in
  let metrics = Registry.create () in
  let summary =
    Campaign.run_stream ~metrics ~workers:2 ~chunk:1
      ~sinks:[ Campaign.sharded_jsonl_sink ~metrics ~shards ~jobs path ]
      (Harness.campaign_jobs { plan with Harness.metrics })
  in
  Alcotest.(check (list (pair string string))) "no stream job errors" []
    (Campaign.errors summary);
  List.iter
    (fun shard ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d exists" shard)
        true
        (Sys.file_exists (Campaign.shard_path path ~shard)))
    (List.init shards Fun.id);
  Alcotest.(check string) "shard concatenation == collected merge"
    (Campaign.to_jsonl collected)
    (concat_shards path shards);
  Alcotest.(check bool) "per-shard flushes recorded" true
    (Registry.total metrics "campaign_shard_flushes_total" > 0);
  remove_shards path shards;
  Sys.remove path

(* ---- golden bytes through the streaming + sharded path ------------------ *)

(* same plan and projection as test_golden_trace.ml: the streamed,
   sharded trace must still reproduce the checked-in golden bytes *)
let golden_plan =
  {
    Harness.default_plan with
    Harness.ops = [ Eee.Eee_spec.Read ];
    approaches = [ 2 ];
    cases_per_op = 2;
    fault_rate = 0.01;
    seed = 23;
  }

let keep_every = 100

let bulk line =
  contains ~needle:{|"event":"trigger"|} line
  || contains ~needle:{|"event":"sample"|} line

let project jsonl =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun index line ->
      if line <> "" && ((not (bulk line)) || index mod keep_every = 0) then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' jsonl);
  Buffer.contents buf

let test_streamed_shards_match_golden () =
  let golden = read_file (Filename.concat "golden" "eee_a2_read.jsonl") in
  Alcotest.(check bool) "golden trace is non-trivial" true
    (String.length golden > 0);
  let shards = 2 in
  let jobs = List.length (Harness.campaign_jobs golden_plan) in
  let path = Filename.temp_file "stream_golden" ".jsonl" in
  let summary =
    Campaign.run_stream ~workers:2
      ~sinks:[ Campaign.sharded_jsonl_sink ~shards ~jobs path ]
      (Harness.campaign_jobs golden_plan)
  in
  Alcotest.(check (list (pair string string))) "no job errors" []
    (Campaign.errors summary);
  Alcotest.(check string) "streamed shard concat reproduces the golden bytes"
    golden
    (project (concat_shards path shards));
  remove_shards path shards;
  Sys.remove path

(* ---- soak: bounded live memory under load ------------------------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* approach 1 triggers on every clock cycle, so even a small campaign
   accumulates a megabyte-scale trace in the collecting Campaign.run —
   exactly the contrast streaming exists to remove. The smoke always
   runs at scale 1; TCHECK_SOAK=1 raises the scale (TCHECK_SOAK_SCALE,
   default 8) for the overnight-style soak. *)
let soak_check ~scale () =
  let plan =
    {
      Harness.default_plan with
      Harness.ops = [ Eee.Eee_spec.Read; Eee.Eee_spec.Write ];
      approaches = [ 1; 2 ];
      cases_per_op = 2 * scale;
      fault_rate = 0.01;
      seed = 23;
    }
  in
  let tag suffix = Printf.sprintf "scale %d: %s" scale suffix in
  let base = live_words () in
  let collected = Harness.run_campaign ~workers:2 plan in
  let collected_jsonl = Campaign.to_jsonl collected in
  let collected_live = live_words () - base in
  let path = Filename.temp_file "stream_soak" ".jsonl" in
  let base = live_words () in
  let summary =
    Campaign.run_stream ~workers:2
      ~sinks:[ Campaign.jsonl_file_sink path ]
      (Harness.campaign_jobs plan)
  in
  let stream_live = live_words () - base in
  Alcotest.(check (list (pair string string))) (tag "no job errors") []
    (Campaign.errors summary);
  Alcotest.(check (list (triple string string string)))
    (tag "identical verdicts")
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts collected))
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts summary));
  let streamed = read_file path in
  Sys.remove path;
  Alcotest.(check bool) (tag "streamed file == collected merge") true
    (String.equal collected_jsonl streamed);
  (match summary.Campaign.stream with
  | None -> Alcotest.fail (tag "stream stats missing")
  | Some stats ->
    Alcotest.(check int)
      (tag "every job emitted")
      (List.length (Harness.campaign_jobs plan))
      stats.Campaign.emitted;
    Alcotest.(check bool)
      (tag "peak within the window")
      true
      (stats.Campaign.peak_window <= stats.Campaign.window));
  (* the point of the exercise: the collecting run's retention grows
     with the campaign; the stream's does not. The absolute cap is
     generous — the stream retains a window of stripped outcomes, not
     traces. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s (stream %d words, collected %d words)"
       (tag "stream retains less than the collecting run")
       stream_live collected_live)
    true
    (stream_live < collected_live);
  Alcotest.(check bool)
    (Printf.sprintf "%s (%d words)" (tag "stream retention under 2M words")
       stream_live)
    true
    (stream_live < 2_000_000)

let soak_scale () =
  match Sys.getenv_opt "TCHECK_SOAK_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 8)
  | None -> 8

let soak_enabled () = Sys.getenv_opt "TCHECK_SOAK" = Some "1"

let () =
  let soak_cases =
    Alcotest.test_case "bounded live words, smoke (scale 1)" `Quick
      (soak_check ~scale:1)
    ::
    (if soak_enabled () then
       [
         Alcotest.test_case
           (Printf.sprintf "bounded live words, soak (scale %d)" (soak_scale ()))
           `Slow
           (soak_check ~scale:(soak_scale ()));
       ]
     else [])
  in
  Alcotest.run "stream"
    [
      ( "differential",
        [
          Alcotest.test_case "stream == seed for workers 1/2/4/7" `Quick
            test_stream_matches_oracle;
          Alcotest.test_case "window=1 changes scheduling only" `Quick
            test_tiny_window_identity;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "ascending emission, campaign-global seq" `Quick
            test_ordered_emission_and_seq;
        ] );
      ( "containment",
        [
          Alcotest.test_case "crash outcomes flow to sinks" `Quick
            test_crash_outcomes_flow_to_sinks;
          Alcotest.test_case "raising sink contained, Failure resurfaces"
            `Quick test_sink_failure_contained;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "stalled job caps the reassembly window" `Quick
            test_backpressure_caps_window;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "early stop keeps a contiguous prefix" `Quick
            test_cancel_stops_workers_and_keeps_prefix;
          Alcotest.test_case "unused token is inert" `Quick
            test_unused_cancel_token_is_inert;
          Alcotest.test_case "sink failure resurfaces despite cancel" `Quick
            test_cancelled_run_resurfaces_sink_failure;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shard paths and routing" `Quick
            test_shard_routing;
          Alcotest.test_case "shard concatenation == oracle merge" `Quick
            test_sharded_concat_identity;
          Alcotest.test_case "streamed shards reproduce the golden bytes"
            `Quick test_streamed_shards_match_golden;
        ] );
      ("soak", soak_cases);
    ]
