(* The parallel-campaign safety net: a campaign on a domain pool must be
   verdict-for-verdict — and byte-for-byte in its merged trace — identical
   to the sequential run, a crashing job must surface as a per-job error
   without poisoning the pool, and the seed-splitting PRNG contract must
   hold (bit-reproducible streams, non-overlapping prefixes). *)

module Campaign = Verif.Campaign
module Session = Verif.Session
module Result = Verif.Result
module Trace = Verif.Trace
module Prng = Stimuli.Prng

(* ---- a cheap deterministic job mix over the small counter program ------ *)

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

(* several properties x backends: a representative job mix (the Soc job is
   the expensive one, so the completion order under a pool differs from
   the job order — exactly what the deterministic merge must hide) *)
let make_jobs () =
  [
    session_job ~label:"ref/eventually" ~backend:Session.Reference
      ~properties:[ ("eventually_done", "F p_done") ];
    session_job ~label:"soc/safety" ~backend:Session.Soc_model
      ~properties:
        [ ("never_overflow", "G !p_overflow"); ("not_yet_done", "G !p_done") ];
    session_job ~label:"esw/eventually" ~backend:Session.Derived_model
      ~properties:[ ("eventually_done", "F p_done") ];
    session_job ~label:"esw/safety" ~backend:Session.Derived_model
      ~properties:[ ("not_yet_done", "G !p_done") ];
    session_job ~label:"ref/safety" ~backend:Session.Reference
      ~properties:[ ("never_overflow", "G !p_overflow") ];
    session_job ~label:"esw/bounded" ~backend:Session.Derived_model
      ~properties:[ ("done_quickly", "F[500] p_done") ];
  ]

let counters summary =
  [
    Campaign.total_triggers summary;
    Campaign.total_time_units summary;
    Campaign.total_test_cases summary;
    Campaign.total_timeouts summary;
  ]

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_pool_matches_sequential () =
  let sequential = Campaign.run ~workers:1 (make_jobs ()) in
  let pooled = Campaign.run ~workers:4 (make_jobs ()) in
  Alcotest.(check int) "effective workers" 4 pooled.Campaign.workers;
  Alcotest.(check int) "all jobs have outcomes" 6
    (List.length pooled.Campaign.outcomes);
  Alcotest.(check (list (triple string string string)))
    "identical verdict vectors"
    (List.map
       (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
       (Campaign.verdicts sequential))
    (List.map
       (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
       (Campaign.verdicts pooled));
  Alcotest.(check (list int))
    "identical merged counters" (counters sequential) (counters pooled);
  Alcotest.(check string) "byte-identical merged JSONL"
    (Campaign.to_jsonl sequential) (Campaign.to_jsonl pooled);
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length (Campaign.to_jsonl sequential) > 0);
  (* the mix is chosen to exercise all three verdicts *)
  let verdicts = List.map (fun (_, _, v) -> v) (Campaign.verdicts pooled) in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Verdict.to_string v ^ " verdict represented")
        true
        (List.exists (Verdict.equal v) verdicts))
    [ Verdict.True; Verdict.False; Verdict.Pending ]

let test_merge_order_and_seq () =
  let summary = Campaign.run ~workers:3 (make_jobs ()) in
  let labels = List.map (fun o -> o.Campaign.label) summary.Campaign.outcomes in
  Alcotest.(check (list string)) "outcomes in job order, not completion order"
    [
      "ref/eventually"; "soc/safety"; "esw/eventually"; "esw/safety";
      "ref/safety"; "esw/bounded";
    ]
    labels;
  List.iteri
    (fun expected o ->
      Alcotest.(check int) "outcome index" expected o.Campaign.index)
    summary.Campaign.outcomes;
  (* the collected outcomes already carry the campaign-global seq, in
     job order *)
  List.iteri
    (fun expected seq ->
      Alcotest.(check int) "outcome events carry campaign-global seq"
        expected seq)
    (List.concat_map
       (fun o -> List.map (fun event -> event.Trace.seq) o.Campaign.events)
       summary.Campaign.outcomes);
  (* merged events are renumbered with a campaign-global seq *)
  List.iteri
    (fun expected event ->
      Alcotest.(check int) "campaign-global seq" expected event.Trace.seq)
    (Campaign.events summary);
  (* and every merged event survives the JSONL round trip through the
     campaign's file sink *)
  let path = Filename.temp_file "campaign" ".jsonl" in
  let file = Campaign.jsonl_file_sink path in
  List.iter file.Campaign.on_outcome summary.Campaign.outcomes;
  file.Campaign.on_close ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "one line per merged event"
    (List.length (Campaign.events summary))
    (List.length !lines);
  List.iter
    (fun line ->
      match Trace.event_of_json line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg)
    (List.rev !lines)

(* chunked claiming is pure scheduling: any chunk size — one job per
   acquisition, a few, or more than the whole queue — must leave verdict
   vectors, merged counters and JSONL byte-identical to jobs=1 *)
let test_chunked_queue_identity () =
  let sequential = Campaign.run ~workers:1 (make_jobs ()) in
  Alcotest.(check int) "sequential path takes no queue lock" 0
    sequential.Campaign.queue.Campaign.acquisitions;
  List.iter
    (fun chunk ->
      let pooled = Campaign.run ~workers:8 ~chunk (make_jobs ()) in
      let label suffix = Printf.sprintf "chunk=%d: %s" chunk suffix in
      Alcotest.(check int) (label "chunk size recorded") chunk
        pooled.Campaign.queue.Campaign.chunk;
      Alcotest.(check bool) (label "queue lock taken") true
        (pooled.Campaign.queue.Campaign.acquisitions > 0);
      Alcotest.(check (list (triple string string string)))
        (label "identical verdict vectors")
        (List.map
           (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
           (Campaign.verdicts sequential))
        (List.map
           (fun (job, prop, v) -> (job, prop, Verdict.to_string v))
           (Campaign.verdicts pooled));
      Alcotest.(check (list int))
        (label "identical merged counters")
        (counters sequential) (counters pooled);
      Alcotest.(check string)
        (label "byte-identical merged JSONL")
        (Campaign.to_jsonl sequential) (Campaign.to_jsonl pooled))
    [ 1; 3; 100 (* larger than the queue *) ]

(* a raise in the middle of a claimed chunk must not take down the rest
   of the chunk, the worker, or the pool *)
let test_chunk_crash_is_contained () =
  let jobs =
    [
      session_job ~label:"ok-0" ~backend:Session.Reference
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crash-mid-chunk" (fun _trace -> failwith "chunked boom");
      session_job ~label:"ok-2" ~backend:Session.Reference
        ~properties:[ ("eventually_done", "F p_done") ];
      session_job ~label:"ok-3" ~backend:Session.Reference
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crash-chunk-end" (fun _trace -> failwith "boom 2");
      session_job ~label:"ok-5" ~backend:Session.Reference
        ~properties:[ ("eventually_done", "F p_done") ];
    ]
  in
  let summary = Campaign.run ~workers:2 ~chunk:3 jobs in
  Alcotest.(check int) "all outcomes present" 6
    (List.length summary.Campaign.outcomes);
  Alcotest.(check (list string)) "both crashes surface, in job order"
    [ "crash-mid-chunk"; "crash-chunk-end" ]
    (List.map fst (Campaign.errors summary));
  Alcotest.(check int) "jobs after an in-chunk crash still completed" 4
    (List.length (Campaign.results summary));
  List.iter
    (fun (_, _, v) ->
      Alcotest.(check bool) "healthy verdicts final" true
        (Verdict.equal v Verdict.True))
    (Campaign.verdicts summary)

let test_worker_crash_is_contained () =
  let jobs =
    [
      session_job ~label:"ok-before" ~backend:Session.Reference
        ~properties:[ ("eventually_done", "F p_done") ];
      Campaign.job ~label:"crasher" (fun _trace -> failwith "boom");
      session_job ~label:"ok-after" ~backend:Session.Derived_model
        ~properties:[ ("eventually_done", "F p_done") ];
    ]
  in
  let summary = Campaign.run ~workers:4 jobs in
  Alcotest.(check int) "three outcomes" 3 (List.length summary.Campaign.outcomes);
  (match (List.nth summary.Campaign.outcomes 1).Campaign.result with
  | Error msg ->
    Alcotest.(check bool) "error text carries the exception" true
      (contains ~needle:"boom" msg)
  | Ok _ -> Alcotest.fail "crashing job must produce an error outcome");
  Alcotest.(check (list string)) "crash surfaces in errors, in order"
    [ "crasher" ]
    (List.map fst (Campaign.errors summary));
  Alcotest.(check int) "healthy jobs still completed" 2
    (List.length (Campaign.results summary));
  List.iter
    (fun (_, _, v) ->
      Alcotest.(check bool) "healthy verdicts final" true
        (Verdict.equal v Verdict.True))
    (Campaign.verdicts summary)

(* ---- the EEE case study through the pool ------------------------------- *)

let eee_plan =
  {
    Eee.Harness.default_plan with
    Eee.Harness.ops = [ Eee.Eee_spec.Read; Eee.Eee_spec.Write ];
    approaches = [ 2 ];
    cases_per_op = 4;
    fault_rate = 0.01;
    seed = 5;
  }

let test_eee_campaign_deterministic () =
  let sequential = Eee.Harness.run_campaign ~workers:1 eee_plan in
  let pooled = Eee.Harness.run_campaign ~workers:3 eee_plan in
  Alcotest.(check bool) "no job errors" true
    (Campaign.errors sequential = [] && Campaign.errors pooled = []);
  Alcotest.(check (list (triple string string string)))
    "identical EEE verdicts"
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts sequential))
    (List.map
       (fun (j, p, v) -> (j, p, Verdict.to_string v))
       (Campaign.verdicts pooled));
  Alcotest.(check (list int))
    "identical EEE counters" (counters sequential) (counters pooled);
  Alcotest.(check string) "byte-identical EEE JSONL"
    (Campaign.to_jsonl sequential) (Campaign.to_jsonl pooled);
  Alcotest.(check int) "every case completed or timed out"
    (2 * eee_plan.Eee.Harness.cases_per_op)
    (Campaign.total_test_cases pooled + Campaign.total_timeouts pooled)

(* ---- QCheck: the seed-splitting contract ------------------------------- *)

let draws n prng = List.init n (fun _ -> Prng.next_int64 prng)

let qcheck_streams_reproducible =
  QCheck.Test.make ~name:"same (seed, index) is bit-reproducible" ~count:100
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, index) ->
      draws 100 (Prng.of_seed_index ~seed ~index)
      = draws 100 (Prng.of_seed_index ~seed ~index))

let qcheck_streams_disjoint =
  QCheck.Test.make
    ~name:"distinct indices: first 1k draws are disjoint streams" ~count:50
    QCheck.(triple small_int (int_bound 10_000) (int_bound 10_000))
    (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let module S = Set.Make (Int64) in
      let a = S.of_list (draws 1_000 (Prng.of_seed_index ~seed ~index:i)) in
      let b = S.of_list (draws 1_000 (Prng.of_seed_index ~seed ~index:j)) in
      (* the prefixes must differ — and in fact share no value at all *)
      S.is_empty (S.inter a b))

let qcheck_named_split_stable =
  QCheck.Test.make ~name:"named split of an indexed stream is reproducible"
    ~count:100
    QCheck.(pair small_int (int_bound 1_000))
    (fun (seed, index) ->
      let stream () = Prng.split (Prng.of_seed_index ~seed ~index) "flash" in
      draws 50 (stream ()) = draws 50 (stream ()))

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs 1 == jobs 4 (verdicts, counters, JSONL)"
            `Quick test_pool_matches_sequential;
          Alcotest.test_case "deterministic merge order and seq" `Quick
            test_merge_order_and_seq;
          Alcotest.test_case "worker crash is contained" `Quick
            test_worker_crash_is_contained;
          Alcotest.test_case "chunked queue: jobs 1 == jobs 8 for chunk 1/3/100"
            `Quick test_chunked_queue_identity;
          Alcotest.test_case "crash inside a chunk is contained" `Quick
            test_chunk_crash_is_contained;
        ] );
      ( "eee",
        [
          Alcotest.test_case "EEE campaign deterministic across pools" `Quick
            test_eee_campaign_deterministic;
        ] );
      ( "prng",
        [
          QCheck_alcotest.to_alcotest qcheck_streams_reproducible;
          QCheck_alcotest.to_alcotest qcheck_streams_disjoint;
          QCheck_alcotest.to_alcotest qcheck_named_split_stable;
        ] );
    ]
