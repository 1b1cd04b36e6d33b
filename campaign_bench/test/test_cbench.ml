(* Self-test of the campaign benchmark's traced run: the instrumented job
   list is the campaign Harness.campaign_jobs builds, and its spans account
   for the traced wall time. *)

module Campaign = Verif.Campaign

let tiny =
  {
    Cbench.name = "tiny";
    plans = [ (None, 6); (Some 50, 4) ];
    stream_trace = true;
  }

let seed = 11

let stream jobs =
  let buf = Buffer.create 65536 in
  let summary =
    Campaign.run_stream ~workers:Cbench.workers
      ~sinks:[ Campaign.jsonl_buffer_sink buf ]
      jobs
  in
  (summary, Buffer.contents buf)

let test_same_campaign () =
  let plain, plain_jsonl = stream (Cbench.jobs tiny ~seed) in
  let traced, traced_jsonl =
    stream (Cbench.traced_jobs (Cbench.recorder ()) tiny ~seed)
  in
  Alcotest.(check int) "no crashed job" 0
    (List.length (Campaign.errors plain @ Campaign.errors traced));
  Alcotest.(check (list (triple string string string)))
    "verdicts"
    (List.map
       (fun (l, p, v) -> (l, p, Verdict.to_string v))
       (Campaign.verdicts plain))
    (List.map
       (fun (l, p, v) -> (l, p, Verdict.to_string v))
       (Campaign.verdicts traced));
  Alcotest.(check (list string))
    "per-job checks"
    (List.map Cbench.json_job_check (Cbench.job_checks plain))
    (List.map Cbench.json_job_check (Cbench.job_checks traced));
  Alcotest.(check bool) "trace is not empty" true (plain_jsonl <> "");
  Alcotest.(check bool) "same JSONL bytes" true (plain_jsonl = traced_jsonl)

let test_spans_add_up () =
  let r = Cbench.recorder () in
  let buf = Buffer.create 65536 in
  let jobs = Cbench.traced_jobs r tiny ~seed in
  let start = Unix.gettimeofday () in
  let summary =
    Campaign.run_stream ~workers:Cbench.workers
      ~sinks:[ Cbench.traced_sink r (Campaign.jsonl_buffer_sink buf) ]
      jobs
  in
  let stop = Unix.gettimeofday () in
  let wall = stop -. start in
  let layers = Cbench.layers r summary ~wall in
  let get name = List.assoc name layers in
  let eps = 1e-6 in
  let parts =
    [
      "session.create_s"; "spec.install_s"; "drive_s"; "sink_s";
      "unattributed_s"; "pool.idle_s";
    ]
  in
  List.iter
    (fun name ->
      if get name < -.eps then
        Alcotest.failf "%s is negative: %g" name (get name))
    parts;
  let sum = List.fold_left (fun acc name -> acc +. get name) 0.0 parts in
  Alcotest.(check (float eps))
    "spans + unattributed + idle = workers x traced wall"
    (float_of_int summary.Campaign.workers *. wall)
    sum;
  let spans = Cbench.spans r in
  let top = List.filter (fun (s : Cbench.span) -> s.parent = "") spans in
  List.iter
    (fun (s : Cbench.span) ->
      if s.start < start -. eps || s.stop > stop +. eps then
        Alcotest.failf "span %s of job %d outside the campaign" s.name s.job)
    spans;
  (* top-level spans of one domain never overlap *)
  List.iter
    (fun (a : Cbench.span) ->
      List.iter
        (fun (b : Cbench.span) ->
          if a != b && a.domain = b.domain && a.start < b.stop -. eps
             && b.start < a.stop -. eps
          then
            Alcotest.failf "spans %s/%d and %s/%d overlap" a.name a.job b.name
              b.job)
        top)
    top;
  (* every leaf lies inside the job span of its own index and domain *)
  List.iter
    (fun (leaf : Cbench.span) ->
      if leaf.parent <> "" then
        match
          List.find_opt
            (fun (s : Cbench.span) ->
              s.name = leaf.parent && s.job = leaf.job
              && s.domain = leaf.domain)
            top
        with
        | Some job
          when job.start <= leaf.start +. eps && leaf.stop <= job.stop +. eps
          ->
          ()
        | _ -> Alcotest.failf "leaf %s of job %d outside its job" leaf.name leaf.job)
    spans;
  Alcotest.(check int) "three leaves per job"
    (3 * List.length jobs)
    (List.length (List.filter (fun (s : Cbench.span) -> s.parent = "job") spans))

let () =
  Alcotest.run "campaign_bench"
    [
      ( "traced run",
        [
          Alcotest.test_case "instrumented jobs = Harness.campaign_jobs" `Quick
            test_same_campaign;
          Alcotest.test_case "spans add up to the traced wall" `Quick
            test_spans_add_up;
        ] );
    ]
