(* Campaign benchmark core: the workloads, the untraced campaign, the
   span-instrumented campaign and the oracle campaign.

   Every workload is approach 2 over all seven EEE operations at two
   workers. The untraced campaign is built exactly as [tcheck eee --stream]
   builds it: {!Eee.Harness.campaign_jobs} (default engine, null metrics)
   into {!Verif.Campaign.run_stream}. The traced campaign makes the same
   public calls, each wrapped in a span keyed by job index. The oracle
   campaign runs the same plans on one worker with the on-the-fly engine;
   the other two must reproduce its per-job verdicts, first-final times,
   case and statement counts and trace digests. *)

module Harness = Eee.Harness
module Driver = Eee.Driver
module Campaign = Verif.Campaign
module Registry = Obs.Registry

let workers = 2
let default_seed = 7

type workload = {
  name : string;
  plans : (int option * int) list;
      (* (response-property time bound, test cases per operation) *)
  stream_trace : bool; (* stream the full JSONL trace to a file sink *)
}

(* Plan [j] of a workload runs on master seed [1000 * seed + j]. The
   unbounded workloads split their cases over eight plans: one operation's
   job makes up 35-45 % of a campaign's statements and its length follows
   the seed, so a single plan's wall time and peak RSS (every job buffers
   its trace events even with no sink) swing with the seed; 56 shorter jobs
   average that out and balance the two workers. The TB-10000 plan stays at
   10 cases on purpose: the default engine's cost there grows faster than
   the case count (about 4 s at 10 or 20 cases, 36 s at 30). *)
let workloads =
  let unbounded cases = List.init 8 (fun _ -> (None, cases)) in
  [
    { name = "untimed"; plans = unbounded 60; stream_trace = false };
    {
      name = "paper-bounds";
      plans = [ (Some 2000, 50); (Some 10000, 10) ];
      stream_trace = false;
    };
    { name = "trace-stream"; plans = unbounded 25; stream_trace = true };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

let plans ?(engine = Sctc.Engine.default) w ~seed =
  List.mapi
    (fun j (bound, cases) ->
      {
        Harness.default_plan with
        Harness.ops = Eee.Eee_spec.all_ops;
        approaches = [ 2 ];
        cases_per_op = cases;
        bound;
        engine;
        seed = (1000 * seed) + j;
      })
    w.plans

let jobs ?engine w ~seed =
  List.concat_map Harness.campaign_jobs (plans ?engine w ~seed)

(* --- spans ------------------------------------------------------------- *)

type span = {
  job : int; (* job index; -1 for campaign-level spans *)
  name : string;
  parent : string; (* "" for a top-level span *)
  domain : int;
  start : float;
  stop : float;
  minor_words : float; (* domain-local Gc.counters deltas *)
  promoted_words : float;
}

(* Spans and per-job counts, kept in memory until the campaign ends. *)
type recorder = {
  lock : Mutex.t;
  mutable spans : span list;
  mutable counts : (string * float) list;
}

let recorder () = { lock = Mutex.create (); spans = []; counts = [] }

let span r ~job ?(parent = "") name f =
  let minor0, promoted0, _ = Gc.counters () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let minor1, promoted1, _ = Gc.counters () in
    let s =
      {
        job;
        name;
        parent;
        domain = (Domain.self () :> int);
        start;
        stop;
        minor_words = minor1 -. minor0;
        promoted_words = promoted1 -. promoted0;
      }
    in
    Mutex.protect r.lock (fun () -> r.spans <- s :: r.spans)
  in
  Fun.protect ~finally:finish f

let count r name value =
  Mutex.protect r.lock (fun () -> r.counts <- (name, value) :: r.counts)

let spans r = List.rev r.spans

(* The body of Harness.campaign_jobs' jobs with a span around each public
   call. Job seeds are Harness's: two draws off stream [i] of the plan
   seed, [i] the operation's index within its plan. *)
let traced_jobs r w ~seed =
  ignore (Eee.Eee_program.derive ());
  List.concat_map
    (fun plan -> List.mapi (fun i op -> (plan, i, op)) plan.Harness.ops)
    (plans w ~seed)
  |> List.mapi (fun job (plan, i, op) ->
         let stream =
           Stimuli.Prng.of_seed_index ~seed:plan.Harness.seed ~index:i
         in
         let session_seed = Stimuli.Prng.bits stream in
         let driver_seed = Stimuli.Prng.bits stream in
         let label = "a2/" ^ Eee.Eee_spec.op_name op in
         Campaign.job ~label (fun trace ->
             span r ~job "job" (fun () ->
                 let leaf name f = span r ~job ~parent:"job" name f in
                 let metrics = Registry.create () in
                 let session =
                   leaf "session.create" (fun () ->
                       Harness.approach2 ~fault_rate:plan.fault_rate
                         ?flash:plan.flash ~faults:plan.faults
                         ~seed:session_seed ~backend:plan.backend ~trace
                         ~metrics ())
                 in
                 leaf "spec.install" (fun () ->
                     Driver.install_spec ~bound:plan.bound ~engine:plan.engine
                       session [ op ]);
                 let config =
                   {
                     Driver.test_cases = plan.cases_per_op;
                     watchdog_chunks = plan.watchdog_chunks;
                     bound = plan.bound;
                     engine = plan.engine;
                     seed = driver_seed;
                   }
                 in
                 let result =
                   leaf "drive" (fun () -> Driver.run_campaign session config op)
                 in
                 count r "drive.check_s"
                   (Registry.sum_seconds metrics
                      (Registry.stage_name Registry.Check));
                 count r "cache.prog_hits"
                   (float_of_int
                      (Registry.total metrics
                         "sctc_progression_cache_hits_total"));
                 count r "cache.prog_misses"
                   (float_of_int
                      (Registry.total metrics
                         "sctc_progression_cache_misses_total"));
                 result)))

(* Wraps a sink's calls in spans: [on_outcome] keyed by the outcome's job
   index, [on_close] as a campaign-level span. *)
let traced_sink r (inner : Campaign.sink) =
  Campaign.sink
    ~close:(fun () -> span r ~job:(-1) "sink.close" inner.Campaign.on_close)
    (fun (o : Campaign.outcome) ->
      count r "sink.events" (float_of_int (List.length o.Campaign.events));
      span r ~job:o.Campaign.index "sink" (fun () -> inner.Campaign.on_outcome o))

(* Per-layer split of one traced campaign of [wall] seconds. Over the pool
   the worker-seconds partition exactly:

     workers * wall = session.create_s + spec.install_s + drive_s + sink_s
                      + unattributed_s + pool.idle_s

   where unattributed_s is time inside a job but outside its three leaf
   spans, and pool.idle_s is worker time outside every job and sink span
   (queue claims, backpressure waits, the tail of the last job). *)
let layers r (summary : Campaign.summary) ~wall =
  let spans = spans r in
  let named name = List.filter (fun s -> s.name = name) spans in
  let seconds name =
    List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0.0 (named name)
  in
  let total name =
    List.fold_left
      (fun acc (n, v) -> if n = name then acc +. v else acc)
      0.0 r.counts
  in
  let words f names =
    List.fold_left
      (fun acc name ->
        List.fold_left (fun acc s -> acc +. f s) acc (named name))
      0.0 names
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let results = Campaign.results summary in
  let sum f =
    List.fold_left (fun acc res -> acc +. f res) 0.0 results
  in
  let stmts = sum (fun res -> float_of_int res.Verif.Result.time_units) in
  let triggers = sum (fun res -> float_of_int res.Verif.Result.triggers) in
  let charged = sum (fun res -> res.Verif.Result.synthesis_seconds) in
  let create = seconds "session.create"
  and install = seconds "spec.install"
  and drive = seconds "drive"
  and sink = seconds "sink" +. seconds "sink.close" in
  let busy = seconds "job" +. sink in
  let top = [ "job"; "sink"; "sink.close" ] in
  let minor = words (fun s -> s.minor_words) top in
  let events = total "sink.events" in
  [
    ("traced.campaign_s", wall);
    ("session.create_s", create);
    ("spec.install_s", install);
    ("spec.charged_synth_s", charged);
    ("spec.uncharged_s", install -. charged);
    ("drive_s", drive);
    ("drive.stmts", stmts);
    ("drive.triggers", triggers);
    ("drive.stmts_per_s", ratio stmts drive);
    ("drive.check_s", total "drive.check_s");
    ("drive.minor_words_per_stmt",
     ratio (words (fun s -> s.minor_words) [ "drive" ]) stmts);
    ("cache.prog_hits", total "cache.prog_hits");
    ("cache.prog_misses", total "cache.prog_misses");
    ("sink_s", sink);
    ("sink.events", events);
    ("sink.minor_words_per_event",
     ratio (words (fun s -> s.minor_words) [ "sink" ]) events);
    ("gc.promoted_share", ratio (words (fun s -> s.promoted_words) top) minor);
    ("pool.idle_s", (float_of_int summary.Campaign.workers *. wall) -. busy);
    ("stream.backpressure_s",
     match summary.Campaign.stream with
     | Some stream -> stream.Campaign.backpressure_seconds
     | None -> 0.0);
    ("unattributed_s", seconds "job" -. (create +. install +. drive));
  ]

(* --- correctness ------------------------------------------------------- *)

(* What a job must reproduce from the oracle. *)
type job_check = {
  label : string;
  error : string option;
  cases : int;
  stmts : int;
  props : (string * string * int option) list;
      (* property, verdict, first_final_at *)
  digest : string option; (* MD5 of the job's slice of the JSONL trace *)
}

let job_checks ?digests (summary : Campaign.summary) =
  List.mapi
    (fun i (o : Campaign.outcome) ->
      let digest = Option.map (fun ds -> List.nth ds i) digests in
      match o.Campaign.result with
      | Error msg ->
        { label = o.label; error = Some msg; cases = 0; stmts = 0;
          props = []; digest }
      | Ok res ->
        {
          label = o.label;
          error = None;
          cases = Verif.Result.completed_cases res;
          stmts = res.Verif.Result.time_units;
          props =
            List.map
              (fun (p : Verif.Result.property) ->
                (p.property, Verdict.to_string p.verdict, p.first_final_at))
              res.Verif.Result.properties;
          digest;
        })
    summary.Campaign.outcomes

(* Per-job digests of a streamed JSONL file, sliced by each job's event
   count (one line per event). Slices after a crashed job cannot be
   located and read as "". *)
let file_digests path (summary : Campaign.summary) =
  let buf = Buffer.create (1 lsl 20) in
  In_channel.with_open_bin path (fun ic ->
      let located = ref true in
      List.map
        (fun (o : Campaign.outcome) ->
          match o.Campaign.result with
          | Ok res when !located ->
            Buffer.clear buf;
            for _ = 1 to res.Verif.Result.trace_events do
              Buffer.add_string buf (input_line ic);
              Buffer.add_char buf '\n'
            done;
            Digest.to_hex (Digest.string (Buffer.contents buf))
          | _ ->
            located := false;
            "")
        summary.Campaign.outcomes)

(* The oracle: one worker, on-the-fly engine, the stream rendered through
   the same JSONL renderer and digested per job. *)
let oracle w ~seed =
  let buf = Buffer.create 65536 in
  let render = Campaign.jsonl_buffer_sink buf in
  let digests = ref [] in
  let digest_sink =
    Campaign.sink (fun o ->
        render.Campaign.on_outcome o;
        digests := Digest.to_hex (Digest.string (Buffer.contents buf)) :: !digests;
        Buffer.clear buf)
  in
  let summary =
    Campaign.run_stream ~workers:1 ~sinks:[ digest_sink ]
      (jobs ~engine:Sctc.Engine.Otf w ~seed)
  in
  job_checks
    ?digests:(if w.stream_trace then Some (List.rev !digests) else None)
    summary

(* --- JSON rendering ---------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = Printf.sprintf "%.17g" f

let json_option f = function None -> "null" | Some x -> f x

let json_job_check c =
  Printf.sprintf
    "{\"label\":%s,\"error\":%s,\"cases\":%d,\"stmts\":%d,\"props\":[%s],\"digest\":%s}"
    (json_string c.label)
    (json_option json_string c.error)
    c.cases c.stmts
    (String.concat ","
       (List.map
          (fun (name, verdict, at) ->
            Printf.sprintf "[%s,%s,%s]" (json_string name)
              (json_string verdict)
              (json_option string_of_int at))
          c.props))
    (json_option json_string c.digest)

let json_job_checks checks =
  "[" ^ String.concat "," (List.map json_job_check checks) ^ "]"

let json_span s =
  Printf.sprintf
    "{\"job\":%d,\"name\":%s,\"parent\":%s,\"domain\":%d,\"start\":%s,\"stop\":%s,\"minor_words\":%s,\"promoted_words\":%s}"
    s.job (json_string s.name) (json_string s.parent) s.domain
    (json_float s.start) (json_float s.stop) (json_float s.minor_words)
    (json_float s.promoted_words)
