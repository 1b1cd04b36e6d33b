(* One campaign of a benchmark workload in this process, reported as one
   JSON object on stdout.

     main.exe (setup | run | traced | oracle) --workload NAME --seed N
              [--trace-file PATH] [--spans PATH]

   setup   set up the campaign as run does, report when it would start
   run     the untraced campaign: wall, CPU and peak RSS, per-job checks
   traced  the span-instrumented campaign: the per-layer split; spans are
           written to --spans as JSONL when the campaign has ended
   oracle  the one-worker on-the-fly campaign: the per-job checks the
           other two modes must reproduce

   --trace-file is where trace-stream's JSONL goes; it is read back for
   the per-job digests and removed. *)

module Campaign = Verif.Campaign

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM from /proc/self/status, in MiB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> scan ())
      in
      scan ())

let total_cases summary =
  List.fold_left
    (fun acc res -> acc + Verif.Result.completed_cases res)
    0 (Campaign.results summary)

let print_fields fields =
  print_string
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Cbench.json_string k ^ ":" ^ v) fields)
    ^ "}\n")

let file_sinks (w : Cbench.workload) trace_file wrap =
  if not w.Cbench.stream_trace then []
  else
    match trace_file with
    | Some path -> [ wrap (Campaign.jsonl_file_sink path) ]
    | None -> failwith "--trace-file is required for a streamed-trace workload"

let digests (w : Cbench.workload) trace_file summary =
  match trace_file with
  | Some path when w.Cbench.stream_trace ->
    let ds = Cbench.file_digests path summary in
    Sys.remove path;
    Some ds
  | _ -> None

let run w ~seed ~trace_file =
  let jobs = Cbench.jobs w ~seed in
  let sinks = file_sinks w trace_file Fun.id in
  let cpu0 = cpu_seconds () in
  let start = Unix.gettimeofday () in
  let summary = Campaign.run_stream ~workers:Cbench.workers ~sinks jobs in
  let stop = Unix.gettimeofday () in
  let cpu = cpu_seconds () -. cpu0 in
  let rss = peak_rss_mb () in
  let checks =
    Cbench.job_checks ?digests:(digests w trace_file summary) summary
  in
  print_fields
    [
      ("campaign_start", Cbench.json_float start);
      ("campaign_s", Cbench.json_float (stop -. start));
      ("cpu_s", Cbench.json_float cpu);
      ("peak_rss_mb", Cbench.json_float rss);
      ("cases", string_of_int (total_cases summary));
      ("workers", string_of_int summary.Campaign.workers);
      ("jobs", Cbench.json_job_checks checks);
    ]

let traced w ~seed ~trace_file ~spans_file =
  let t0 = Unix.gettimeofday () in
  ignore (Eee.Eee_program.derive ());
  let programs_s = Unix.gettimeofday () -. t0 in
  let r = Cbench.recorder () in
  let jobs = Cbench.traced_jobs r w ~seed in
  let sinks = file_sinks w trace_file (Cbench.traced_sink r) in
  let gc0 = Gc.quick_stat () in
  let start = Unix.gettimeofday () in
  let summary = Campaign.run_stream ~workers:Cbench.workers ~sinks jobs in
  let wall = Unix.gettimeofday () -. start in
  let gc1 = Gc.quick_stat () in
  let sink_bytes =
    match trace_file with
    | Some path when w.Cbench.stream_trace -> (Unix.stat path).Unix.st_size
    | _ -> 0
  in
  let checks =
    Cbench.job_checks ?digests:(digests w trace_file summary) summary
  in
  let layers =
    ("setup.programs_s", programs_s)
    :: ("sink.bytes", float_of_int sink_bytes)
    :: ("gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections))
    :: ("gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
    :: Cbench.layers r summary ~wall
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun s -> output_string oc (Cbench.json_span s ^ "\n"))
            (Cbench.spans r)))
    spans_file;
  print_fields
    [
      ("campaign_s", Cbench.json_float wall);
      ("cases", string_of_int (total_cases summary));
      ("workers", string_of_int summary.Campaign.workers);
      ( "layers",
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Cbench.json_string k ^ ":" ^ Cbench.json_float v)
               layers)
        ^ "}" );
      ("jobs", Cbench.json_job_checks checks);
    ]

let () =
  let workload = ref "" and seed = ref Cbench.default_seed in
  let trace_file = ref None and spans_file = ref None in
  let mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N campaign master seed");
      ( "--trace-file",
        Arg.String (fun p -> trace_file := Some p),
        "PATH streamed JSONL trace (removed after digesting)" );
      ( "--spans",
        Arg.String (fun p -> spans_file := Some p),
        "PATH spans of a traced run, as JSONL" );
    ]
  in
  let usage = "main.exe (setup | run | traced | oracle) --workload NAME --seed N" in
  Arg.parse spec (fun m -> mode := m) usage;
  match Cbench.find_workload !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w -> (
    let seed = !seed and trace_file = !trace_file in
    match !mode with
    | "setup" ->
      ignore (Cbench.jobs w ~seed);
      print_fields
        [ ("campaign_start", Cbench.json_float (Unix.gettimeofday ())) ]
    | "run" -> run w ~seed ~trace_file
    | "traced" -> traced w ~seed ~trace_file ~spans_file:!spans_file
    | "oracle" ->
      print_fields
        [ ("jobs", Cbench.json_job_checks (Cbench.oracle w ~seed)) ]
    | m ->
      prerr_endline ("unknown mode: " ^ m ^ "\n" ^ usage);
      exit 2)
