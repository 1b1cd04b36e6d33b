(* Tcheck_cli — the option surface shared by the campaign subcommands.

   [tcheck verify], [eee] and [smc] share one definition of
   --jobs/--chunk/--seed/--trace/--metrics and the streaming options,
   one builder of the --trace sinks, and one way to run a campaign. *)

open Cmdliner

type common = {
  jobs : int;
  chunk : int option;
  seed : int;
  backend : Minic.Exec.kind;
  trace_file : string option;
  metrics_file : string option;
  out_shards : int option;
  window : int option;
}

let backend_conv =
  let parse s =
    match Minic.Exec.of_string s with
    | Some kind -> Ok kind
    | None -> Error (`Msg "expected 'interp', 'vm' or 'auto'")
  in
  Cmdliner.Arg.conv
    (parse, fun fmt kind -> Format.pp_print_string fmt (Minic.Exec.to_string kind))

let engine_conv =
  let parse s =
    match Sctc.Engine.of_string_exn s with
    | engine -> Ok engine
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt engine -> Format.pp_print_string fmt (Sctc.Engine.to_string engine)
    )

let engine_arg =
  let doc =
    "Monitor engine, deciding how each property's AR-automaton table is \
     filled: $(b,otf) (on first visit, by progression; the default), \
     $(b,explicit) (eagerly, by explicit synthesis) or $(b,il) (explicit, \
     round-tripped through the IL text form, rows from its guards). \
     Verdicts are identical across engines"
  in
  Arg.(
    value
    & opt engine_conv Sctc.Engine.default
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let prop_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when i > 0 ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Error (`Msg "expected NAME=EXPR")
  in
  Arg.conv (parse, fun fmt (n, e) -> Format.fprintf fmt "%s=%s" n e)

(* counts the pool cannot honour are usage errors, not silently clamped *)
let at_least_one option = function
  | Some n when n < 1 ->
    Printf.eprintf "%s must be >= 1\n" option;
    exit 2
  | _ -> ()

let term ~default_seed =
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Fan the campaign jobs out over N domains (default 1); \
                 verdicts and trace output are identical for any N")
  in
  let chunk =
    Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"C"
           ~doc:"Jobs a worker claims per queue acquisition (scheduling \
                 only; default ~4 claims per worker)")
  in
  let seed =
    Arg.(value & opt int default_seed & info [ "seed" ]
           ~doc:"Campaign master seed")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
           ~doc:"Stream the structured verification trace (triggers, \
                 samples, verdict changes) as JSONL to this file while \
                 workers run; with --jobs the per-job traces are merged \
                 in job order")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics" ]
           ~docv:"FILE.jsonl"
           ~doc:"Record counters, stage timings and latency histograms \
                 (lib/obs) during the run and write the snapshot as JSONL \
                 to this file; validate it with $(b,tcheck metrics)")
  in
  let backend =
    Arg.(value & opt backend_conv Minic.Exec.Auto & info [ "backend" ]
           ~docv:"BACKEND"
           ~doc:"MiniC execution backend for the reference and \
                 derived-model runtimes: $(b,interp) (tree-walking \
                 reference interpreter), $(b,vm) (bytecode VM) or \
                 $(b,auto) (VM with interpreter fallback; the default). \
                 Verdicts and traces are identical across backends")
  in
  let out_shards =
    Arg.(value & opt (some int) None & info [ "out-shards" ] ~docv:"S"
           ~doc:"Split the streamed --trace output over S files \
                 (FILE.000.jsonl, FILE.001.jsonl, ...); concatenating \
                 them in shard order reproduces the unsharded stream \
                 byte for byte")
  in
  let window =
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"W"
           ~doc:"Bound of the streaming reassembly window (outcomes a \
                 slow job can park before depositing workers block; \
                 default 2x the pool size, at least 4)")
  in
  let combine jobs chunk seed backend trace_file metrics_file out_shards
      window =
    at_least_one "--jobs" (Some jobs);
    at_least_one "--chunk" chunk;
    at_least_one "--out-shards" out_shards;
    at_least_one "--window" window;
    { jobs; chunk; seed; backend; trace_file; metrics_file; out_shards;
      window }
  in
  Term.(const combine $ jobs $ chunk $ seed $ backend $ trace_file
        $ metrics_file $ out_shards $ window)

(* a live registry only when a snapshot was requested, so un-instrumented
   runs keep the null registry's no-op handles *)
let registry common =
  match common.metrics_file with
  | Some _ -> Obs.Registry.create ()
  | None -> Obs.Registry.null

(* [jobs] is the campaign's job count, which shard routing needs; [None]
   where the count is decided while the campaign runs *)
let trace_sinks common metrics ~jobs =
  if common.out_shards <> None && jobs = None then begin
    Printf.eprintf
      "--out-shards: the job count is decided while the campaign runs, \
       so its trace cannot be sharded\n";
    exit 2
  end;
  match common.trace_file with
  | None -> []
  | Some out -> (
    try
      match (common.out_shards, jobs) with
      | Some shards, Some jobs ->
        [ Verif.Campaign.sharded_jsonl_sink ~metrics ~shards ~jobs out ]
      | _ -> [ Verif.Campaign.jsonl_file_sink out ]
    with Sys_error msg ->
      Printf.eprintf "--trace: %s\n" msg;
      exit 2)

let execute common metrics jobs =
  let sinks = trace_sinks common metrics ~jobs:(Some (List.length jobs)) in
  try
    Verif.Campaign.run_stream ~metrics ~workers:common.jobs
      ?chunk:common.chunk ?window:common.window ~sinks jobs
  with Failure msg ->
    (* jobs' own exceptions stay in their outcomes: a Failure here is a
       trace sink that could not write *)
    Printf.eprintf "--trace: %s\n" msg;
    exit 2

(* words per simulated statement and per checker trigger, from the stage
   allocation counters; on stderr, so the report itself does not change *)
let report_words metrics =
  let total = Obs.Registry.total metrics in
  let statements =
    total "sim_vm_statements_total" + total "sim_interp_statements_total"
  and triggers = total "sctc_triggers_total" in
  let per stage units =
    let words = total (Obs.Registry.stage_words_name stage) in
    float_of_int words /. float_of_int units
  in
  if statements > 0 && triggers > 0 then
    Printf.eprintf
      "metrics: %.1f minor words per statement simulated, %.1f per trigger \
       checked\n"
      (per Obs.Registry.Simulate statements)
      (per Obs.Registry.Check triggers)

let write_metrics common metrics =
  match common.metrics_file with
  | None -> ()
  | Some out -> (
    report_words metrics;
    try Obs.Export.write_jsonl out metrics
    with Sys_error msg ->
      Printf.eprintf "--metrics: %s\n" msg;
      exit 2)
