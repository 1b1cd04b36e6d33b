module Registry = Obs.Registry

type job = { label : string; run : Trace.t -> Result.t }

type outcome = {
  index : int;
  label : string;
  result : (Result.t, string) result;
  events : Trace.event list;
}

type queue_stats = { chunk : int; acquisitions : int; contention : int }

type stream_stats = {
  window : int;
  peak_window : int;
  emitted : int;
  backpressure_waits : int;
  backpressure_seconds : float;
  cancelled_jobs : int;
}

type summary = {
  outcomes : outcome list;
  workers : int;
  wall_seconds : float;
  queue : queue_stats;
  stream : stream_stats option;
}

type sink = { on_outcome : outcome -> unit; on_close : unit -> unit }

let job ~label run = { label; run }

(* Cooperative early stopping (the SMC sequential test's lever): a
   cancelled campaign stops claiming new work at the next chunk
   boundary, so the executed set is always a contiguous prefix of the
   job list — every claimed chunk runs to completion, every executed
   outcome still reaches the reassembly frontier, and no deposit can
   wait on an index that was never started. *)
type cancellation = bool Atomic.t

let cancellation () = Atomic.make false
let cancel token = Atomic.set token true
let cancelled token = Atomic.get token

(* metric handles for one campaign run, resolved once before the pool
   spawns; recording from worker domains lands in per-domain cells, so
   the workers never serialize on a metrics lock *)
type meters = {
  metered : bool;
  m_jobs : Registry.Counter.t;
  m_errors : Registry.Counter.t;
  m_claims : Registry.Counter.t;
  m_job_seconds : Registry.Timer.t;
  m_queue_wait : Registry.Timer.t;
  m_window : Registry.Gauge.t;
  m_emitted : Registry.Counter.t;
  m_bp_waits : Registry.Counter.t;
  m_bp_seconds : Registry.Timer.t;
  m_merge : Registry.Timer.t;
}

let make_meters metrics =
  {
    metered = Registry.enabled metrics;
    m_jobs =
      Registry.counter metrics "campaign_jobs_total"
        ~help:"campaign jobs executed (including crashed jobs)";
    m_errors =
      Registry.counter metrics "campaign_job_errors_total"
        ~help:"campaign jobs whose run raised";
    m_claims =
      Registry.counter metrics "campaign_chunk_claims_total"
        ~help:"queue-mutex acquisitions that claimed a chunk of jobs";
    m_job_seconds =
      Registry.timer metrics "campaign_job_seconds"
        ~help:"wall-clock runtime of one campaign job";
    m_queue_wait =
      Registry.timer metrics "campaign_queue_wait_seconds"
        ~help:"per-worker wait for the job-queue mutex";
    m_window =
      Registry.gauge metrics "campaign_stream_window"
        ~help:"outcomes currently parked in the streaming reassembly buffer";
    m_emitted =
      Registry.counter metrics "campaign_stream_emitted_total"
        ~help:"outcomes emitted to the streaming sinks, in job order";
    m_bp_waits =
      Registry.counter metrics "campaign_backpressure_waits_total"
        ~help:"deposits that had to wait for the reassembly window";
    m_bp_seconds =
      Registry.timer metrics "campaign_backpressure_wait_seconds"
        ~help:"per-deposit wait for a slot in the reassembly window";
    m_merge = Registry.stage_timer metrics Registry.Merge;
  }

(* One job, on whatever domain runs it: a private bus buffering events in
   memory, the job's exceptions confined to its outcome. *)
let execute index job =
  let bus = Trace.create () in
  let sink, buffered = Trace.memory_sink () in
  Trace.attach bus sink;
  let result =
    match job.run bus with
    | result -> Ok result
    | exception exn -> Error (Printexc.to_string exn)
  in
  Trace.close bus;
  { index; label = job.label; result; events = buffered () }

let metered_execute meters index job =
  if meters.metered then begin
    let started = Unix.gettimeofday () in
    let outcome = execute index job in
    Registry.Timer.observe meters.m_job_seconds
      (Unix.gettimeofday () -. started);
    Registry.Counter.incr meters.m_jobs;
    (match outcome.result with
    | Error _ -> Registry.Counter.incr meters.m_errors
    | Ok _ -> ());
    outcome
  end
  else execute index job

(* Workers claim contiguous chunks of job indices, not one index per lock
   acquisition: with J jobs and chunk size C the queue mutex is taken
   O(J/C) times instead of O(J). The default C aims at ~4 claims per
   worker — enough slack for load balancing when job costs differ, few
   enough acquisitions that the queue never becomes the bottleneck. A job
   raising inside a chunk is confined by [execute]; the rest of the chunk
   (and the pool) keeps running. *)
let default_chunk ~count ~pool = max 1 (count / (pool * 4))

(* The pool scaffolding: claim chunks and run [step] on each claimed job
   index (execute the job, deposit its outcome). [stop] is polled at
   chunk claims only (and per job on the inline path): a claimed chunk
   always runs to completion, keeping the executed set a contiguous
   prefix. Returns the queue stats. *)
let run_pool ~meters ~pool ~chunk ~count ~stop step =
  if pool = 1 then begin
    let index = ref 0 in
    while !index < count && not (stop ()) do
      step !index;
      incr index
    done;
    { chunk; acquisitions = 0; contention = 0 }
  end
  else begin
    let lock = Mutex.create () in
    let next = ref 0 in
    let acquisitions = Atomic.make 0 in
    let contention = Atomic.make 0 in
    let take_chunk () =
      if stop () then None
      else begin
        let wait_started =
          if meters.metered then Unix.gettimeofday () else 0.0
        in
        if not (Mutex.try_lock lock) then begin
          Atomic.incr contention;
          Mutex.lock lock
        end;
        if meters.metered then
          Registry.Timer.observe meters.m_queue_wait
            (Unix.gettimeofday () -. wait_started);
        Atomic.incr acquisitions;
        let lo = !next in
        let hi = min count (lo + chunk) in
        next := hi;
        Mutex.unlock lock;
        if lo < hi then begin
          Registry.Counter.incr meters.m_claims;
          Some (lo, hi)
        end
        else None
      end
    in
    let rec drain () =
      match take_chunk () with
      | None -> ()
      | Some (lo, hi) ->
        for index = lo to hi - 1 do
          step index
        done;
        drain ()
    in
    let spawned = List.init (pool - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join spawned;
    {
      chunk;
      acquisitions = Atomic.get acquisitions;
      contention = Atomic.get contention;
    }
  end

(* --- the engine: ordered reassembly, bounded window ---------------------- *)

(* Finished jobs are handed to this buffer on whatever domain ran them;
   outcomes leave strictly in job order. The frontier [r_next] is the
   next index to emit; an out-of-order outcome parks in [r_buffered]
   until the frontier reaches it. The buffer never holds more than
   [r_window] outcomes: a worker depositing beyond a full window waits
   on [r_wake] (backpressure), so one slow job bounds live memory at
   window + workers outcomes instead of the whole campaign. The deposit
   of the frontier index itself never waits — every index below it has
   already been emitted, so the campaign cannot deadlock. *)
type reassembly = {
  r_lock : Mutex.t;
  r_wake : Condition.t;
  r_buffered : (int, outcome) Hashtbl.t;
  r_window : int;
  mutable r_next : int;
  mutable r_seq : int; (* campaign-global event numbering *)
  mutable r_peak : int;
  mutable r_emitted : int;
  mutable r_waits : int;
  mutable r_wait_seconds : float;
  mutable r_sink_error : string option;
  r_slots : outcome option array; (* emitted outcomes, events dropped *)
}

let renumber reassembly events =
  List.map
    (fun (event : Trace.event) ->
      let seq = reassembly.r_seq in
      reassembly.r_seq <- seq + 1;
      { event with Trace.seq })
    events

(* Emission runs under the reassembly lock: sinks are called serially,
   in ascending job order, with events renumbered to the campaign-global
   sequence — the bytes a JSONL sink writes are exactly those of
   [to_jsonl] over the collected outcomes. A raising sink is disabled
   for the rest of the run (the error resurfaces after the pool joins);
   the frontier keeps advancing so no worker is left waiting. *)
let emit_locked reassembly meters sinks outcome =
  let started =
    if meters.metered then Unix.gettimeofday () else 0.0
  in
  let outcome = { outcome with events = renumber reassembly outcome.events } in
  (if reassembly.r_sink_error = None then
     try List.iter (fun sink -> sink.on_outcome outcome) sinks
     with exn -> reassembly.r_sink_error <- Some (Printexc.to_string exn));
  reassembly.r_slots.(outcome.index) <- Some { outcome with events = [] };
  reassembly.r_emitted <- reassembly.r_emitted + 1;
  reassembly.r_next <- outcome.index + 1;
  if meters.metered then begin
    Registry.Counter.incr meters.m_emitted;
    Registry.Timer.observe meters.m_merge (Unix.gettimeofday () -. started)
  end

let deposit reassembly meters sinks outcome =
  Mutex.lock reassembly.r_lock;
  if
    outcome.index <> reassembly.r_next
    && Hashtbl.length reassembly.r_buffered >= reassembly.r_window
  then begin
    let started = Unix.gettimeofday () in
    reassembly.r_waits <- reassembly.r_waits + 1;
    if meters.metered then Registry.Counter.incr meters.m_bp_waits;
    while
      outcome.index <> reassembly.r_next
      && Hashtbl.length reassembly.r_buffered >= reassembly.r_window
    do
      Condition.wait reassembly.r_wake reassembly.r_lock
    done;
    let waited = Unix.gettimeofday () -. started in
    reassembly.r_wait_seconds <- reassembly.r_wait_seconds +. waited;
    if meters.metered then Registry.Timer.observe meters.m_bp_seconds waited
  end;
  if outcome.index = reassembly.r_next then begin
    emit_locked reassembly meters sinks outcome;
    let rec drain () =
      match Hashtbl.find_opt reassembly.r_buffered reassembly.r_next with
      | None -> ()
      | Some parked ->
        Hashtbl.remove reassembly.r_buffered reassembly.r_next;
        emit_locked reassembly meters sinks parked;
        drain ()
    in
    drain ();
    if meters.metered then
      Registry.Gauge.set meters.m_window
        (float_of_int (Hashtbl.length reassembly.r_buffered));
    Condition.broadcast reassembly.r_wake
  end
  else begin
    Hashtbl.replace reassembly.r_buffered outcome.index outcome;
    let parked = Hashtbl.length reassembly.r_buffered in
    if parked > reassembly.r_peak then reassembly.r_peak <- parked;
    if meters.metered then
      Registry.Gauge.set meters.m_window (float_of_int parked)
  end;
  Mutex.unlock reassembly.r_lock

let default_window ~pool = max 4 (2 * pool)

let run_stream ?(metrics = Registry.null) ?(workers = 1) ?chunk ?window
    ?cancel ?(sinks = []) jobs =
  let meters = make_meters metrics in
  let started = Unix.gettimeofday () in
  let jobs = Array.of_list jobs in
  let count = Array.length jobs in
  let pool = max 1 (min workers count) in
  let chunk =
    match chunk with Some c -> max 1 c | None -> default_chunk ~count ~pool
  in
  let window =
    match window with Some w -> max 1 w | None -> default_window ~pool
  in
  let reassembly =
    {
      r_lock = Mutex.create ();
      r_wake = Condition.create ();
      r_buffered = Hashtbl.create (window + 1);
      r_window = window;
      r_next = 0;
      r_seq = 0;
      r_peak = 0;
      r_emitted = 0;
      r_waits = 0;
      r_wait_seconds = 0.0;
      r_sink_error = None;
      r_slots = Array.make count None;
    }
  in
  let stop =
    match cancel with
    | None -> fun () -> false
    | Some token -> fun () -> cancelled token
  in
  let queue =
    run_pool ~meters ~pool ~chunk ~count ~stop (fun index ->
        deposit reassembly meters sinks
          (metered_execute meters index jobs.(index)))
  in
  List.iter
    (fun sink ->
      try sink.on_close ()
      with exn ->
        if reassembly.r_sink_error = None then
          reassembly.r_sink_error <- Some (Printexc.to_string exn))
    sinks;
  (* a sink failure must resurface before any structural invariant is
     checked: a cancelled-after-deciding campaign (the SMC early-stop
     path) would otherwise mask the sink's Failure behind an assert on
     the full-campaign emission count *)
  (match reassembly.r_sink_error with
  | Some message -> failwith ("Verif.Campaign.run_stream: sink failed: " ^ message)
  | None -> ());
  let executed = reassembly.r_next in
  assert (reassembly.r_emitted = executed);
  assert (cancel <> None || executed = count);
  let outcomes =
    Array.to_list (Array.sub reassembly.r_slots 0 executed)
    |> List.map (function Some outcome -> outcome | None -> assert false)
  in
  {
    outcomes;
    workers = pool;
    wall_seconds = Unix.gettimeofday () -. started;
    queue;
    stream =
      Some
        {
          window;
          peak_window = reassembly.r_peak;
          emitted = reassembly.r_emitted;
          backpressure_waits = reassembly.r_waits;
          backpressure_seconds = reassembly.r_wait_seconds;
          cancelled_jobs = count - executed;
        };
  }

(* The collecting run: one sink keeps every outcome, events included, in
   emission order. Everything is retained anyway, so the window spans the
   whole campaign and no deposit ever waits. *)
let run ?metrics ?workers ?chunk jobs =
  let collected = ref [] in
  let collect =
    {
      on_outcome = (fun outcome -> collected := outcome :: !collected);
      on_close = (fun () -> ());
    }
  in
  let summary =
    run_stream ?metrics ?workers ?chunk
      ~window:(max 1 (List.length jobs))
      ~sinks:[ collect ] jobs
  in
  { summary with outcomes = List.rev !collected }

(* --- streaming sinks ----------------------------------------------------- *)

let sink ?(close = fun () -> ()) on_outcome = { on_outcome; on_close = close }

let render_outcome buffer outcome =
  List.iter
    (fun event ->
      Trace.event_to_json_into buffer event;
      Buffer.add_char buffer '\n')
    outcome.events

let jsonl_buffer_sink out =
  { on_outcome = render_outcome out; on_close = (fun () -> ()) }

let jsonl_channel_sink channel =
  let buffer = Buffer.create 65536 in
  {
    on_outcome =
      (fun outcome ->
        Buffer.clear buffer;
        render_outcome buffer outcome;
        Buffer.output_buffer channel buffer);
    on_close = (fun () -> flush channel);
  }

let jsonl_file_sink path =
  let channel = open_out_bin path in
  let inner = jsonl_channel_sink channel in
  {
    inner with
    on_close =
      (fun () ->
        inner.on_close ();
        close_out channel);
  }

let shard_path path ~shard =
  match Filename.extension path with
  | "" -> Printf.sprintf "%s.%03d" path shard
  | ext -> Printf.sprintf "%s.%03d%s" (Filename.remove_extension path) shard ext

(* Shards are contiguous, balanced job ranges: shard k of S holds jobs
   [k*J/S .. (k+1)*J/S), so concatenating the shard files in shard order
   reproduces the merged stream byte for byte. *)
let shard_of_job ~shards ~jobs index =
  if jobs <= 0 then 0 else min (shards - 1) (index * shards / jobs)

let sharded_jsonl_sink ?(metrics = Registry.null) ~shards ~jobs path =
  if shards < 1 then
    invalid_arg "Verif.Campaign.sharded_jsonl_sink: shards must be >= 1";
  (* every shard file is created (and truncated) up front, so the
     artifact set — and the concatenation order — is deterministic even
     when trailing shards stay empty *)
  let channels =
    Array.init shards (fun shard -> open_out_bin (shard_path path ~shard))
  in
  let flushes =
    Array.init shards (fun shard ->
        Registry.counter metrics "campaign_shard_flushes_total"
          ~labels:[ ("shard", Printf.sprintf "%03d" shard) ]
          ~help:"outcomes flushed into this campaign output shard")
  in
  let buffer = Buffer.create 65536 in
  {
    on_outcome =
      (fun outcome ->
        let shard = shard_of_job ~shards ~jobs outcome.index in
        Buffer.clear buffer;
        render_outcome buffer outcome;
        Buffer.output_buffer channels.(shard) buffer;
        Registry.Counter.incr flushes.(shard));
    on_close = (fun () -> Array.iter close_out channels);
  }

(* --- deterministic merge, always in job order --------------------------- *)

let results summary =
  List.filter_map
    (fun o -> match o.result with Ok r -> Some r | Error _ -> None)
    summary.outcomes

let errors summary =
  List.filter_map
    (fun o ->
      match o.result with Error e -> Some (o.label, e) | Ok _ -> None)
    summary.outcomes

(* collected outcomes already carry the campaign-global seq, so their
   events are shared, not copied; only job-local numbering is rewritten *)
let events summary =
  summary.outcomes
  |> List.concat_map (fun o -> o.events)
  |> List.mapi (fun seq (event : Trace.event) ->
         if event.seq = seq then event else { event with Trace.seq })

let to_jsonl ?(metrics = Registry.null) summary =
  Registry.Timer.time
    (Registry.stage_timer metrics Registry.Merge)
    (fun () ->
      let buffer = Buffer.create 4096 in
      List.iter
        (fun event ->
          Buffer.add_string buffer (Trace.event_to_json event);
          Buffer.add_char buffer '\n')
        (events summary);
      Buffer.contents buffer)

let verdicts summary =
  List.concat_map
    (fun o ->
      match o.result with
      | Error _ -> []
      | Ok r ->
        List.map
          (fun p -> (o.label, p.Result.property, p.Result.verdict))
          r.Result.properties)
    summary.outcomes

let overall summary =
  List.fold_left
    (fun acc r -> Verdict.combine acc (Result.overall r))
    Verdict.True (results summary)

let sum_over field summary =
  List.fold_left (fun acc r -> acc + field r) 0 (results summary)

let total_triggers = sum_over (fun r -> r.Result.triggers)
let total_time_units = sum_over (fun r -> r.Result.time_units)
let total_test_cases = sum_over Result.completed_cases
let total_timeouts = sum_over (fun r -> r.Result.timeouts)

let vt_seconds_sum summary =
  List.fold_left
    (fun acc r -> acc +. r.Result.vt_seconds)
    0.0 (results summary)
