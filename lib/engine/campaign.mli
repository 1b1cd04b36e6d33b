(** Parallel verification campaigns on a domain pool.

    The paper's evaluation is embarrassingly parallel: up to a million
    independent monitored simulations per property, whose verdicts are
    merged afterwards. A campaign is a list of {!job}s — each one an
    independent verification run (property x stimulus seed x approach)
    producing a {!Result.t} — fanned out over a fixed pool of
    [Domain.spawn] workers pulling from a mutex-protected queue.

    There is one engine, {!run_stream}: workers hand finished outcomes
    to an ordered reassembly buffer that emits them to {!sink}s strictly
    in job order as soon as the order allows, with a bounded window and
    backpressure. Live memory stays bounded by window + workers outcomes
    instead of the whole campaign, and the merge cost is paid
    incrementally while workers are still simulating. {!run} is
    {!run_stream} with one sink that collects every outcome, events
    included, for callers that want the whole campaign in memory.

    Determinism contract: output is ordered by job index, never by
    completion order, and every job gets a private in-memory trace bus
    whose buffered events are concatenated in job order — so verdict
    vectors, merged counters and JSONL trace output are byte-identical
    for 1 worker and N workers, and a JSONL sink writes exactly the
    bytes of {!to_jsonl} over the collected outcomes. Jobs must not
    share mutable state: a job builds its own session inside the engine
    and derives its stimulus from {!Stimuli.Prng.of_seed_index}, not
    from a shared generator. *)

type job = {
  label : string;  (** shown in reports and error messages *)
  run : Trace.t -> Result.t;
      (** executes the whole job against a fresh, private trace bus; the
          campaign owns the bus (the job must not [Trace.close] it) *)
}

type outcome = {
  index : int;  (** position in the submitted job list *)
  label : string;
  result : (Result.t, string) result;
      (** [Error] carries the printed exception of a crashed job; a crash
          is confined to its job and never poisons the pool *)
  events : Trace.event list;
      (** the job's trace, with campaign-global [seq] as delivered to
          the sinks (and so in {!run} summaries); always [[]] in
          {!run_stream} summaries (events are handed to the sinks, not
          retained) *)
}

type queue_stats = {
  chunk : int;  (** chunk size used for claiming job indices *)
  acquisitions : int;  (** queue-mutex acquisitions across all workers *)
  contention : int;  (** acquisitions that found the queue locked *)
}

type stream_stats = {
  window : int;  (** configured reassembly-window bound *)
  peak_window : int;  (** most outcomes ever parked at once *)
  emitted : int;
      (** outcomes emitted to the sinks (= job count unless the
          campaign was cancelled) *)
  backpressure_waits : int;
      (** deposits that blocked because the window was full *)
  backpressure_seconds : float;  (** total time spent in those waits *)
  cancelled_jobs : int;
      (** jobs never started because the campaign was cancelled first;
          0 for a campaign that ran to completion *)
}

type summary = {
  outcomes : outcome list;  (** ascending job index *)
  workers : int;  (** effective pool size *)
  wall_seconds : float;  (** wall clock of the whole campaign *)
  queue : queue_stats;  (** zero acquisitions for the inline 1-worker path *)
  stream : stream_stats option;
      (** always [Some] from {!run} and {!run_stream}; [None] only in
          summaries built by hand *)
}

(** A streaming consumer of campaign outcomes. [on_outcome] is called
    once per job, strictly in ascending job index order, with the
    outcome's events already renumbered to the campaign-global [seq] —
    serially, under the reassembly lock, from whichever domain deposited
    the frontier outcome (sinks need not be thread-safe, but must not
    call back into the campaign). [on_close] is called once, after the
    pool joins. A sink that raises is disabled for the rest of the run
    and the exception resurfaces as a [Failure] after the campaign
    completes — the pool itself is never poisoned. *)
type sink = { on_outcome : outcome -> unit; on_close : unit -> unit }

val job : label:string -> (Trace.t -> Result.t) -> job

(** {2 Early stopping}

    Cooperative cancellation for {!run_stream} — the statistical model
    checker's lever ({!Smc.Runner}): a sequential test that reaches a
    decision cancels the rest of the campaign. Cancellation is polled
    at chunk-claim time only, so every claimed chunk runs to
    completion and the executed set is always a contiguous prefix of
    the job list: every executed outcome still reaches the sinks in
    order, no worker is left blocked on the reassembly window, and the
    window drains to empty before the pool joins. *)

type cancellation

val cancellation : unit -> cancellation
(** A fresh token, initially not cancelled. *)

val cancel : cancellation -> unit
(** Request early stop; safe from any domain — including a sink running
    under the reassembly lock. Idempotent. *)

val cancelled : cancellation -> bool

val run :
  ?metrics:Obs.Registry.t -> ?workers:int -> ?chunk:int -> job list -> summary
(** {!run_stream} with one sink that collects every outcome in emission
    order and a window as large as the campaign (so no deposit ever
    waits). The summary's [outcomes] keep their events, already
    renumbered to the campaign-global [seq] in job order; [stream] is
    [Some _]. *)

val run_stream :
  ?metrics:Obs.Registry.t ->
  ?workers:int ->
  ?chunk:int ->
  ?window:int ->
  ?cancel:cancellation ->
  ?sinks:sink list ->
  job list ->
  summary
(** Execute the campaign on [workers] domains (default 1; clamped to the
    number of jobs), handing outcomes to [sinks] in job order through
    an ordered reassembly buffer. [workers = 1] runs inline on the
    calling domain; for [workers = N] the calling domain participates
    alongside [N - 1] spawned domains. Workers claim [chunk] consecutive
    job indices per queue-mutex acquisition (default: ~4 claims per
    worker, at least 1); the chunk size affects only scheduling, never
    the merged output. Job exceptions are caught per job, even
    mid-chunk.

    An outcome finishing out of order parks in the buffer until the
    frontier (the next job index to emit) reaches it. The buffer holds
    at most [window] outcomes (default [max 4 (2 * pool)], clamped to
    >= 1): a worker depositing beyond a full window blocks until the
    frontier advances — so one slow job bounds live memory at
    [window + workers] outcomes instead of the whole campaign. The
    deposit at the frontier index itself never blocks (everything below
    it has already been emitted), so the campaign cannot deadlock, for
    any window, chunk and worker count.

    The summary's [outcomes] keep label/result but drop the event
    buffers ([events = []]); [stream] carries the {!stream_stats}.
    Merged counters, {!verdicts} and {!errors} work unchanged.

    With a [cancel] token, {!cancel} stops the campaign at the next
    chunk boundary: the summary covers exactly the executed prefix
    (never dropping an already-emitted outcome),
    [stream.cancelled_jobs] counts the jobs never started, and a sink
    failure recorded before the cancel still resurfaces as the
    [Failure]. Pass [~chunk:1] when cancellation latency matters more
    than queue traffic (the sequential-test default).

    With a live [metrics] registry (default {!Obs.Registry.null}) the
    pool records [campaign_jobs_total], [campaign_job_errors_total],
    [campaign_chunk_claims_total], the [campaign_job_seconds] runtime
    histogram and the per-worker [campaign_queue_wait_seconds] wait
    histogram. Workers record into per-domain cells and never serialize
    on a metrics lock; recording never affects verdicts, the merge
    order, or the trace JSONL. The registry also records the
    [campaign_stream_window] gauge (outcomes currently parked; sample
    it concurrently to watch the window), [campaign_stream_emitted_total],
    [campaign_backpressure_waits_total], the
    [campaign_backpressure_wait_seconds] histogram, and charges
    per-outcome sink emission to the [merge] stage timer, as
    {!to_jsonl} charges its end-of-run render. *)

(** {2 Streaming sinks} *)

val sink : ?close:(unit -> unit) -> (outcome -> unit) -> sink
(** [sink f] calls [f] per outcome; [close] defaults to a no-op. *)

val jsonl_buffer_sink : Buffer.t -> sink
(** Append every outcome's events as JSONL into a buffer. The buffer's
    final contents equal {!to_jsonl} of the {!run} summary byte for
    byte. *)

val jsonl_channel_sink : out_channel -> sink
(** Write every outcome's events as JSONL to a channel; each outcome is
    rendered into a reused buffer and written in one output call.
    [on_close] flushes but does not close the channel. *)

val jsonl_file_sink : string -> sink
(** Like {!jsonl_channel_sink} into a fresh file (truncates);
    [on_close] closes it. *)

val sharded_jsonl_sink :
  ?metrics:Obs.Registry.t -> shards:int -> jobs:int -> string -> sink
(** Split the JSONL stream over [shards] files derived from the path
    (see {!shard_path}). Job [i] of [jobs] lands in shard
    [i * shards / jobs] — contiguous, balanced index ranges — so
    concatenating the shard files in shard order reproduces the merged
    stream byte for byte. All shard files are created (truncated) up
    front, so the artifact set is deterministic even when trailing
    shards stay empty. A live [metrics] registry counts per-shard
    flushes as [campaign_shard_flushes_total{shard="NNN"}].
    @raise Invalid_argument when [shards < 1]. *)

val shard_path : string -> shard:int -> string
(** ["out.jsonl" -> "out.000.jsonl"]; a path without an extension gets
    the shard suffix appended (["out" -> "out.000"]). *)

val shard_of_job : shards:int -> jobs:int -> int -> int
(** The shard index job [i] is routed to. *)

(** {2 Deterministic merge} *)

val results : summary -> Result.t list
(** Successful results, in job order. *)

val errors : summary -> (string * string) list
(** [(label, exception text)] of crashed jobs, in job order. *)

val events : summary -> Trace.event list
(** All trace events, concatenated in job order and renumbered with a
    campaign-global [seq] starting at 0. Empty for {!run_stream}
    summaries — attach a sink to observe the stream. *)

val to_jsonl : ?metrics:Obs.Registry.t -> summary -> string
(** {!events} rendered one JSON object per line — byte-identical for any
    worker count. A live [metrics] registry charges the render to the
    [merge] stage timer. *)

val verdicts : summary -> (string * string * Verdict.t) list
(** [(job label, property, verdict)] across all successful jobs, job
    order then registration order. *)

val overall : summary -> Verdict.t
(** {!Verdict.combine} over every property of every successful result. *)

(** {2 Merged counters} *)

val total_triggers : summary -> int
val total_time_units : summary -> int
val total_test_cases : summary -> int
val total_timeouts : summary -> int

val vt_seconds_sum : summary -> float
(** Sum of per-job verification times — the sequential-equivalent cost;
    compare with [wall_seconds] for the pool's speedup. *)
