(** The option surface shared by the [tcheck] campaign subcommands
    ([verify], [eee], [smc]): worker-pool shape, campaign seed, and the
    trace / metrics output files, declared once instead of per
    subcommand. Every campaign runs on {!Verif.Campaign.run_stream};
    [--trace] always streams through a campaign sink while workers
    run. *)

type common = {
  jobs : int;  (** worker domains (default 1; at least 1) *)
  chunk : int option;  (** jobs claimed per queue acquisition (>= 1) *)
  seed : int;  (** campaign master seed *)
  backend : Minic.Exec.kind;  (** [--backend interp|vm|auto] *)
  trace_file : string option;  (** [--trace FILE.jsonl] *)
  metrics_file : string option;  (** [--metrics FILE.jsonl] *)
  out_shards : int option;
      (** [--out-shards S]: shard the streamed trace (>= 1) *)
  window : int option;  (** [--window W]: reassembly-window bound (>= 1) *)
}

val backend_conv : Minic.Exec.kind Cmdliner.Arg.conv
(** [interp]/[vm]/[auto] ({!Minic.Exec.of_string}). *)

val engine_conv : Sctc.Engine.t Cmdliner.Arg.conv
(** [otf]/[explicit]/[il] ({!Sctc.Engine.of_string_exn}; an unknown name
    fails with its message, which lists the known engines). *)

val engine_arg : Sctc.Engine.t Cmdliner.Term.t
(** The [--engine] option over {!engine_conv}, defaulting to
    {!Sctc.Engine.default} ([otf]). *)

val prop_conv : (string * string) Cmdliner.Arg.conv
(** [NAME=EXPR] proposition definitions ([--prop]). *)

val term : default_seed:int -> common Cmdliner.Term.t
(** The [--jobs]/[--chunk]/[--seed]/[--backend]/[--trace]/[--metrics]/
    [--out-shards]/[--window] terms combined; [default_seed] keeps each
    subcommand's historical seed default. A count below 1 ([--jobs],
    [--chunk], [--out-shards], [--window]) exits 2 naming the option. *)

val registry : common -> Obs.Registry.t
(** A fresh live registry when [--metrics] was given, {!Obs.Registry.null}
    otherwise. *)

val trace_sinks :
  common -> Obs.Registry.t -> jobs:int option -> Verif.Campaign.sink list
(** The [--trace] sinks: none without [--trace], a
    {!Verif.Campaign.jsonl_file_sink}, or a
    {!Verif.Campaign.sharded_jsonl_sink} over [jobs] jobs under
    [--out-shards]. Pass [~jobs:None] where the job count is decided
    while the campaign runs ([smc]); [--out-shards] then exits 2. An
    unwritable trace file exits 2 as [--trace: <message>]. *)

val execute :
  common -> Obs.Registry.t -> Verif.Campaign.job list ->
  Verif.Campaign.summary
(** Run the jobs on {!Verif.Campaign.run_stream} with the options' pool
    shape and window, the trace flowing to {!trace_sinks} while workers
    are still running. A sink failure exits 2 as [--trace: <message>].
    The summary's outcomes carry no events. *)

val write_metrics : common -> Obs.Registry.t -> unit
(** Write the metrics snapshot ([--metrics]). An unwritable file exits
    2 with the option named. *)
