(** The execution context threaded through the build/relink pipeline:
    the run's telemetry scope, domain pool, pool width and
    fault-injection plan in one record.

    The context is the only owner of run-wide state. There is no
    process-global recorder or pool: every entry point that records,
    fans out or injects faults takes a required [~ctx], and each tool
    builds exactly one context from its [--jobs]/[--faults] flags and
    passes it down. *)

type t = {
  recorder : Obs.Recorder.t;  (** Telemetry scope (spans, counters). *)
  pool : Pool.t;  (** Domain pool for per-function/per-unit fan-out. *)
  jobs : int;  (** The pool's width, denormalized for reporting. *)
  faults : Faultsim.Plan.t option;
      (** The seeded fault plan driving this run's injected action
          failures, stragglers, cache rot and shard drops; [None]
          disables injection entirely (the fault-free fast path). *)
}

(** [create ()] assembles a context. [recorder] defaults to a fresh
    {!Obs.Recorder.create}; [pool] defaults to a fresh pool of width
    [jobs] (default 1), which the caller shuts down or leaves to the
    pool's at-exit backstop. [faults] defaults to no injection. *)
val create :
  ?recorder:Obs.Recorder.t ->
  ?pool:Pool.t ->
  ?jobs:int ->
  ?faults:Faultsim.Plan.t ->
  unit ->
  t

(** [with_recorder t r] is [t] recording into [r] instead. *)
val with_recorder : t -> Obs.Recorder.t -> t

(** [faults_active t] is true when a plan is present and any of its
    rates is positive. *)
val faults_active : t -> bool
