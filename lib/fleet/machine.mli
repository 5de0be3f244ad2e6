(** One simulated fleet machine (paper §2, Fig 1: the profiled tier).

    A machine holds a deployed binary image, serves seeded request
    traffic through {!Exec.Interp.run} with an LBR collector and a
    {!Uarch.Core} teed on the event stream, and keeps a per-machine
    {!Obs.Timeseries} of its service health. Every serve round yields a
    profile {e shard} stamped with the digest of the image it was
    collected on — the aggregation tier uses that stamp to translate
    shards from older (or rolled-back) layouts before merging. *)

type t

(** One serve round's contribution to the fleet profile store. *)
type shard = {
  machine : int;
  generation : int;  (** Deployed generation when collected. *)
  digest : string;  (** Image digest (hex) the profile was observed on. *)
  requests : int;  (** Requests completed this round. *)
  cycles : float;  (** Modelled front-end cycles this round. *)
  cycles_per_request : float;
  fall_through_rate : float;  (** {!Diagnostics.Measure.fall_through_rate}. *)
  mispredict_rate : float;  (** Mispredicted LBR records / records. *)
  profile : Perfmon.Lbr.profile;
}

(** [create ~id ~program ~core_config ~clock ~generation binary] boots a
    machine with [binary] deployed. Its time-series store shares
    [clock] (the fleet round clock: one window per serve round);
    [window_s]/[capacity]/[decay] forward to {!Obs.Timeseries.create}. *)
val create :
  id:int ->
  program:Ir.Program.t ->
  core_config:Uarch.Core.config ->
  clock:Obs.Clock.t ->
  ?window_s:float ->
  ?capacity:int ->
  ?decay:float ->
  generation:int ->
  Linker.Binary.t ->
  t

val id : t -> int

val generation : t -> int

val binary : t -> Linker.Binary.t

(** [digest t] is the deployed image digest, in hex. *)
val digest : t -> string

(** [series t] is the machine's health time-series
    ([machine.requests], [machine.cycles_per_request],
    [machine.fall_through_rate], [machine.mispredict_rate]). *)
val series : t -> Obs.Timeseries.t

(** [deploy t ~generation binary] swaps the running image (canary push,
    promotion, or rollback). *)
val deploy : t -> generation:int -> Linker.Binary.t -> unit

(** [serve ~ctx ?source ?sampler t ~lbr ~requests] serves one round of
    traffic, records the round into the machine's time-series, and
    returns the profile shard. Under [source = Lbr] (default) the shard
    carries raw branch records; under [Sampled] the machine runs the
    software stack sampler (jitter seed salted per machine) and
    synthesizes the shard into LBR shape locally against its own
    deployed binary — the AutoFDO flow — so aggregation re-encodes it
    like any other shard. Sampled shards have an empty mispredict table
    and report [mispredict_rate = 0]. Deterministic: all randomness
    lives in the interpreter's and sampler's stateless hashes. *)
val serve :
  ctx:Support.Ctx.t ->
  ?source:Perfmon.Source.t ->
  ?sampler:Perfmon.Sampler.config ->
  t ->
  lbr:Perfmon.Lbr.config ->
  requests:int ->
  shard
