(** The per-run diagnostics record: profile quality + layout quality +
    µarch counter deltas, computed from one {!Propeller.Pipeline}
    result.

    This is what [propeller_stat] prints, what the bench JSON emitter
    embeds per benchmark, and what {!publish} pushes into a recorder's
    metrics registry as [diag.*] gauges — so a trace/metrics export of
    an instrumented run carries the run's quality verdict alongside its
    spans. Everything is a function of the simulated run: same seed,
    byte-identical {!to_json} output. *)

type uarch_delta = {
  speedup_pct : float;  (** Cycle improvement of opt vs base (+ = faster). *)
  cycles_pct : float;  (** Cycle delta (negative = fewer cycles). *)
  l1i_miss_pct : float;  (** I1: demand L1i misses. *)
  l2_code_miss_pct : float;  (** I2. *)
  l3_code_miss_pct : float;  (** I3. *)
  itlb_miss_pct : float;  (** T1. *)
  itlb_stall_pct : float;  (** T2: stall-causing iTLB misses. *)
  btb_resteer_pct : float;  (** B1: BACLEARS front-end resteers. *)
  taken_branch_pct : float;  (** B2. *)
  dsb_miss_pct : float;
}

(** [delta ~base ~opt] is the counter movement of [opt] relative to
    [base], in percent ({!Support.Stats.ratio_pct} per counter). *)
val delta : base:Uarch.Core.counters -> opt:Uarch.Core.counters -> uarch_delta

type t = {
  name : string;
  quality : Quality.t;
  layout : Layoutq.t;
  wpa_layout_score : float;  (** The objective WPA aimed for. *)
  hot_funcs : int;
  hot_objects : int;
  total_objects : int;
  phases : (string * float) list;  (** Phase name -> modelled seconds. *)
  uarch : uarch_delta option;  (** Present when both binaries were measured. *)
}

(** [analyze ~name ?counters ~result ()] computes the full record from a
    pipeline result. The DCFG is rebuilt from the metadata binary (the
    authoritative sample-to-block mapping); the layout score targets the
    optimized binary. [counters] carries (baseline, optimized) µarch
    measurements when the caller ran them. *)
val analyze :
  name:string ->
  ?counters:Uarch.Core.counters * Uarch.Core.counters ->
  result:Propeller.Pipeline.result ->
  unit ->
  t

val to_json : t -> Obs.Json.t

(** [to_text t] is the human-readable rendering (aligned key/value
    blocks, one per judgement area). *)
val to_text : t -> string

(** [publish ~ctx t] records every scalar as a [diag.<area>.<metric>]
    gauge on the context's recorder. *)
val publish : ctx:Support.Ctx.t -> t -> unit
