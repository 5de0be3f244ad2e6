(** Observability of the observer: how much layout quality do hardware
    branch records buy over portable software samples?

    Runs the full Propeller pipeline twice over the same workload — once
    per {!Perfmon.Source} — and reports the gap: per-function weight
    correlation between the two profiles, achieved fall-through rate and
    Ext-TSP score of each final layout, and ground-truth simulated
    cycles (base vs each optimized binary) from a shared {!Uarch.Core}
    measurement run. This is the experiment the Go PGO proposal ran
    informally when it chose pprof samples over LBRs and accepted the
    fidelity loss; here the loss is a number per workload. *)

(** One profile regime's half of the comparison. *)
type side = {
  source : Perfmon.Source.t;
  profile_samples : int;  (** Samples in the (possibly synthesized) profile. *)
  profile_records : int;
  distinct_edges : int;
  hot_funcs : int;
  exttsp_norm : float;  (** {!Layoutq} score of the final layout. *)
  fall_through_rate : float;
      (** Ground truth from executing the optimized binary: physically
          not-taken conditionals over all transfer sites. *)
  po_cycles : float;  (** Simulated cycles of the optimized binary. *)
  speedup_pct : float;  (** vs the shared baseline build. *)
}

type t = {
  name : string;
  requests : int;  (** Measurement-run request count. *)
  base_cycles : float;
  base_fall_through_rate : float;
  lbr : side;
  sampled : side;
  weight_correlation : float;
      (** Pearson correlation of per-function profile weight fractions
          across the two sources, over the union of hot functions. *)
  fall_through_gap : float;  (** lbr - sampled, achieved rate. *)
  cycle_gap_pct : float;
      (** How much slower the sampled-profile binary runs than the
          LBR-profile one, in percent (positive = LBR wins). *)
}

(** [analyze ~spec ~ctx ~program ()] runs both pipelines (sharing one
    build env, so the identical metadata phase is built once) plus a
    baseline build, measures all three binaries through {!Measure.run},
    and assembles the gap report. Configuration, core model and request
    count all come from [spec]. Deterministic for a fixed [spec].
    Pipeline telemetry lands in [ctx]'s recorder. *)
val analyze : spec:Progen.Spec.t -> ctx:Support.Ctx.t -> program:Ir.Program.t -> unit -> t

val to_json : t -> Obs.Json.t

val to_text : t -> string
