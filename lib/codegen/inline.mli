(** ThinLTO-style cross-module inlining (paper §2.3, §3.1).

    Phase 1 runs every middle-end optimization, including summary-based
    cross-unit function importing and inlining, *before* the
    profile-mapping metadata is emitted. This module models that pass:
    hot call sites to small functions are replaced by a spliced copy of
    the callee's CFG.

    Inlining is also where instrumented-PGO profiles go stale (paper
    §2.2): the inlined copy's branches execute in a new context the
    training run never attributed, modelled by extra noise
    ([dilution_noise]) on the PGO estimates of cloned blocks — while
    the *true* probabilities (what hardware profiling later observes)
    are preserved. *)

type config = {
  max_callee_blocks : int;  (** Only small callees are inlined. *)
  max_inlines_per_func : int;  (** Growth budget per caller. *)
  hot_site_freq : float;
      (** Minimum PGO-estimated block frequency of the call site. *)
  dilution_noise : float;
      (** Extra uniform noise applied to cloned PGO estimates. *)
  seed : int64;
}

val default_config : config

(** [func ?config ~program f] inlines eligible call sites of [f];
    returns the rewritten function and how many sites were inlined. *)
val func : ?config:config -> program:Ir.Program.t -> Ir.Func.t -> Ir.Func.t * int

(** [program ?config p] applies {!func} to every function. The
    returned program is a valid {!Ir.Program.t} (revalidated). *)
val program : ?config:config -> Ir.Program.t -> Ir.Program.t
