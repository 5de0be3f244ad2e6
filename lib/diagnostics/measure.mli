(** How a benchmark spec becomes a simulation.

    Every tool that measures a {!Progen.Spec.t} — the driver, the
    diagnostics reports, the fleet, the bench harness — derives its
    pipeline configuration, its core model and its measurement run from
    here, so a given spec reads the same cycles wherever it is
    measured. *)

(** [interp_config spec] drives [spec.requests] requests of load. *)
val interp_config : Progen.Spec.t -> Exec.Interp.config

(** [pipeline_config spec] is the default Propeller configuration with
    the profiling load test and the text page size taken from [spec]. *)
val pipeline_config : Progen.Spec.t -> Propeller.Pipeline.config

(** [core_config spec] is the pressure-preserving core model
    (DESIGN.md §6): a program generated at [scale]:1 is measured with
    TLB pages shrunk by the same factor, [page_scale_bits = log2 scale],
    so TLB pressure matches the full-size program. Suite scales are
    powers of two. *)
val core_config : Progen.Spec.t -> Uarch.Core.config

(** [run ~ctx ~spec ~program binary] executes [binary] under
    {!interp_config} and drains the event tape into a fresh core built
    from {!core_config}; it returns the interpreter's statistics and the
    drained core. *)
val run :
  ctx:Support.Ctx.t ->
  spec:Progen.Spec.t ->
  program:Ir.Program.t ->
  Linker.Binary.t ->
  Exec.Interp.stats * Uarch.Core.t

(** [fall_through_rate stats] is layout quality as the hardware sees
    it: physically not-taken conditionals over all conditional and
    unconditional transfer sites. A good layout places the hot
    successor of a conditional next and relaxes away unconditional
    jumps, so the rate rises with layout quality. *)
val fall_through_rate : Exec.Interp.stats -> float
