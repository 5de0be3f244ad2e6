(* Builds and memoizes every artifact an experiment can ask for about
   one benchmark: the program, the baseline / metadata / optimized /
   BOLT binaries, the shared hardware profile, and the measured
   performance counters of each binary. *)

type measurement = { stats : Exec.Interp.stats; counters : Uarch.Core.counters }

type t = {
  spec : Progen.Spec.t;
  program : Ir.Program.t;
  env : Buildsys.Driver.env;
  base : Buildsys.Driver.result;
  prop : Propeller.Pipeline.result;
  bm : Buildsys.Driver.result;  (* --emit-relocs build for BOLT *)
  bolt : Boltsim.Driver.result;
  mutable measured : (string * measurement) list;
}

let interp_config (spec : Progen.Spec.t) =
  { Exec.Interp.default_config with requests = spec.requests }

let pipeline_config (spec : Progen.Spec.t) =
  {
    Propeller.Pipeline.default_config with
    profile_run = interp_config spec;
    hugepages = spec.hugepages;
  }

let is_asm program f =
  match Ir.Program.find_func program f with
  | Some fn -> fn.Ir.Func.attrs.has_inline_asm
  | None -> false

let bolt_hazards (spec : Progen.Spec.t) =
  { Boltsim.Driver.rseq = spec.hazards.has_rseq; fips_check = spec.hazards.has_fips_check }

let log2i v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Pressure-preserving measurement core: programs generated at 1/2^k
   scale are measured with TLB pages shrunk by the same factor
   (DESIGN.md 6). *)
let core_config (spec : Progen.Spec.t) =
  {
    Uarch.Core.default_config with
    hugepages = spec.hugepages;
    page_scale_bits = log2i spec.scale;
  }

let build ~ctx spec =
  (* Phase 1 includes ThinLTO-style cross-unit inlining — the transform
     that makes instrumented profiles stale (paper 2.2). *)
  let program = Codegen.Inline.program (Progen.Generate.program spec) in
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.Progen.Spec.name in
  let prop =
    Propeller.Pipeline.run ~config:(pipeline_config spec) ~env ~program
      ~name:spec.Progen.Spec.name ()
  in
  (* The BM build shares codegen flags with the baseline, so its object
     actions all hit the cache; only the link differs. *)
  let bm =
    Buildsys.Driver.build env ~name:(spec.Progen.Spec.name ^ ".bm") ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  (* The same hardware profile drives Propeller and BOLT (§5
     methodology); PM and BM binaries share their text layout. *)
  let bolt =
    Boltsim.Driver.optimize ~ctx ~profile:prop.profile ~binary:bm.binary
      ~is_asm:(is_asm program) ~hazards:(bolt_hazards spec) ~name:spec.Progen.Spec.name ()
  in
  { spec; program; env; base; prop; bm; bolt; measured = [] }

let cache : (string, t) Hashtbl.t = Hashtbl.create 16

let get ~ctx spec =
  match Hashtbl.find_opt cache spec.Progen.Spec.name with
  | Some wb -> wb
  | None ->
    Printf.printf "[workbench: building %s ...]\n%!" spec.Progen.Spec.name;
    let wb = build ~ctx spec in
    Hashtbl.replace cache spec.Progen.Spec.name wb;
    wb

type variant = Base | Prop | Bolt

let variant_name = function Base -> "base" | Prop -> "propeller" | Bolt -> "bolt"

let binary wb = function
  | Base -> wb.base.binary
  | Prop -> Propeller.Pipeline.optimized_binary wb.prop
  | Bolt -> wb.bolt.Boltsim.Driver.binary

let measure wb variant =
  let key = variant_name variant in
  match List.assoc_opt key wb.measured with
  | Some m -> m
  | None ->
    let image = Exec.Image.build wb.program (binary wb variant) in
    let core = Uarch.Core.create (core_config wb.spec) in
    let stats =
      Exec.Interp.run_tape ~ctx:wb.env.Buildsys.Driver.ctx image (interp_config wb.spec)
        ~drain:(Uarch.Core.consume core)
    in
    let m = { stats; counters = Uarch.Core.counters core } in
    wb.measured <- (key, m) :: wb.measured;
    m

(* Performance improvement over baseline in the benchmark's own metric
   (walltime / latency / QPS all reduce to a cycle ratio here). *)
let improvement_pct wb variant =
  let b = (measure wb Base).counters.cycles in
  let v = (measure wb variant).counters.cycles in
  match wb.spec.metric with
  | `Walltime | `Latency -> (b -. v) /. b *. 100.0
  | `Qps -> ((b /. v) -. 1.0) *. 100.0

let metric_name (spec : Progen.Spec.t) =
  match spec.metric with `Walltime -> "Walltime" | `Latency -> "Latency" | `Qps -> "QPS"
