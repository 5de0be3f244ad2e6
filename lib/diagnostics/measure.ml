let interp_config (spec : Progen.Spec.t) =
  { Exec.Interp.default_config with requests = spec.requests }

let pipeline_config (spec : Progen.Spec.t) =
  {
    Propeller.Pipeline.default_config with
    profile_run = interp_config spec;
    hugepages = spec.hugepages;
  }

let log2i v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let core_config (spec : Progen.Spec.t) =
  {
    Uarch.Core.default_config with
    hugepages = spec.hugepages;
    page_scale_bits = log2i spec.scale;
  }

let run ~ctx ~spec ~program binary =
  let image = Exec.Image.build program binary in
  let core = Uarch.Core.create (core_config spec) in
  let stats =
    Exec.Interp.run_tape ~ctx image (interp_config spec) ~drain:(Uarch.Core.consume core)
  in
  (stats, core)

let fall_through_rate (stats : Exec.Interp.stats) =
  let sites = stats.cond_branches + stats.uncond_jumps in
  if sites = 0 then 0.0
  else float_of_int (stats.cond_branches - stats.cond_taken) /. float_of_int sites
