(* The benchmark's workloads and their ops.

   Every workload optimizes one generated program with the full
   Propeller pipeline. The timed pass calls [Propeller.Pipeline.run],
   exactly as a user would. The traced pass rebuilds the same op from
   calls to each layer's public functions, each wrapped in a {!Span},
   and must produce the same optimized image digest. *)

type kind =
  | Cold  (** Every op is a full pipeline run on a fresh env. *)
  | Relink  (** Every op relinks on one primed env, with a new profile. *)

type t = {
  name : string;
  kind : kind;
  spec : Progen.Spec.t;  (** Suite spec; its seed is the default seed. *)
  requests : int;  (** Profiling load test and each simulation. *)
  setups : int;
      (** Set-ups per timed run; setup_s is their median. A clang
          set-up takes 10-13 s, and every repeat adds the objects it
          builds to the toolchain's never-evicted global tables (nearly
          1 GB of resident memory), so clang-relink sets up once. *)
}

let mcf = Option.get (Progen.Suite.by_name "505.mcf")

(* Every workload runs at pool width 1: on a host of a few shared
   cores a wider pool times the scheduler, not the program, and the
   instruction counter of the timed pass counts one thread only. *)
let all =
  [
    {
      name = "clang-relink";
      kind = Relink;
      spec = Progen.Suite.clang;
      requests = Progen.Suite.clang.requests;
      setups = 1;
    };
    { name = "mcf-loadtest"; kind = Cold; spec = mcf; requests = 2000; setups = 3 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* A run's load-test seed shifts every profiling run by a few requests,
   so different seeds profile different request streams of the same
   program. The relink loop adds op [i]'s deterministic perturbation on
   top: op [i]'s load test runs [i] more requests (paper Phase 4
   iterations). The modulus bounds the extra profiling work. *)
let load_offset seed = abs (Int64.to_int (Int64.rem seed 64L))

let perturbation w i = match w.kind with Relink -> i | Cold -> 0

let pipeline_config w ~load i =
  {
    Propeller.Pipeline.default_config with
    profile_run =
      { Exec.Interp.default_config with requests = w.requests + load + perturbation w i };
    hugepages = w.spec.hugepages;
  }

let sim_config w = { Exec.Interp.default_config with requests = w.requests }

let log2i v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Programs generated at 1/2^k scale are measured with TLB pages
   shrunk by the same factor, as the paper-reproduction bench does. *)
let core_config (spec : Progen.Spec.t) =
  { Uarch.Core.default_config with hugepages = spec.hugepages; page_scale_bits = log2i spec.scale }

type measurement = { stats : Exec.Interp.stats; counters : Uarch.Core.counters }

type outcome = { binary : Linker.Binary.t; base : measurement; opt : measurement }
(** One op's optimized binary and the simulations of base and
    optimized binaries on the same requests. *)

let digest o = Support.Digesting.to_hex (Linker.Binary.image_digest o.binary)

let speedup_pct o =
  let b = o.base.counters.cycles in
  (b -. o.opt.counters.cycles) /. b *. 100.0

type state = {
  w : t;
  load : int;  (** {!load_offset} of the run's seed. *)
  program : Ir.Program.t;
  pool : Support.Pool.t;  (** Width-1 pool of {!op}. *)
  base_binary : Linker.Binary.t;
  base : measurement option;
      (** The base binary's simulation, run once in set-up on a primed
          env ([Relink]), whose ops then simulate only the optimized
          binary; [None] when every op simulates both. *)
  warm : Buildsys.Driver.env option;  (** The primed env of [Relink]. *)
  progen_s : float;
}

let fresh_ctx pool = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~pool ()

let within sp name f = match sp with Some sp -> Span.run sp name f | None -> f ()

(* Simulates [binary] on the workload's requests through exec and
   uarch. With a span profiler, the interpreter runs in an "exec" span
   and every uarch drain in a nested "uarch" span. *)
let simulate ?sp ~ctx (st : state) binary =
  let image = within sp "exec" (fun () -> Exec.Image.build st.program binary) in
  let core = within sp "uarch" (fun () -> Uarch.Core.create (core_config st.w.spec)) in
  let stats =
    within sp "exec" (fun () ->
        Exec.Interp.run_tape ~ctx image (sim_config st.w) ~drain:(fun tape ->
            within sp "uarch" (fun () -> Uarch.Core.consume core tape)))
  in
  { stats; counters = Uarch.Core.counters core }

let outcome ?sp ~ctx (st : state) opt_binary =
  let opt = simulate ?sp ~ctx st opt_binary in
  let base =
    match st.base with Some b -> b | None -> simulate ?sp ~ctx st st.base_binary
  in
  { binary = opt_binary; base; opt }

let pipeline st env i =
  Propeller.Pipeline.run ~config:(pipeline_config st.w ~load:st.load i) ~env ~program:st.program
    ~name:st.w.spec.name ()

(* The timed op: the pipeline as a user runs it, then the optimized
   binary (and the base binary, unless set-up simulated it) simulated on
   the same requests. *)
let op st i =
  let env =
    match st.warm with
    | Some env -> env
    | None -> Buildsys.Driver.make_env ~ctx:(fresh_ctx st.pool) ()
  in
  outcome ~ctx:env.ctx st (Propeller.Pipeline.optimized_binary (pipeline st env i))

let prime st =
  let env = Buildsys.Driver.make_env ~ctx:(fresh_ctx st.pool) () in
  ignore (pipeline st env 0);
  env

(* Index of the set-up warm-up op; timed ops follow it. The relink
   priming run uses perturbation 0, so its first relink is op 1. *)
let warmup_index w = match w.kind with Relink -> 1 | Cold -> 0

(* Set-up: progen and inlining, the base build, the relink priming run
   and the base simulation where the op does not repeat it. The
   warm-up op is run by the caller, which checks its outcome. *)
let setup w ~program_seed ~seed =
  let t0 = Obs.Hostclock.now () in
  let program =
    Codegen.Inline.program
      (Progen.Generate.program { w.spec with Progen.Spec.seed = program_seed })
  in
  let progen_s = Obs.Hostclock.now () -. t0 in
  let pool = Support.Pool.create ~jobs:1 () in
  let base_env = Buildsys.Driver.make_env ~ctx:(fresh_ctx pool) () in
  let base_binary =
    (Propeller.Pipeline.baseline_build ~env:base_env ~program ~name:w.spec.name).binary
  in
  let st =
    { w; load = load_offset seed; program; pool; base_binary; base = None; warm = None; progen_s }
  in
  match w.kind with
  | Relink ->
    let st = { st with base = Some (simulate ~ctx:(fresh_ctx pool) st base_binary) } in
    { st with warm = Some (prime st) }
  | Cold -> st

(* {1 Output check} *)

(* Execution quantities that do not depend on layout: a correct
   relink executes exactly what the base binary executes. *)
let invariants (s : Exec.Interp.stats) =
  [
    ("requests", s.requests_completed);
    ("blocks", s.blocks_executed);
    ("calls", s.calls);
    ("returns", s.returns);
    ("cond_branches", s.cond_branches);
    ("delinquent_loads", s.dloads);
  ]

let check (o : outcome) =
  let diffs =
    List.filter_map
      (fun ((k, b), (_, v)) -> if b = v then None else Some (Printf.sprintf "%s %d<>%d" k b v))
      (List.combine (invariants o.base.stats) (invariants o.opt.stats))
  in
  if diffs = [] then Ok () else Error ("optimized binary diverges: " ^ String.concat ", " diffs)

(* {1 Failure accounting} *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let fail tally label msg =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "%s: %s\n%!" label msg

let attempt f = try Ok (f ()) with e -> Error e

(* Settles one op's result: a raise or a failed {!check} counts the op
   as failed. *)
let settle tally label r =
  tally.attempted <- tally.attempted + 1;
  match r with
  | Error e ->
    fail tally label ("raised " ^ Printexc.to_string e);
    None
  | Ok o -> (
    match check o with
    | Ok () -> Some o
    | Error msg ->
      fail tally label msg;
      None)

(* {1 Traced pass} *)

type build_counts = {
  mutable hits : int;
  mutable compiled : int;
  mutable input_sections : int;
  mutable relax_iters : int;
  mutable deleted_jumps : int;
}

let new_counts () =
  { hits = 0; compiled = 0; input_sections = 0; relax_iters = 0; deleted_jumps = 0 }

(* [Buildsys.Driver.build] rebuilt from its layers: per unit an action
   key, a cache lookup, and on a miss a compile and a cache store; then
   one link. Returns the binary. *)
let traced_build sp ~ctx counts (env : Buildsys.Driver.env) ~name ~program
    (codegen_options, link_options) =
  let objs =
    List.map
      (fun u ->
        let key =
          Span.run sp "buildsys.key" (fun () -> Buildsys.Driver.unit_action_key u codegen_options)
        in
        match Span.run sp "buildsys.cache" (fun () -> Buildsys.Cache.find env.obj_cache key) with
        | Some obj ->
          counts.hits <- counts.hits + 1;
          obj
        | None ->
          counts.compiled <- counts.compiled + 1;
          let obj = Span.run sp "codegen" (fun () -> Codegen.compile_unit ~ctx codegen_options u) in
          Span.run sp "buildsys.cache" (fun () ->
              Buildsys.Cache.add env.obj_cache key ~size:Objfile.File.total_size obj);
          obj)
      (Ir.Program.units program)
  in
  let o =
    Span.run sp "linker" (fun () ->
        Linker.Link.link ~ctx ~options:link_options ~name ~entry:(Ir.Program.main program) objs)
  in
  counts.input_sections <- counts.input_sections + o.stats.num_input_sections;
  counts.relax_iters <- counts.relax_iters + o.stats.relax_iters;
  counts.deleted_jumps <- counts.deleted_jumps + o.stats.deleted_jumps;
  o.binary

type traced = {
  t_outcome : outcome;
  traced_s : float;  (** Host time of the whole traced op. *)
  builds : build_counts;
  profile : Perfmon.Lbr.profile;
  wpa : Propeller.Wpa.result;
  exec_requests : int;
  exec_blocks : int;
}

(* Op [i] rebuilt at pool width 1 from layer calls, in a root "op"
   span whose self time is the time no layer span covers. *)
let traced_op sp st i =
  let ctx = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~jobs:1 () in
  let env = match st.warm with Some env -> env | None -> Buildsys.Driver.make_env ~ctx () in
  let config = pipeline_config st.w ~load:st.load i in
  let name = st.w.spec.name and program = st.program in
  let counts = new_counts () in
  let t0 = Obs.Hostclock.now () in
  Span.run sp "op" @@ fun () ->
  let md =
    traced_build sp ~ctx counts env ~name:(name ^ ".pm1") ~program
      Propeller.Pipeline.metadata_options
  in
  let profile = Perfmon.Lbr.create_profile () in
  let collector = Perfmon.Lbr.collector_state config.lbr profile in
  let image = Span.run sp "exec" (fun () -> Exec.Image.build program md) in
  let pstats =
    Span.run sp "exec" (fun () ->
        Exec.Interp.run_tape ~ctx image config.profile_run ~drain:(fun tape ->
            Span.run sp "perfmon.lbr" (fun () -> Perfmon.Lbr.consume collector tape)))
  in
  let wpa =
    Span.run sp "wpa" (fun () ->
        Propeller.Wpa.analyze ~config:config.wpa ~ctx ~layout_cache:env.layout_cache
          ~profile:(Propeller.Wpa.Lbr profile) ~binary:md ())
  in
  let po =
    traced_build sp ~ctx counts env ~name:(name ^ ".po1") ~program
      (Propeller.Pipeline.optimize_options ~hugepages:config.hugepages wpa)
  in
  let o = outcome ~sp ~ctx st po in
  let traced_s = Obs.Hostclock.now () -. t0 in
  let sims = o.opt.stats :: (if st.base = None then [ o.base.stats ] else []) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 (pstats :: sims) in
  {
    t_outcome = o;
    traced_s;
    builds = counts;
    profile;
    wpa;
    exec_requests = sum (fun s -> s.Exec.Interp.requests_completed);
    exec_blocks = sum (fun s -> s.Exec.Interp.blocks_executed);
  }
