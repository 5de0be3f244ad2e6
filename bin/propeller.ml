(* propeller: the one command-line front end of the toolchain.

   End to end — build, profile, relink and measure one benchmark:
     dune exec bin/propeller.exe -- run -b 505.mcf -r 40
     dune exec bin/propeller.exe -- run -b 505.mcf --faults seed=7,action=0.2

   Profile- and layout-quality diagnostics, bench regression diffs, the
   optimizer's own hotspots, the LBR-vs-sampled fidelity gap and the
   cycle-fitness layout search:
     dune exec bin/propeller.exe -- stat -b 505.mcf --json
     dune exec bin/propeller.exe -- stat diff baseline.json current.json
     dune exec bin/propeller.exe -- stat {top,fidelity,search} -b 505.mcf

   Binary introspection (LBR annotation, byte accounting, hot paths,
   layout diff, JSON validation):
     dune exec bin/propeller.exe -- inspect {annotate,size,paths,diff} -b 505.mcf
     dune exec bin/propeller.exe -- inspect validate FILE...

   The continuous profiling loop over a simulated fleet (paper §2, Fig 1):
     dune exec bin/propeller.exe -- fleet run --machines 4 --cycles 3 --seed 7

   The standalone whole-program-analysis tool (the paper's [29],
   create_llvm_prof) and the BOLT-style post-link baseline:
     dune exec bin/propeller.exe -- wpa -b clang --cc-out cc_prof.txt --ld-out ld_prof.txt
     dune exec bin/propeller.exe -- bolt -b clang --lite

   Everything runs on simulated clocks: the same flags produce
   byte-identical reports at any --jobs width. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared flags. Every subcommand parses them through these terms, so   *)
(* they spell and behave identically everywhere.                        *)

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain pool width for per-function/per-unit fan-out (default 1). Outputs are \
           byte-identical for any N.")

let seed_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Override the fault plan's seed (see $(b,--faults)). The same seed and plan \
           replay the same faults, byte-identically. Inert without $(b,--faults).")

let faults_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Arm seeded fault injection. $(docv) is a comma-separated key=value spec, e.g. \
           $(b,seed=7,action=0.2,corrupt=0.1,straggle=0.1,shard-drop=0.05). Keys: seed, \
           action, persist, straggle, straggle-factor, corrupt, shard-drop, shards, \
           attempts, backoff, backoff-mult.")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the run (load in Perfetto / chrome://tracing).")

let metrics_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the metrics report as JSON to $(docv).")

let self_profile_term =
  Arg.(
    value
    & flag
    & info [ "self-profile" ]
        ~doc:
          "Record host wall-clock and GC deltas per span and print the tool's own hotspot \
           table after the run. Never perturbs simulated metrics or image digests.")

let self_profile_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "self-profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the self-profile (per-path host seconds, allocation, GC counts) as JSON \
           to $(docv). Implies $(b,--self-profile).")

(* Enum-valued flag converter: an unknown value is a usage error (exit
   124 via Cmdliner) that names each valid value, never a bare
   exception. Used for --variant, --profile-source and --layout-policy. *)
let enum_conv ~what values =
  let alts = String.concat ", " (List.map fst values) in
  let parse s =
    match List.assoc_opt s values with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "invalid %s %S; valid values are: %s" what s alts))
  in
  let print fmt v =
    match List.find_opt (fun (_, v') -> v' = v) values with
    | Some (name, _) -> Format.pp_print_string fmt name
    | None -> Format.pp_print_string fmt "<unknown>"
  in
  Arg.conv (parse, print)

let profile_source_term =
  let source_conv =
    enum_conv ~what:"profile source"
      (List.map (fun s -> (Perfmon.Source.to_string s, s)) Perfmon.Source.all)
  in
  Arg.(
    value
    & opt source_conv Perfmon.Source.Lbr
    & info [ "profile-source" ] ~docv:"SOURCE"
        ~doc:
          "Where the layout profile comes from: $(b,lbr) (hardware branch records, the \
           paper's path) or $(b,sampled) (portable software stack sampler; CFG edge \
           weights are synthesized AutoFDO-style, no mispredict bits).")

(* String-valued on purpose: Wpa.config stores the policy name and
   resolves it against [Layout.Policy.all] at use, and that list is the
   single source of truth for what is valid. *)
let layout_policy_term =
  let policy_conv =
    enum_conv ~what:"layout policy" (List.map (fun n -> (n, n)) Layout.Policy.names)
  in
  Arg.(
    value
    & opt policy_conv "exttsp"
    & info [ "layout-policy" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Block-layout policy for WPA. Valid values: %s. The default $(b,exttsp) is the \
              paper's Ext-TSP; the others are the pluggable alternatives the layout-search \
              harness tournaments over."
             (String.concat ", " Layout.Policy.names)))

let benchmark_term =
  Arg.(value & opt string "505.mcf" & info [ "b"; "benchmark" ] ~doc:"Benchmark name (Table 2).")

let requests_term =
  Arg.(value & opt (some int) None & info [ "r"; "requests" ] ~doc:"Workload requests override.")

let json_term = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")

(* The shared flags bundled, for the inspect subcommands that all take
   them. *)
type common = {
  jobs : int option;
  seed : int option;
  faults : string option;
  trace : string option;
  metrics_out : string option;
  self_profile : bool;
  self_profile_out : string option;
}

let common_term =
  let make jobs seed faults trace metrics_out self_profile self_profile_out =
    { jobs; seed; faults; trace; metrics_out; self_profile; self_profile_out }
  in
  Term.(
    const make $ jobs_term $ seed_term $ faults_term $ trace_term $ metrics_out_term
    $ self_profile_term $ self_profile_out_term)

(* ------------------------------------------------------------------ *)
(* Shared plumbing.                                                     *)

let write_file file contents =
  match open_out file with
  | oc ->
    output_string oc contents;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" file msg;
    exit 1

(* Resolve a benchmark name (exit 2 with the known list on a miss) and
   apply the --requests override. *)
let lookup_spec ~benchmark ~requests =
  match Progen.Suite.by_name benchmark with
  | None ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" benchmark
      (String.concat ", " (List.map (fun (s : Progen.Spec.t) -> s.name) Progen.Suite.all));
    exit 2
  | Some spec -> (
    match requests with
    | Some r -> { spec with Progen.Spec.requests = r }
    | None -> spec)

(* Turn the shared flags into the run's one execution context: a fresh
   recorder, a pool of --jobs width (validated), the --faults plan (exit
   2 on a bad spec) with --seed overriding its seed. *)
let context ?(jobs = None) ?(seed = None) ?(faults = None) ?(self_profile = false)
    ?(self_profile_out = None) () =
  (match jobs with
  | Some j when j < 1 ->
    Printf.eprintf "--jobs: expected a positive pool width, got %d\n" j;
    exit 2
  | Some _ | None -> ());
  let plan =
    match faults with
    | None -> None
    | Some spec -> (
      match Faultsim.Plan.of_spec spec with
      | Error e ->
        Printf.eprintf "--faults: %s\n" e;
        exit 2
      | Ok p -> (
        match seed with
        | Some s -> Some { p with Faultsim.Plan.seed = s }
        | None -> Some p))
  in
  let ctx = Support.Ctx.create ?jobs ?faults:plan () in
  if self_profile || self_profile_out <> None then
    Obs.Recorder.enable_self_profile ctx.Support.Ctx.recorder;
  ctx

(* Export the run's recorder as the shared flags request. The trace is
   re-parsed with our own JSON parser before it leaves the tool, so the
   smoke scripts need no external JSON tooling. *)
let export_recorder recorder ~trace ~metrics_out =
  (match trace with
  | None -> ()
  | Some file ->
    let contents = Obs.Recorder.trace_json recorder in
    write_file file contents;
    (match Obs.Json.parse contents with
    | Ok _ ->
      Printf.printf "trace: %d events -> %s (valid JSON)\n"
        (Obs.Trace.num_events (Obs.Recorder.trace recorder))
        file
    | Error e ->
      Printf.eprintf "trace: INVALID JSON written to %s: %s\n" file e;
      exit 1));
  match metrics_out with
  | None -> ()
  | Some file ->
    write_file file (Obs.Recorder.metrics_json recorder);
    Printf.printf "metrics: %s\n" file

(* Export / render the self-profile as the shared flags request. Same
   validate-before-leaving discipline as the trace export. *)
let export_self_profile recorder ~self_profile ~self_profile_out =
  if self_profile || self_profile_out <> None then begin
    let sp = Obs.Recorder.selfprof recorder in
    (match self_profile_out with
    | None -> ()
    | Some file ->
      let contents = Obs.Json.to_string (Obs.Selfprof.to_json sp) ^ "\n" in
      write_file file contents;
      (match Obs.Json.parse contents with
      | Ok _ -> Printf.printf "self-profile: %s (valid JSON)\n" file
      | Error e ->
        Printf.eprintf "self-profile: INVALID JSON written to %s: %s\n" file e;
        exit 1));
    let hotspots = Obs.Selfprof.hotspots ~limit:10 sp in
    if hotspots <> [] then begin
      print_endline "self-profile hotspots (host time, coordinator domain):";
      print_string (Obs.Selfprof.render_hotspots hotspots)
    end
  end

(* Run [f] under the flight recorder's crash guard: on any exception the
   recorder's last-K event ring is dumped to stderr before the exception
   propagates, so a crash report carries the run's final moments. *)
let with_flight_guard recorder f =
  try f ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    prerr_string (Obs.Recorder.flight_dump recorder);
    Printexc.raise_with_backtrace exn bt

(* Every emitted JSON document round-trips through the parser before it
   leaves the tool; a document we cannot re-read is a bug, not output. *)
let emit ~json ~out ~to_json ~to_text =
  let rendered =
    if json then begin
      let s = Obs.Json.to_string (to_json ()) ^ "\n" in
      match Obs.Json.parse s with
      | Ok _ -> s
      | Error e ->
        Printf.eprintf "internal error: emitted JSON does not parse: %s\n" e;
        exit 1
    end
    else to_text ()
  in
  match out with
  | Some file -> write_file file rendered
  | None -> print_string rendered

let read_json label file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "cannot read %s %s: %s\n" label file msg;
    exit 2
  | contents -> (
    match Obs.Json.parse contents with
    | Ok v -> v
    | Error e ->
      Printf.eprintf "%s %s: invalid JSON: %s\n" label file e;
      exit 2)

(* A pipeline run holds a metadata build and an optimized build; when a
   fault plan is armed, print their summed fault accounting as one
   resilience line and dump the flight ring if the run degraded (the
   events leading up to a degradation are what a postmortem wants, and
   the dump is deterministic under replay). Fault-free output stays
   unchanged. *)
let report_resilience ~ctx (result : Propeller.Pipeline.result) =
  if Support.Ctx.faults_active ctx then begin
    let a = result.metadata_build.faults and b = result.optimized_build.faults in
    let shards_dropped = result.wpa.shards_dropped
    and dropped_hot_funcs = result.wpa.dropped_hot_funcs in
    let degraded = a.degraded + b.degraded in
    Printf.printf
      "resilience: %d injected (%d retried, %d cache-corrupt, %d stragglers/%d speculated, \
       %d shards dropped), %d degraded (%d fallback objects, %d hot funcs on baseline \
       layout)\n"
      (a.injected + b.injected + shards_dropped)
      (a.retried + b.retried)
      (a.corrupt_evicted + b.corrupt_evicted)
      (a.stragglers + b.stragglers) (a.speculated + b.speculated) shards_dropped
      (degraded + dropped_hot_funcs) (a.fallbacks + b.fallbacks) dropped_hot_funcs;
    if degraded > 0 then print_string (Obs.Recorder.flight_dump ctx.Support.Ctx.recorder)
  end

(* The run every benchmark command starts from: generate the program,
   build the PGO baseline and run the four Propeller phases in one build
   env, so the phases share its caches. *)
type bench = {
  spec : Progen.Spec.t;
  program : Ir.Program.t;
  env : Buildsys.Driver.env;
  base : Buildsys.Driver.result;
  result : Propeller.Pipeline.result;
}

let run_bench ~ctx ~(spec : Progen.Spec.t) config =
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.name in
  let result = Propeller.Pipeline.run ~config ~env ~program ~name:spec.name () in
  { spec; program; env; base; result }

(* Measure the baseline and the optimized binary on the spec's core and
   publish each run's counters as uarch.base.* / uarch.propeller.*. *)
let measure_bench ~ctx b =
  let measure name binary =
    let _, core = Diagnostics.Measure.run ~ctx ~spec:b.spec ~program:b.program binary in
    Uarch.Core.publish ~ctx ~name core;
    Uarch.Core.counters core
  in
  let cb = measure "base" b.base.binary in
  let cp = measure "propeller" (Propeller.Pipeline.optimized_binary b.result) in
  (cb, cp)

(* Profile [binary] under the benchmark's load with the LBR collector —
   the collection the pipeline's Phase 3 performs. *)
let lbr_profile ~ctx ~spec ~program binary =
  let image = Exec.Image.build program binary in
  let profile = Perfmon.Lbr.create_profile () in
  let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run_tape ~ctx image (Diagnostics.Measure.interp_config spec)
      ~drain:(Perfmon.Lbr.consume c)
  in
  profile

(* ------------------------------------------------------------------ *)
(* run: the full pipeline on a named benchmark, with sizes, phase costs *)
(* and simulated performance.                                           *)

let run_run benchmark requests profile_source layout_policy interproc no_split hugepages
    prefetch jobs seed faults verbose trace_file metrics metrics_out self_profile
    self_profile_out =
  let ctx = context ~jobs ~seed ~faults ~self_profile ~self_profile_out () in
  with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = lookup_spec ~benchmark ~requests in
  (* --hugepages maps the text with 2M pages in the relink and in the
     measurement core alike. *)
  let spec = if hugepages then { spec with hugepages = true } else spec in
  Printf.printf "generating %s (scale %d:1)...\n%!" spec.name spec.scale;
  let config =
    {
      (Diagnostics.Measure.pipeline_config spec) with
      prefetch;
      profile_source;
      wpa =
        {
          Propeller.Wpa.default_config with
          mode = (if interproc then Propeller.Wpa.Interproc else Propeller.Wpa.Intra);
          layout_policy;
          split_functions = not no_split;
        };
    }
  in
  let b = run_bench ~ctx ~spec config in
  let result = b.result in
  Printf.printf "  %d funcs, %d blocks, %d code bytes\n%!" (Ir.Program.num_funcs b.program)
    (Ir.Program.num_blocks b.program) (Ir.Program.code_bytes b.program);
  Printf.printf "phase 2 (metadata build): %.1fs wall\n" result.times.metadata_build_s;
  Printf.printf "phase 3 (profile + WPA, source %s): %d samples, %d hot funcs, %.1fs, peak %.2f GB\n"
    (Perfmon.Source.to_string result.source) result.profile.num_samples result.wpa.hot_funcs
    result.times.conversion_s
    (float_of_int result.wpa.peak_mem_bytes /. 1.0e9);
  (match result.samples with
  | Some sw ->
    Printf.printf "  software sampler: %d samples, %d frames, %d distinct leaf PCs\n"
      sw.Perfmon.Sampler.num_samples sw.Perfmon.Sampler.num_frames
      (Perfmon.Sampler.distinct_leaves sw)
  | None -> ());
  Printf.printf "phase 4 (relink): %d/%d objects re-generated, %.1fs wall\n"
    result.hot_objects result.total_objects result.times.optimize_build_s;
  Printf.printf "layout cache: %d hits, %d misses (jobs=%d)\n"
    result.wpa.layout_cache_hits result.wpa.layout_cache_misses
    (Support.Pool.jobs (Buildsys.Driver.pool b.env));
  Printf.printf "image digest: %s\n"
    (Support.Digesting.to_hex
       (Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary result)));
  report_resilience ~ctx result;
  (match result.prefetch with
  | Some p ->
    Printf.printf "prefetch (3.5): %d insertion sites covering %d/%d sampled misses\n"
      (List.length p.sites) p.covered_misses p.sampled_misses
  | None -> ());
  if verbose then begin
    print_endline "--- cc_prof.txt ---";
    print_string (Codegen.Directive.to_text result.wpa.plans);
    print_endline "--- ld_prof.txt ---";
    List.iter print_endline result.wpa.ordering
  end;
  let cb, cp = measure_bench ~ctx b in
  let d = Diagnostics.Report.delta ~base:cb ~opt:cp in
  Printf.printf "performance: baseline %.3e cycles -> propeller %.3e cycles (%+.2f%%)\n"
    cb.cycles cp.cycles d.speedup_pct;
  Printf.printf "counters vs baseline: L1i %+.0f%%  iTLB %+.0f%%  taken-branches %+.0f%%\n"
    d.l1i_miss_pct d.itlb_miss_pct d.taken_branch_pct;
  let recorder = Buildsys.Driver.recorder b.env in
  if metrics then print_string (Obs.Recorder.metrics_report recorder);
  export_recorder recorder ~trace:trace_file ~metrics_out;
  export_self_profile recorder ~self_profile ~self_profile_out

let run_cmd =
  let interproc =
    Arg.(value & flag & info [ "interproc" ] ~doc:"Inter-procedural layout (paper 4.7).")
  in
  let no_split = Arg.(value & flag & info [ "no-split" ] ~doc:"Disable hot/cold splitting.") in
  let hugepages = Arg.(value & flag & info [ "hugepages" ] ~doc:"Map text with 2M pages.") in
  let prefetch =
    Arg.(value & flag & info [ "prefetch" ] ~doc:"Software prefetch insertion (paper 3.5).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump cc_prof/ld_prof.") in
  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ] ~doc:"Print the metrics report (counters/gauges/histograms).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Profile guided, relinking optimizer (end to end)")
    Term.(
      const run_run $ benchmark_term $ requests_term $ profile_source_term $ layout_policy_term
      $ interproc $ no_split $ hugepages $ prefetch $ jobs_term $ seed_term $ faults_term
      $ verbose $ trace_term $ metrics $ metrics_out_term $ self_profile_term
      $ self_profile_out_term)

(* ------------------------------------------------------------------ *)
(* stat: profile-quality and layout-quality diagnostics.                *)

let run_stat benchmark requests profile_source layout_policy jobs seed faults json out trace
    metrics_out self_profile self_profile_out =
  let ctx = context ~jobs ~seed ~faults ~self_profile ~self_profile_out () in
  with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = lookup_spec ~benchmark ~requests in
  if not json then Printf.printf "running pipeline on %s...\n%!" spec.name;
  let config =
    {
      (Diagnostics.Measure.pipeline_config spec) with
      profile_source;
      wpa = { Propeller.Wpa.default_config with layout_policy };
    }
  in
  let b = run_bench ~ctx ~spec config in
  let result = b.result and env = b.env in
  let counters = measure_bench ~ctx b in
  let report = Diagnostics.Report.analyze ~name:spec.name ~counters ~result () in
  Diagnostics.Report.publish ~ctx report;
  if not json then begin
    Printf.printf
      "relink caches: layout %d hits / %d misses; objects %d hits / %d misses (jobs=%d)\n"
      result.wpa.layout_cache_hits result.wpa.layout_cache_misses
      (Buildsys.Cache.hits env.Buildsys.Driver.obj_cache)
      (Buildsys.Cache.misses env.Buildsys.Driver.obj_cache)
      (Support.Pool.jobs (Buildsys.Driver.pool env));
    report_resilience ~ctx result
  end;
  emit ~json ~out
    ~to_json:(fun () -> Diagnostics.Report.to_json report)
    ~to_text:(fun () -> Diagnostics.Report.to_text report);
  Option.iter (Printf.printf "diagnostics: %s\n") out;
  let recorder = Buildsys.Driver.recorder env in
  export_recorder recorder ~trace ~metrics_out;
  export_self_profile recorder ~self_profile ~self_profile_out

let stat_run_term =
  Term.(
    const run_stat $ benchmark_term $ requests_term $ profile_source_term $ layout_policy_term
    $ jobs_term $ seed_term $ faults_term $ json_term $ out_term $ trace_term $ metrics_out_term
    $ self_profile_term $ self_profile_out_term)

let run_diff baseline_file current_file threshold quiet =
  let baseline = read_json "baseline" baseline_file in
  let current = read_json "current" current_file in
  match Diagnostics.Compare.compare ~threshold_pct:threshold ~baseline ~current () with
  | Error e ->
    Printf.eprintf "diff error: %s\n" e;
    exit 2
  | Ok outcome ->
    if not quiet then begin
      (* Verdict lines are the machine-parseable product and stay on
         stdout; NOTE/informational lines (schema skew, gained metrics)
         go to stderr so piped stdout parses line by line. *)
      print_string (Diagnostics.Compare.render_verdicts outcome);
      prerr_string (Diagnostics.Compare.render_notes outcome)
    end;
    let regs = Diagnostics.Compare.regressions outcome in
    if Diagnostics.Compare.ok outcome then
      Printf.printf "OK: %d judged metrics within %.1f%% of baseline\n"
        (List.length outcome.Diagnostics.Compare.verdicts)
        threshold
    else begin
      Printf.printf "FAIL: %d regression(s), %d missing metric(s) (threshold %.1f%%)\n"
        (List.length regs)
        (List.length outcome.Diagnostics.Compare.missing)
        threshold;
      exit 1
    end

let stat_diff_cmd =
  let baseline_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Baseline bench JSON.")
  in
  let current_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"Current bench JSON.")
  in
  let threshold =
    Arg.(
      value
      & opt float 5.0
      & info [ "t"; "threshold" ] ~docv:"PCT"
          ~doc:"Regression threshold in percent (relative, floored at 1.0 absolute).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the final verdict.") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Diff two bench JSON files; exit 1 when a judged metric regresses past the threshold \
          or goes missing.")
    Term.(const run_diff $ baseline_arg $ current_arg $ threshold $ quiet)

(* [top]: rank the tool's own hotspots — where does *our* host time and
   allocation go while optimizing a benchmark? Reads a saved
   --self-profile-out JSON when given, otherwise runs the pipeline with
   self-profiling on and ranks that run. *)
let run_top from benchmark requests jobs limit folded =
  match from with
  | Some file -> (
    let v = read_json "self-profile" file in
    match Obs.Selfprof.rows_of_json v with
    | Error e ->
      Printf.eprintf "self-profile %s: %s\n" file e;
      exit 2
    | Ok rows ->
      if folded then
        print_string
          (Obs.Folded.to_string
             (List.map
                (fun (r : Obs.Selfprof.row) -> (r.path, Obs.Folded.micros r.self_host_s))
                rows))
      else
        print_string
          (Obs.Selfprof.render_hotspots (Obs.Selfprof.hotspots_of_rows ~limit rows)))
  | None ->
    let ctx = context ~jobs ~self_profile:true () in
    let recorder = ctx.Support.Ctx.recorder in
    let spec = lookup_spec ~benchmark ~requests in
    Printf.printf "profiling ourselves on %s...\n%!" spec.name;
    let (_ : bench) = run_bench ~ctx ~spec (Diagnostics.Measure.pipeline_config spec) in
    if folded then print_string (Obs.Selfprof.folded (Obs.Recorder.selfprof recorder))
    else begin
      print_endline "self-profile hotspots (host time, coordinator domain):";
      print_string
        (Obs.Selfprof.render_hotspots
           (Obs.Selfprof.hotspots ~limit (Obs.Recorder.selfprof recorder)))
    end

let stat_top_cmd =
  let from_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:"Rank a saved $(b,--self-profile-out) JSON instead of running the pipeline.")
  in
  let limit_arg =
    Arg.(value & opt int 10 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Rows in the hotspot table.")
  in
  let folded_arg =
    Arg.(
      value
      & flag
      & info [ "folded" ]
          ~doc:
            "Print flamegraph-compatible folded stacks (one $(b,path weight) line per span \
             path, weight in self microseconds) instead of the table.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Rank the optimizer's own hotspots: host seconds and allocation per span path, \
          from a saved self-profile or a fresh self-profiled run.")
    Term.(
      const run_top $ from_arg $ benchmark_term $ requests_term $ jobs_term $ limit_arg
      $ folded_arg)

(* [fidelity]: the LBR-vs-sampled gap experiment — both pipelines over
   one workload, one shared baseline, the deltas as one record. *)
let run_fidelity benchmark requests jobs seed faults json out =
  let ctx = context ~jobs ~seed ~faults () in
  with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = lookup_spec ~benchmark ~requests in
  if not json then Printf.printf "measuring profile-source fidelity on %s...\n%!" spec.name;
  let program = Progen.Generate.program spec in
  let fid = Diagnostics.Fidelity.analyze ~spec ~ctx ~program () in
  emit ~json ~out
    ~to_json:(fun () -> Diagnostics.Fidelity.to_json fid)
    ~to_text:(fun () -> Diagnostics.Fidelity.to_text fid);
  Option.iter (Printf.printf "fidelity: %s\n") out

let stat_fidelity_cmd =
  Cmd.v
    (Cmd.info "fidelity"
       ~doc:
         "Measure the LBR-vs-sampled profile fidelity gap on one benchmark: weight \
          correlation, achieved fall-through rate, Ext-TSP score and final simulated \
          cycles under each profile source.")
    Term.(
      const run_fidelity $ benchmark_term $ requests_term $ jobs_term $ seed_term $ faults_term
      $ json_term $ out_term)

(* [search]: the cycle-fitness layout-policy tournament — candidates are
   relinked and executed through exec+uarch, fitness is simulated
   cycles, the report quantifies where the Ext-TSP objective and the
   machine disagree. *)
let run_search benchmark requests budget seed jobs json out trace metrics_out =
  let ctx = context ~jobs () in
  with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = lookup_spec ~benchmark ~requests in
  if not json then
    Printf.printf "searching layout policies on %s (budget %d)...\n%!" spec.name budget;
  let program = Progen.Generate.program spec in
  let res = Diagnostics.Lsearch.analyze ~budget ~seed ~spec ~ctx ~program () in
  emit ~json ~out
    ~to_json:(fun () -> Diagnostics.Lsearch.to_json res)
    ~to_text:(fun () -> Diagnostics.Lsearch.to_text res);
  Option.iter (Printf.printf "search: %s\n") out;
  export_recorder ctx.Support.Ctx.recorder ~trace ~metrics_out

let stat_search_cmd =
  let budget_arg =
    Arg.(
      value
      & opt int 12
      & info [ "budget" ] ~docv:"N"
          ~doc:"Evaluation budget: how many candidate layouts are relinked and executed.")
  in
  let search_seed_arg =
    Arg.(
      value
      & opt int 1
      & info [ "search-seed" ] ~docv:"N"
          ~doc:"Tournament seed; the same budget and seed reproduce the same winner.")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Tournament-search layout policies with simulated cycles as fitness: each candidate \
          is relinked and executed through the uarch model, and the report quantifies the \
          Ext-TSP-score-vs-cycles gap.")
    Term.(
      const run_search $ benchmark_term $ requests_term $ budget_arg $ search_seed_arg
      $ jobs_term $ json_term $ out_term $ trace_term $ metrics_out_term)

let stat_cmd =
  Cmd.group ~default:stat_run_term
    (Cmd.info "stat" ~doc:"Profile-quality diagnostics and bench regression comparison")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:"Run the pipeline on one benchmark and report profile/layout diagnostics.")
        stat_run_term;
      stat_diff_cmd;
      stat_top_cmd;
      stat_fidelity_cmd;
      stat_search_cmd;
    ]

(* ------------------------------------------------------------------ *)
(* inspect: binary introspection and profile annotation.                *)

type variant = Base | Pm | Po

(* Run the pipeline for an inspect view; the run's recorder is exported
   as the shared flags request before the view is computed. *)
let inspect_bench benchmark requests profile_source (common : common) quiet =
  let ctx =
    context ~jobs:common.jobs ~seed:common.seed ~faults:common.faults
      ~self_profile:common.self_profile ~self_profile_out:common.self_profile_out ()
  in
  let spec = lookup_spec ~benchmark ~requests in
  if not quiet then Printf.printf "running pipeline on %s...\n%!" spec.name;
  let b =
    run_bench ~ctx ~spec { (Diagnostics.Measure.pipeline_config spec) with profile_source }
  in
  let recorder = Buildsys.Driver.recorder b.env in
  export_recorder recorder ~trace:common.trace ~metrics_out:common.metrics_out;
  export_self_profile recorder ~self_profile:common.self_profile
    ~self_profile_out:common.self_profile_out;
  (ctx, b)

let binary_of b = function
  | Base -> b.base.binary
  | Pm -> b.result.metadata_build.binary
  | Po -> Propeller.Pipeline.optimized_binary b.result

(* A fresh deterministic profile of [binary] under the benchmark's
   workload — the same collection the pipeline's Phase 3 performs, but
   against whichever image is being inspected. *)
let profile_of ~ctx ~source b binary =
  match source with
  | Perfmon.Source.Lbr -> lbr_profile ~ctx ~spec:b.spec ~program:b.program binary
  | Perfmon.Source.Sampled ->
    if binary.Linker.Binary.bb_maps = [] then begin
      Printf.eprintf
        "--profile-source sampled needs BB address map metadata to synthesize edge weights; \
         the inspected image has none (use --variant pm or po)\n";
      exit 2
    end;
    let samples = Perfmon.Sampler.create_profile () in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx
        (Exec.Image.build b.program binary)
        (Diagnostics.Measure.interp_config b.spec)
        (Perfmon.Sampler.collector Perfmon.Sampler.default_config samples)
    in
    Propeller.Autofdo.synthesize ~samples ~program:b.program ~binary ()

let run_annotate benchmark requests source common variant func top json out =
  let ctx, b = inspect_bench benchmark requests source common (json || out <> None) in
  let binary = binary_of b variant in
  let profile = profile_of ~ctx ~source b binary in
  let t = Inspect.Annotate.analyze ~binary ~profile in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Annotate.to_json ?func t)
    ~to_text:(fun () -> Inspect.Annotate.to_text ~top ?func t)

let run_size benchmark requests source common variant top json out =
  let _, b = inspect_bench benchmark requests source common (json || out <> None) in
  let t = Inspect.Size.measure (binary_of b variant) in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Size.to_json t)
    ~to_text:(fun () -> Inspect.Size.to_text ~top t)

let run_paths benchmark requests source common variant max_paths max_len json out =
  let ctx, b = inspect_bench benchmark requests source common (json || out <> None) in
  let binary = binary_of b variant in
  let profile = profile_of ~ctx ~source b binary in
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary in
  let paths = Inspect.Paths.extract ~max_paths_per_func:max_paths ~max_len dcfg in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Paths.to_json paths)
    ~to_text:(fun () -> Inspect.Paths.to_folded paths)

let run_layout_diff benchmark requests source common from_v to_v top json out =
  let ctx, b = inspect_bench benchmark requests source common (json || out <> None) in
  let a = binary_of b from_v and b' = binary_of b to_v in
  let profile = profile_of ~ctx ~source b a in
  let t = Inspect.Diff.compare ~profile a b' in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Diff.to_json t)
    ~to_text:(fun () -> Inspect.Diff.to_text ~top t)

let run_validate files =
  let bad = ref 0 in
  List.iter
    (fun file ->
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error msg ->
        Printf.eprintf "%s: cannot read: %s\n" file msg;
        incr bad
      | contents -> (
        match Obs.Json.parse contents with
        | Ok _ -> Printf.printf "%s: valid JSON\n" file
        | Error e ->
          Printf.eprintf "%s: invalid JSON: %s\n" file e;
          incr bad))
    files;
  if !bad > 0 then exit 1

let inspect_cmd =
  let variant_conv = enum_conv ~what:"variant" [ ("base", Base); ("pm", Pm); ("po", Po) ] in
  let variant =
    Arg.(
      value
      & opt variant_conv Po
      & info [ "variant" ] ~docv:"VARIANT"
          ~doc:
            "Which linked image to inspect: $(b,base) (PGO+ThinLTO baseline), $(b,pm) \
             (metadata build) or $(b,po) (Propeller-optimized).")
  in
  let top n doc = Arg.(value & opt int n & info [ "top" ] ~docv:"N" ~doc) in
  let func =
    Arg.(
      value
      & opt (some string) None
      & info [ "func" ] ~docv:"NAME" ~doc:"Restrict the view to one function.")
  in
  let max_paths =
    Arg.(
      value & opt int 10 & info [ "max-paths" ] ~docv:"N" ~doc:"Paths decomposed per function.")
  in
  let max_len = Arg.(value & opt int 64 & info [ "max-len" ] ~docv:"N" ~doc:"Blocks per path.") in
  let from_variant =
    Arg.(
      value
      & opt variant_conv Base
      & info [ "from" ] ~docv:"VARIANT" ~doc:"Image A of the comparison (profile source).")
  in
  let to_variant =
    Arg.(
      value & opt variant_conv Po & info [ "to" ] ~docv:"VARIANT" ~doc:"Image B of the comparison.")
  in
  let validate_files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"JSON files to validate.")
  in
  Cmd.group
    (Cmd.info "inspect" ~doc:"Binary introspection and profile annotation")
    [
      Cmd.v
        (Cmd.info "annotate"
           ~doc:
             "Project LBR samples onto the final layout: per-block counts, taken vs \
              fall-through exits and mispredict rates.")
        Term.(
          const run_annotate $ benchmark_term $ requests_term $ profile_source_term
          $ common_term $ variant $ func
          $ top 10 "Hottest functions shown in text mode."
          $ json_term $ out_term);
      Cmd.v
        (Cmd.info "size"
           ~doc:
             "Bloaty-style byte accounting: per-section and per-function bytes, hot/cold \
              split and metadata overhead (paper Fig 6).")
        Term.(
          const run_size $ benchmark_term $ requests_term $ profile_source_term $ common_term
          $ variant
          $ top 20 "Largest functions shown in text mode."
          $ json_term $ out_term);
      Cmd.v
        (Cmd.info "paths"
           ~doc:
             "Reconstruct hot control-flow paths from LBR samples as folded stacks \
              (flamegraph.pl-compatible).")
        Term.(
          const run_paths $ benchmark_term $ requests_term $ profile_source_term $ common_term
          $ variant $ max_paths $ max_len $ json_term $ out_term);
      Cmd.v
        (Cmd.info "diff"
           ~doc:
             "Compare two linked images: block movement between layouts and hot-branch \
              distance histograms.")
        Term.(
          const run_layout_diff $ benchmark_term $ requests_term $ profile_source_term
          $ common_term $ from_variant $ to_variant
          $ top 10 "Functions with most moved blocks shown in text mode."
          $ json_term $ out_term);
      Cmd.v
        (Cmd.info "validate"
           ~doc:"Parse each FILE with the Obs.Json parser; exit non-zero on any failure.")
        Term.(const run_validate $ validate_files);
    ]

(* ------------------------------------------------------------------ *)
(* fleet: the continuous profile/relink/canary loop.                    *)

let run_fleet benchmark requests profile_source machines cycles canary fleet_requests jitter
    lbr_period window decay threshold sabotage_cycle json json_out jobs seed faults trace
    metrics_out self_profile self_profile_out =
  let ctx = context ~jobs ~seed ~faults ~self_profile ~self_profile_out () in
  let recorder = ctx.Support.Ctx.recorder in
  with_flight_guard recorder @@ fun () ->
  let spec = lookup_spec ~benchmark ~requests in
  let config =
    {
      Fleet.Rollout.default_config with
      machines;
      cycles;
      canary;
      requests = Option.value fleet_requests ~default:spec.requests;
      jitter_pct = jitter;
      lbr = { Fleet.Rollout.default_config.lbr with Perfmon.Lbr.period = lbr_period };
      profile_source;
      seed = Option.value seed ~default:Fleet.Rollout.default_config.seed;
      window;
      decay;
      threshold_pct = threshold;
      sabotage_cycle;
      core = Diagnostics.Measure.core_config spec;
    }
  in
  if not json then
    Printf.printf "fleet loop on %s: %d machines, %d cycles...\n%!" spec.name machines cycles;
  let program = Progen.Generate.program spec in
  let result = Fleet.Rollout.run ~config ~ctx ~program ~name:spec.name () in
  (* A rollback is a caught degradation: surface the flight recorder's
     verdict trail the same way fault drills do. *)
  if result.Fleet.Rollout.rollbacks > 0 && not json then begin
    prerr_endline "rollback occurred; flight recorder dump follows:";
    prerr_string (Obs.Recorder.flight_dump recorder)
  end;
  let rendered_json = Obs.Json.to_string (Fleet.Rollout.to_json result) ^ "\n" in
  (match Obs.Json.parse rendered_json with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "fleet report: INVALID JSON: %s\n" e;
    exit 1);
  if json then print_string rendered_json else print_string (Fleet.Rollout.report result);
  (match json_out with
  | None -> ()
  | Some file ->
    write_file file rendered_json;
    if not json then Printf.printf "fleet report: %s (valid JSON)\n" file);
  export_recorder recorder ~trace ~metrics_out;
  export_self_profile recorder ~self_profile ~self_profile_out

let fleet_cmd =
  let machines =
    Arg.(value & opt int 4 & info [ "machines" ] ~docv:"N" ~doc:"Fleet size (at least 2).")
  in
  let cycles =
    Arg.(value & opt int 3 & info [ "cycles" ] ~docv:"K" ~doc:"Optimization cycles to run.")
  in
  let canary =
    Arg.(
      value
      & opt int 1
      & info [ "canary" ] ~docv:"N"
          ~doc:"Canary slice size for candidate pushes (clamped to machines - 1).")
  in
  let fleet_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "fleet-requests" ] ~docv:"R"
          ~doc:
            "Mean requests per machine per serve round (default: the benchmark's request \
             count). Per-round traffic jitters deterministically around this mean.")
  in
  let jitter =
    Arg.(
      value
      & opt float 0.2
      & info [ "jitter" ] ~docv:"F"
          ~doc:"Traffic spread around the per-round request mean, as a fraction in [0,1].")
  in
  let lbr_period =
    Arg.(
      value
      & opt int 13
      & info [ "lbr-period" ] ~docv:"N"
          ~doc:
            "Taken branches between LBR samples on the fleet tier. Production fleets sample \
             sparsely per machine and recover density by merging shards; the simulated \
             fleet defaults denser so per-round profiles are stable.")
  in
  let window =
    Arg.(
      value
      & opt int 4
      & info [ "window" ] ~docv:"ROUNDS" ~doc:"Profile aggregation window, in serve rounds.")
  in
  let decay =
    Arg.(
      value
      & opt float 0.5
      & info [ "decay" ] ~docv:"F" ~doc:"Per-round decay of older profile shards, in [0,1].")
  in
  let threshold =
    Arg.(
      value
      & opt float 5.0
      & info [ "threshold" ] ~docv:"PCT" ~doc:"Canary-vs-control regression threshold.")
  in
  let sabotage =
    Arg.(
      value
      & opt (some int) None
      & info [ "sabotage-cycle" ] ~docv:"C"
          ~doc:
            "Deploy a deliberately pathological candidate at cycle $(docv) — the \
             stale-profile drill; the canary judge must catch it and roll back.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the JSON fleet report to $(docv).")
  in
  let run_term =
    Term.(
      const run_fleet $ benchmark_term $ requests_term $ profile_source_term $ machines $ cycles
      $ canary $ fleet_requests $ jitter $ lbr_period $ window $ decay $ threshold $ sabotage
      $ json_term $ json_out $ jobs_term $ seed_term $ faults_term $ trace_term
      $ metrics_out_term $ self_profile_term $ self_profile_out_term)
  in
  Cmd.group ~default:run_term
    (Cmd.info "fleet"
       ~doc:"Fleet-wide continuous profiling: sharded aggregation, canary-judged relinks")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:
             "Run the continuous profile/relink/canary loop on a simulated fleet and report \
              its health.")
        run_term;
    ]

(* ------------------------------------------------------------------ *)
(* wpa: build the metadata binary, profile it under load, run Phase 3  *)
(* and write the two directive files Phase 4 consumes.                  *)

let run_wpa benchmark requests cc_out ld_out =
  let spec = lookup_spec ~benchmark ~requests in
  let program = Progen.Generate.program spec in
  let ctx = Support.Ctx.create () in
  let env = Buildsys.Driver.make_env ~ctx () in
  let cg, ld = Propeller.Pipeline.metadata_options in
  let pm =
    Buildsys.Driver.build env ~name:(spec.name ^ ".pm") ~program ~codegen_options:cg
      ~link_options:ld
  in
  Printf.printf "metadata binary: %d bytes (%d bytes of bb_addr_map)\n%!"
    (Linker.Binary.total_size pm.binary)
    (Linker.Binary.size_of_kind pm.binary Objfile.Section.Bb_addr_map);
  let profile = lbr_profile ~ctx ~spec ~program pm.binary in
  Printf.printf "profile: %d samples, %d records, ~%d raw bytes\n%!" profile.num_samples
    profile.num_records
    (Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config profile);
  let wpa =
    Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr profile) ~binary:pm.binary ()
  in
  Printf.printf "WPA: %d hot funcs, DCFG %d blocks / %d edges, score %.1f\n%!" wpa.hot_funcs
    wpa.dcfg_blocks wpa.dcfg_edges wpa.layout_score;
  let write path content =
    write_file path content;
    Printf.printf "wrote %s\n%!" path
  in
  write cc_out (Codegen.Directive.to_text wpa.plans);
  write ld_out (Linker.Orderfile.to_text wpa.ordering)

let wpa_cmd =
  let cc_out = Arg.(value & opt string "cc_prof.txt" & info [ "cc-out" ] ~doc:"Directives file.") in
  let ld_out = Arg.(value & opt string "ld_prof.txt" & info [ "ld-out" ] ~doc:"Ordering file.") in
  Cmd.v
    (Cmd.info "wpa" ~doc:"Standalone whole program analysis (Phase 3)")
    Term.(const run_wpa $ benchmark_term $ requests_term $ cc_out $ ld_out)

(* ------------------------------------------------------------------ *)
(* bolt: the BOLT-style monolithic post-link optimizer baseline.        *)

let run_bolt benchmark requests lite =
  let spec = lookup_spec ~benchmark ~requests in
  let program = Progen.Generate.program spec in
  let ctx = Support.Ctx.create () in
  let env = Buildsys.Driver.make_env ~ctx () in
  let bm =
    Buildsys.Driver.build env ~name:(spec.name ^ ".bm") ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  Printf.printf "BM binary (with relocations): %d bytes\n%!" (Linker.Binary.total_size bm.binary);
  let profile = lbr_profile ~ctx ~spec ~program bm.binary in
  let is_asm f =
    match Ir.Program.find_func program f with
    | Some fn -> fn.Ir.Func.attrs.has_inline_asm
    | None -> false
  in
  let hazards =
    { Boltsim.Driver.rseq = spec.hazards.has_rseq; fips_check = spec.hazards.has_fips_check }
  in
  let options = if lite then Boltsim.Driver.fast_options else Boltsim.Driver.perf_options in
  let r =
    Boltsim.Driver.optimize ~options ~ctx ~profile ~binary:bm.binary ~is_asm ~hazards
      ~name:spec.name ()
  in
  Printf.printf "perf2bolt: %.1fs, peak %.2f GB (modelled)\n" r.conversion_seconds
    (float_of_int r.conversion_mem_bytes /. 1.0e9);
  Printf.printf "llvm-bolt: %.1fs, peak %.2f GB; rewrote %d funcs, skipped %d\n"
    r.optimize_seconds
    (float_of_int r.optimize_mem_bytes /. 1.0e9)
    r.rewritten_funcs r.skipped_funcs;
  Printf.printf "BO binary: %d bytes (%.0f%% of BM)\n"
    (Linker.Binary.total_size r.binary)
    (100.0
    *. float_of_int (Linker.Binary.total_size r.binary)
    /. float_of_int (Linker.Binary.total_size bm.binary));
  if r.startup_ok then print_endline "startup: OK"
  else print_endline "startup: CRASH (rseq/FIPS integrity checks, paper 5.8)"

let bolt_cmd =
  let lite = Arg.(value & flag & info [ "lite" ] ~doc:"Lightning-BOLT selective processing.") in
  Cmd.v
    (Cmd.info "bolt" ~doc:"Monolithic post-link optimizer baseline")
    Term.(const run_bolt $ benchmark_term $ requests_term $ lite)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "propeller" ~doc:"Profile guided, relinking optimizer toolchain")
          [ run_cmd; stat_cmd; inspect_cmd; fleet_cmd; wpa_cmd; bolt_cmd ]))
