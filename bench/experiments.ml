(* One function per table/figure of the paper's evaluation (§5), plus
   the ablations DESIGN.md commits to. All output goes to stdout. *)

let large () = Progen.Suite.large

let spec2017 () = Progen.Suite.spec2017

let scale_of (wb : Workbench.t) = wb.spec.scale

(* ------------------------------------------------------------------ *)
(* Table 2: benchmark characteristics.                                  *)

let table2 ctx =
  Report.print_title "Table 2: Benchmark characteristics (generated vs paper)";
  let row (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    let text = Linker.Binary.text_bytes wb.base.binary in
    let funcs = Ir.Program.num_funcs wb.program in
    let bbs = Ir.Program.num_blocks wb.program in
    let cold_pct =
      100.0
      *. float_of_int (wb.prop.total_objects - wb.prop.hot_objects)
      /. float_of_int wb.prop.total_objects
    in
    let paper =
      match Progen.Spec.paper_row spec with
      | Some p ->
        [
          Report.bytes p.paper_text_bytes;
          Report.count p.paper_funcs;
          Report.count p.paper_blocks;
          Printf.sprintf "%.0f%%" p.paper_cold_pct;
        ]
      | None -> [ "-"; "-"; "-"; "-" ]
    in
    [
      spec.name;
      string_of_int spec.scale ^ "x";
      Report.bytes text;
      Report.count funcs;
      Report.count bbs;
      Printf.sprintf "%.0f%%" cold_pct;
    ]
    @ paper
  in
  Report.print_table
    ~header:
      [ "Benchmark"; "Scale"; "Text"; "Funcs"; "BBs"; "%Cold";
        "Text(paper)"; "Funcs(paper)"; "BBs(paper)"; "%Cold(paper)" ]
    (List.map row (large () @ spec2017 ()))

(* ------------------------------------------------------------------ *)
(* Table 3: performance improvements over PGO+ThinLTO.                  *)

let table3 ctx =
  Report.print_title "Table 3: Performance improvement over PGO+ThinLTO baseline";
  let row (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    let prop = Workbench.improvement_pct wb Workbench.Prop in
    let bolt =
      if wb.bolt.startup_ok then Report.pct (Workbench.improvement_pct wb Workbench.Bolt)
      else "Crash"
    in
    [ spec.name; Workbench.metric_name spec; Report.pct prop; bolt ]
  in
  Report.print_table
    ~header:[ "Benchmark"; "Metric"; "Propeller"; "BOLT (lite=0)" ]
    (List.map row (large ()));
  Report.print_note
    "(BOLT 'Crash': rewritten binary fails startup integrity/rseq checks, paper 5.8)\n"

(* ------------------------------------------------------------------ *)
(* Table 5: build phase times.                                          *)

(* Modelled profiling windows (minutes), standing in for the paper's
   benchmark-specific load tests. *)
let profile_window (spec : Progen.Spec.t) =
  match spec.name with
  | "spanner" -> 45.0
  | "search" -> 8.0
  | "superroot" -> 18.0
  | "bigtable" -> 43.0
  | _ -> 8.0

let table5 ctx =
  Report.print_title "Table 5: Build phases, minutes (model outputs at paper-equivalent scale)";
  let row (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    (* Paper-equivalent programs are [scale]x bigger on the same worker
       pool, so build makespans and conversion scale linearly. *)
    let scale = float_of_int (scale_of wb) in
    let mins s = Printf.sprintf "%.0f" (Float.max 1.0 (s *. scale /. 60.0)) in
    let instr_build =
      wb.base.wall_seconds *. Buildsys.Costmodel.instrumentation_overhead
    in
    let opt_build = wb.prop.metadata_build.wall_seconds in
    let convert = wb.prop.wpa.cpu_seconds in
    let prop_opt = wb.prop.optimized_build.wall_seconds in
    [
      spec.name;
      mins instr_build;
      Printf.sprintf "%.0f" (profile_window spec);
      mins opt_build;
      Printf.sprintf "%.0f" (profile_window spec);
      mins convert;
      mins prop_opt;
    ]
  in
  Report.print_table
    ~header:
      [ "Benchmark"; "PGO:Instr"; "PGO:Profile"; "PGO:Opt";
        "Prop:Profile"; "Prop:Convert"; "Prop:Opt" ]
    (List.map row [ Progen.Suite.spanner; Progen.Suite.search; Progen.Suite.superroot; Progen.Suite.bigtable ]);
  Report.print_note
    "(profiling windows are load-test constants; builds/conversion are cost-model outputs\n\
     scaled to paper-equivalent program size; see EXPERIMENTS.md)\n"

(* ------------------------------------------------------------------ *)
(* Fig 4: peak memory, profile conversion + WPA.                        *)

let fig4_row ~ctx (spec : Progen.Spec.t) =
  let wb = Workbench.get ~ctx spec in
  let s = scale_of wb in
  let profile_bytes = Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config wb.prop.profile in
  let prop_mem =
    Buildsys.Costmodel.wpa_mem ~profile_bytes:(profile_bytes * s)
      ~dcfg_blocks:(wb.prop.wpa.dcfg_blocks * s) ~dcfg_edges:(wb.prop.wpa.dcfg_edges * s)
  in
  let text = Linker.Binary.text_bytes wb.base.binary in
  let bolt_mem =
    Boltsim.Costmodel.conversion_mem ~text_bytes:(text * s) ~profile_bytes:(profile_bytes * s)
  in
  [ spec.name; Report.bytes prop_mem; Report.bytes bolt_mem;
    Printf.sprintf "%.1fx" (float_of_int bolt_mem /. float_of_int prop_mem) ]

let fig4 ctx =
  Report.print_title
    "Fig 4: Peak memory, profile conversion + whole-program analysis (paper-equivalent)";
  Report.print_table
    ~header:[ "Benchmark"; "Propeller (Phase 3)"; "BOLT (perf2bolt)"; "BOLT/Prop" ]
    (List.map (fig4_row ~ctx) (large ()));
  Report.print_table
    ~header:[ "Benchmark"; "Propeller (Phase 3)"; "BOLT (perf2bolt)"; "BOLT/Prop" ]
    (List.map (fig4_row ~ctx) (spec2017 ()))

(* ------------------------------------------------------------------ *)
(* Fig 5: peak memory of code layout + relink vs BOLT opt vs base link. *)

let fig5_row ~ctx (spec : Progen.Spec.t) =
  let wb = Workbench.get ~ctx spec in
  let s = scale_of wb in
  let scale_link (st : Linker.Link.stats) =
    Linker.Costmodel.peak_mem ~input_bytes:(st.input_bytes * s)
      ~num_sections:(st.num_input_sections * s)
  in
  let base_mem = scale_link wb.base.link_stats in
  let prop_mem = scale_link wb.prop.optimized_build.link_stats in
  let text = Linker.Binary.text_bytes wb.base.binary in
  let hot_text =
    List.fold_left
      (fun acc (fm : Codegen.Directive.func_plan) ->
        List.fold_left
          (fun acc (c : Codegen.Directive.cluster) -> acc + (16 * List.length c.blocks))
          acc fm.clusters)
      0 wb.prop.wpa.plans
  in
  let bolt_mem =
    Boltsim.Costmodel.optimize_mem ~text_bytes:(text * s) ~hot_text_bytes:(hot_text * s)
      ~lite:true
  in
  [ spec.name; Report.bytes base_mem; Report.bytes prop_mem; Report.bytes bolt_mem ]

let fig5 ctx =
  Report.print_title
    "Fig 5: Peak memory, Phase 4 relink vs BOLT optimization vs baseline link (paper-equivalent)";
  Report.print_table
    ~header:[ "Benchmark"; "Baseline link"; "Propeller relink"; "BOLT (llvm-bolt, lite)" ]
    (List.map (fig5_row ~ctx) (large () @ spec2017 ()))

(* ------------------------------------------------------------------ *)
(* Fig 6: binary size breakdown.                                        *)

let fig6 ctx =
  Report.print_title "Fig 6: Section size breakdown, normalized to baseline total (=100)";
  let breakdown binary =
    let k kind = Linker.Binary.size_of_kind binary kind in
    let text = k Objfile.Section.Text in
    let eh = k Objfile.Section.Eh_frame in
    let map = k Objfile.Section.Bb_addr_map in
    let rela = k Objfile.Section.Rela in
    let other =
      k Objfile.Section.Rodata + k Objfile.Section.Data + k Objfile.Section.Symtab
      + k Objfile.Section.Debug
    in
    (text, eh, map, rela, other)
  in
  List.iter
    (fun (spec : Progen.Spec.t) ->
      let wb = Workbench.get ~ctx spec in
      let base_total = float_of_int (Linker.Binary.total_size wb.base.binary) in
      let row name binary =
        let text, eh, map, rela, other = breakdown binary in
        let n v = Printf.sprintf "%.1f" (100.0 *. float_of_int v /. base_total) in
        let total = text + eh + map + rela + other in
        [ name; n text; n eh; n map; n rela; n other; n total ]
      in
      Printf.printf "\n%s:\n" spec.name;
      Report.print_table
        ~header:[ "Binary"; "text"; "eh_frame"; "bb_addr_map"; "relocs"; "other"; "total" ]
        [
          row "Base" wb.base.binary;
          row "PM" wb.prop.metadata_build.binary;
          row "PO" (Propeller.Pipeline.optimized_binary wb.prop);
          row "BM" wb.bm.binary;
          row "BO" wb.bolt.binary;
        ])
    (large () @ [ List.nth (spec2017 ()) 1 ])

(* ------------------------------------------------------------------ *)
(* Fig 7: instruction access heat maps (clang).                         *)

let fig7 ctx =
  Report.print_title "Fig 7: Instruction-access heat maps, clang (address x time)";
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  let render variant label =
    let binary = Workbench.binary wb variant in
    let hm =
      Uarch.Heatmap.create ~lo:binary.text_start ~hi:binary.text_end ~rows:24 ~cols:72
        ~total_requests:wb.spec.requests
    in
    let image = Exec.Image.build wb.program binary in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx image (Workbench.interp_config wb.spec) (Uarch.Heatmap.sink hm)
    in
    Printf.printf "\n%s (address span %s, touched rows %d/24):\n%s"
      label
      (Report.bytes (binary.text_end - binary.text_start))
      (Uarch.Heatmap.occupied_rows hm)
      (Uarch.Heatmap.render hm)
  in
  render Workbench.Base "(a) Baseline PGO+ThinLTO";
  render Workbench.Prop "(b) + Propeller";
  render Workbench.Bolt "(c) + BOLT (band sits in the new high segment)"

(* ------------------------------------------------------------------ *)
(* Fig 8: performance counters, normalized to baseline = 100.           *)

let fig8 ctx =
  Report.print_title "Fig 8: Performance counters, normalized to baseline (=100, lower is better)";
  let table (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    let b = (Workbench.measure wb Workbench.Base).counters in
    let p = (Workbench.measure wb Workbench.Prop).counters in
    let o = (Workbench.measure wb Workbench.Bolt).counters in
    let pick (c : Uarch.Core.counters) = function
      | "I1" -> c.i1_l1i_miss
      | "I2" -> c.i2_l2_code_miss
      | "I3" -> c.i3_l3_code_miss
      | "T1" -> c.t1_itlb_miss
      | "T2" -> c.t2_itlb_stall_miss
      | "B1" -> c.b1_baclears
      | "B2" -> c.b2_taken_branches
      | _ -> assert false
    in
    let row label =
      let n c =
        let bv = pick b label in
        if bv = 0 then "-" else Printf.sprintf "%.0f" (100.0 *. float_of_int (pick c label) /. float_of_int bv)
      in
      [ label; n p; n o ]
    in
    Printf.printf "\n%s (%s):\n" spec.name (Workbench.metric_name spec);
    Report.print_table ~header:[ "Counter"; "Propeller"; "BOLT" ]
      (List.map row [ "I1"; "I2"; "I3"; "T1"; "T2"; "B1"; "B2" ])
  in
  table Progen.Suite.search;
  table Progen.Suite.clang

(* ------------------------------------------------------------------ *)
(* Fig 9: optimization run time.                                        *)

let fig9 ctx =
  Report.print_title "Fig 9: Optimization run time (backends + link), normalized to baseline = 100";
  let row (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    let base_backends = wb.base.codegen_report.wall_seconds in
    let base_link = wb.base.link_stats.cpu_seconds in
    let base = base_backends +. base_link in
    let prop_backends = wb.prop.optimized_build.codegen_report.wall_seconds in
    let prop_link = wb.prop.optimized_build.link_stats.cpu_seconds in
    let prop = prop_backends +. prop_link in
    let bolt = wb.bolt.optimize_seconds in
    let n v = Printf.sprintf "%.0f" (100.0 *. v /. base) in
    [
      spec.name;
      n base;
      n prop;
      n bolt;
      Printf.sprintf "%d/%d" wb.prop.hot_objects wb.prop.total_objects;
      Printf.sprintf "%.0f%%" (100.0 *. Buildsys.Cache.hit_rate wb.env.obj_cache);
    ]
  in
  Report.print_table
    ~header:[ "Benchmark"; "Base"; "Propeller(Phase4)"; "BOLT"; "hot objs"; "cache hit" ]
    (List.map row (large () @ spec2017 ()));
  (* Cache ablation: Phase 4 against a cold cache. *)
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  let cg, ld = Propeller.Pipeline.optimize_options ~hugepages:false wb.prop.wpa in
  let cold_env = Buildsys.Driver.make_env ~ctx () in
  let cold =
    Buildsys.Driver.build cold_env ~name:"clang.cold" ~program:wb.program ~codegen_options:cg
      ~link_options:ld
  in
  Report.print_note
    (Printf.sprintf "\nCache ablation (clang): Phase 4 wall %s with warm cache vs %s with cold cache\n"
       (Report.seconds wb.prop.optimized_build.wall_seconds)
       (Report.seconds cold.wall_seconds))

(* ------------------------------------------------------------------ *)
(* SPEC 2017 sweep (5.4).                                               *)

let spec_sweep ctx =
  Report.print_title "SPEC2017: performance and branch/i-cache effects (5.4)";
  let row (spec : Progen.Spec.t) =
    let wb = Workbench.get ~ctx spec in
    let b = (Workbench.measure wb Workbench.Base).counters in
    let p = (Workbench.measure wb Workbench.Prop).counters in
    let o = (Workbench.measure wb Workbench.Bolt).counters in
    let delta get x = Support.Stats.ratio_pct (float_of_int (get x)) (float_of_int (get b)) in
    [
      spec.name;
      Report.pct2 (Workbench.improvement_pct wb Workbench.Prop);
      Report.pct2 (Workbench.improvement_pct wb Workbench.Bolt);
      Report.pct (delta (fun (c : Uarch.Core.counters) -> c.b2_taken_branches) p);
      Report.pct (delta (fun (c : Uarch.Core.counters) -> c.i1_l1i_miss) p);
      Report.pct (delta (fun (c : Uarch.Core.counters) -> c.dsb_misses) p);
      Report.pct (delta (fun (c : Uarch.Core.counters) -> c.dsb_misses) o);
    ]
  in
  Report.print_table
    ~header:
      [ "Benchmark"; "Prop perf"; "BOLT perf"; "dTaken(P)"; "dL1i(P)"; "dDSB(P)"; "dDSB(B)" ]
    (List.map row (spec2017 ()))

(* ------------------------------------------------------------------ *)
(* Ablation 4.6: function splitting mechanisms.                         *)

let ablation_split ctx =
  Report.print_title "Ablation (4.6): function splitting - bb sections vs call-based heuristic";
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  let run_variant label plans split_count =
    (* Unmatched .cold entries in the ordering file are harmless: the
       linker skips symbols with no section. *)
    let wpa = { wb.prop.wpa with plans } in
    let cg, ld = Propeller.Pipeline.optimize_options ~hugepages:false wpa in
    let build =
      Buildsys.Driver.build wb.env ~name:("clang." ^ label) ~program:wb.program
        ~codegen_options:cg ~link_options:ld
    in
    let image = Exec.Image.build wb.program build.binary in
    let core = Uarch.Core.create (Workbench.core_config wb.spec) in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx image (Workbench.interp_config wb.spec) (Uarch.Core.sink core)
    in
    let c = Uarch.Core.counters core in
    (label, split_count, c)
  in
  (* Variant A: split everything with cold blocks (bb sections). *)
  let plans_split = wb.prop.wpa.plans in
  let cold_bytes_of (p : Codegen.Directive.func_plan) =
    match Ir.Program.find_func wb.program p.func with
    | None -> 0
    | Some f ->
      let listed = List.concat_map (fun (c : Codegen.Directive.cluster) -> c.blocks) p.clusters in
      let total = Ir.Func.num_blocks f in
      List.init total Fun.id
      |> List.filter (fun b -> not (List.mem b listed))
      |> List.fold_left (fun acc b -> acc + Codegen.Lower.block_code_bytes (Ir.Func.block f b)) 0
  in
  let full_plan (p : Codegen.Directive.func_plan) =
    (* Append the unlisted blocks so nothing is split out. *)
    match Ir.Program.find_func wb.program p.func with
    | None -> p
    | Some f ->
      let listed = List.concat_map (fun (c : Codegen.Directive.cluster) -> c.blocks) p.clusters in
      let rest =
        List.init (Ir.Func.num_blocks f) Fun.id |> List.filter (fun b -> not (List.mem b listed))
      in
      (match p.clusters with
      | [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks } ] ->
        { p with clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = blocks @ rest } ] }
      | _ -> p)
  in
  let plans_nosplit = List.map full_plan plans_split in
  (* Variant C: call-based extraction heuristic gate. *)
  let plans_heuristic =
    List.map
      (fun (p : Codegen.Directive.func_plan) ->
        if
          Layout.Split.call_split_profitable ~cold_bytes:(cold_bytes_of p) ~entry_count:1.0
            ~cold_entry_count:0.0
        then p
        else full_plan p)
      plans_split
  in
  let count_split plans =
    List.length
      (List.filter (fun (p : Codegen.Directive.func_plan) -> cold_bytes_of p > 0) plans)
  in
  (* Bytes of code in the primary (hot) clusters: splitting shrinks the
     region the front end must cover. *)
  let hot_region plans =
    List.fold_left
      (fun acc (p : Codegen.Directive.func_plan) ->
        match Ir.Program.find_func wb.program p.func with
        | None -> acc
        | Some f ->
          List.fold_left
            (fun acc (c : Codegen.Directive.cluster) ->
              match c.kind with
              | Codegen.Directive.Primary ->
                List.fold_left
                  (fun acc b -> acc + Codegen.Lower.block_code_bytes (Ir.Func.block f b))
                  acc c.blocks
              | Codegen.Directive.Cold | Codegen.Directive.Extra _ -> acc)
            acc p.clusters)
      0 plans
  in
  let results =
    [
      run_variant "nosplit" plans_nosplit 0;
      run_variant "heuristic" plans_heuristic (count_split plans_heuristic);
      run_variant "bbsections" plans_split (count_split plans_split);
    ]
  in
  let regions =
    [ hot_region plans_nosplit; hot_region plans_heuristic; hot_region plans_split ]
  in
  let _, _, base_c = List.hd results in
  let row ((label, nsplit, (c : Uarch.Core.counters)), region) =
    let n v b = Printf.sprintf "%.1f" (100.0 *. float_of_int v /. float_of_int b) in
    [
      label;
      string_of_int nsplit;
      Report.bytes region;
      n c.t1_itlb_miss base_c.t1_itlb_miss;
      n c.t2_itlb_stall_miss (max 1 base_c.t2_itlb_stall_miss);
      n c.i1_l1i_miss base_c.i1_l1i_miss;
      Printf.sprintf "%.2f" (base_c.cycles /. c.cycles);
    ]
  in
  Report.print_table
    ~header:
      [ "Variant"; "funcs split"; "hot region"; "iTLB T1 (nosplit=100)"; "iTLB T2 (=100)";
        "L1i (=100)"; "speedup" ]
    (List.map row (List.combine results regions))

(* ------------------------------------------------------------------ *)
(* Extension 3.5: profile-guided post-link software prefetch.           *)

let ablation_prefetch ctx =
  Report.print_title
    "Extension (3.5): profile-guided post-link software prefetch insertion (mysql)";
  let wb = Workbench.get ~ctx Progen.Suite.mysql in
  let run prefetch =
    let env = Buildsys.Driver.make_env ~ctx () in
    Propeller.Pipeline.run
      ~config:{ (Workbench.pipeline_config wb.spec) with prefetch }
      ~env ~program:wb.program ~name:"mysql.pf" ()
  in
  let plain = run false and pf = run true in
  let measure (r : Propeller.Pipeline.result) =
    let image = Exec.Image.build wb.program (Propeller.Pipeline.optimized_binary r) in
    let core = Uarch.Core.create (Workbench.core_config wb.spec) in
    let stats =
      Exec.Interp.run ~ctx image (Workbench.interp_config wb.spec) (Uarch.Core.sink core)
    in
    (stats, Uarch.Core.counters core)
  in
  let s0, c0 = measure plain in
  let s1, c1 = measure pf in
  (match pf.prefetch with
  | Some p ->
    Report.print_note
      (Printf.sprintf "directives: %d insertion sites covering %d/%d sampled misses\n"
         (List.length p.sites) p.covered_misses p.sampled_misses)
  | None -> ());
  let row label (s : Exec.Interp.stats) (c : Uarch.Core.counters) =
    [
      label;
      string_of_int s.dmisses;
      string_of_int s.dcovered;
      Printf.sprintf "%.3e" c.cycles;
      Report.pct ((c0.cycles -. c.cycles) /. c0.cycles *. 100.0);
    ]
  in
  Report.print_table
    ~header:[ "Variant"; "data-miss stalls"; "prefetch-covered"; "cycles"; "vs layout-only" ]
    [ row "propeller (layout only)" s0 c0; row "propeller + prefetch" s1 c1 ]

(* ------------------------------------------------------------------ *)
(* Ablation 4.6: a second round of hardware profiling.                  *)

let ablation_rounds ctx =
  Report.print_title
    "Ablation (4.6): additional round of hardware profiling (clang)";
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  (* Fresh env: run_rounds rebuilds metadata binaries per round. *)
  let env = Buildsys.Driver.make_env ~ctx () in
  let rounds =
    Propeller.Pipeline.run_rounds ~rounds:2
      ~config:(Workbench.pipeline_config wb.spec)
      ~env ~program:wb.program ~name:"clang.rounds" ()
  in
  let base_cycles = (Workbench.measure wb Workbench.Base).counters.cycles in
  let rows =
    List.mapi
      (fun i (r : Propeller.Pipeline.result) ->
        let image =
          Exec.Image.build wb.program (Propeller.Pipeline.optimized_binary r)
        in
        let core = Uarch.Core.create (Workbench.core_config wb.spec) in
        let (_ : Exec.Interp.stats) =
          Exec.Interp.run ~ctx image (Workbench.interp_config wb.spec) (Uarch.Core.sink core)
        in
        let c = Uarch.Core.counters core in
        [
          Printf.sprintf "round %d" (i + 1);
          Printf.sprintf "%d" r.wpa.hot_funcs;
          Printf.sprintf "%d/%d" r.hot_objects r.total_objects;
          Report.pct2 ((base_cycles -. c.cycles) /. base_cycles *. 100.0);
        ])
      rounds
  in
  Report.print_table
    ~header:[ "Round"; "hot funcs"; "objects rebuilt"; "perf vs baseline" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablation 4.7: intra vs inter-procedural layout.                      *)

let ablation_inter ctx =
  Report.print_title "Ablation (4.7): intra-function vs inter-procedural layout (clang)";
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  let t0 = Unix.gettimeofday () in
  let wpa_intra =
    Propeller.Wpa.analyze ~config:Propeller.Wpa.default_config ~ctx
      ~profile:(Propeller.Wpa.Lbr wb.prop.profile) ~binary:wb.prop.metadata_build.binary ()
  in
  let t1 = Unix.gettimeofday () in
  let wpa_inter =
    Propeller.Wpa.analyze
      ~config:{ Propeller.Wpa.default_config with mode = Propeller.Wpa.Interproc }
      ~ctx ~profile:(Propeller.Wpa.Lbr wb.prop.profile) ~binary:wb.prop.metadata_build.binary ()
  in
  let t2 = Unix.gettimeofday () in
  let build label wpa =
    let cg, ld = Propeller.Pipeline.optimize_options ~hugepages:false wpa in
    let b =
      Buildsys.Driver.build wb.env ~name:("clang." ^ label) ~program:wb.program
        ~codegen_options:cg ~link_options:ld
    in
    let image = Exec.Image.build wb.program b.binary in
    let core = Uarch.Core.create (Workbench.core_config wb.spec) in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx image (Workbench.interp_config wb.spec) (Uarch.Core.sink core)
    in
    Uarch.Core.counters core
  in
  let ci = build "intra" wpa_intra in
  let cx = build "inter" wpa_inter in
  let row label (c : Uarch.Core.counters) =
    [
      label;
      Printf.sprintf "%.3e" c.cycles;
      string_of_int c.i1_l1i_miss;
      string_of_int c.t1_itlb_miss;
      string_of_int c.b2_taken_branches;
    ]
  in
  Report.print_table ~header:[ "Mode"; "cycles"; "L1i miss"; "iTLB miss"; "taken br" ]
    [ row "intra" ci; row "inter" cx ];
  Report.kv
    [
      ("inter vs intra speedup", Report.pct ((ci.cycles -. cx.cycles) /. ci.cycles *. 100.0));
      ("analysis time (intra)", Printf.sprintf "%.2fs" (t1 -. t0));
      ( "analysis time (inter)",
        Printf.sprintf "%.2fs (%.1fx)" (t2 -. t1) ((t2 -. t1) /. max 1e-9 (t1 -. t0)) );
    ]

(* ------------------------------------------------------------------ *)
(* Ablation 4.1: cluster sections vs one section per block.             *)

let ablation_clusters ctx =
  Report.print_title "Ablation (4.1): bb clusters vs one section per basic block (clang)";
  let wb = Workbench.get ~ctx Progen.Suite.clang in
  let explode (p : Codegen.Directive.func_plan) =
    let blocks = List.concat_map (fun (c : Codegen.Directive.cluster) -> c.blocks) p.clusters in
    let clusters =
      List.mapi
        (fun i b ->
          if i = 0 then { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ b ] }
          else { Codegen.Directive.kind = Codegen.Directive.Extra i; blocks = [ b ] })
        blocks
    in
    { p with clusters }
  in
  let exploded_plans = List.map explode wb.prop.wpa.plans in
  let exploded_ordering =
    List.concat_map
      (fun sym ->
        if Objfile.Symname.is_cold sym then [ sym ]
        else
          match
            List.find_opt
              (fun (p : Codegen.Directive.func_plan) -> String.equal p.func sym)
              exploded_plans
          with
          | None -> [ sym ]
          | Some p -> List.map (Codegen.Directive.symbol p.func) p.clusters)
      wb.prop.wpa.ordering
  in
  let build label plans ordering =
    let wpa = { wb.prop.wpa with plans; ordering } in
    let cg, ld = Propeller.Pipeline.optimize_options ~hugepages:false wpa in
    let env = Buildsys.Driver.make_env ~ctx () in
    Buildsys.Driver.build env ~name:("clang." ^ label) ~program:wb.program ~codegen_options:cg
      ~link_options:ld
  in
  let clustered = build "clusters" wb.prop.wpa.plans wb.prop.wpa.ordering in
  let exploded = build "allbb" exploded_plans exploded_ordering in
  let row label (b : Buildsys.Driver.result) =
    let objs = List.fold_left (fun a o -> a + Objfile.File.total_size o) 0 b.objs in
    [
      label;
      Report.bytes objs;
      string_of_int b.link_stats.num_input_sections;
      Report.bytes b.link_stats.peak_mem_bytes;
      Report.bytes (Linker.Binary.size_of_kind b.binary Objfile.Section.Eh_frame);
    ]
  in
  Report.print_table
    ~header:[ "Variant"; "object bytes"; "input sections"; "link peak mem"; "eh_frame" ]
    [ row "clusters (Propeller)" clustered; row "all bb sections" exploded ]

(* ------------------------------------------------------------------ *)
(* Layout-policy tournament: cycle-fitness search vs Ext-TSP            *)
(* (AI-PROPELLER setup from PAPERS.md), per progen shape.               *)

let layout_search ctx =
  Report.print_title
    "Layout search: cycle-fitness policy tournament vs Ext-TSP (per progen shape)";
  let shapes = [ "505.mcf"; "548.exchange2"; "531.deepsjeng" ] in
  let rows =
    List.map
      (fun name ->
        let spec =
          { (Option.get (Progen.Suite.by_name name)) with Progen.Spec.requests = 40 }
        in
        let program = Progen.Generate.program spec in
        let ctx = Support.Ctx.with_recorder ctx (Obs.Recorder.create ()) in
        let res =
          Diagnostics.Lsearch.analyze
            ~pipeline:(Workbench.pipeline_config spec)
            ~core:(Workbench.core_config spec)
            ~requests:spec.requests ~budget:14
            ~seed:(Int64.to_int spec.seed land 0xffff)
            ~ctx ~program ~name:spec.name ()
        in
        [
          spec.name;
          Printf.sprintf "%.3e" res.exttsp_cycles;
          res.winner_policy;
          Printf.sprintf "%.3e" res.winner_cycles;
          Report.pct2 res.win_vs_exttsp_pct;
          Printf.sprintf "%d/%d" res.discordant_pairs res.comparable_pairs;
          Printf.sprintf "%.2f" res.proxy_agreement;
        ])
      shapes
  in
  Report.print_table
    ~header:
      [
        "Shape"; "ext-tsp cycles"; "winner"; "winner cycles"; "win"; "discordant"; "agreement";
      ]
    rows
