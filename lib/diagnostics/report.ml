type uarch_delta = {
  speedup_pct : float;
  cycles_pct : float;
  l1i_miss_pct : float;
  l2_code_miss_pct : float;
  l3_code_miss_pct : float;
  itlb_miss_pct : float;
  itlb_stall_pct : float;
  btb_resteer_pct : float;
  taken_branch_pct : float;
  dsb_miss_pct : float;
}

let delta ~(base : Uarch.Core.counters) ~(opt : Uarch.Core.counters) =
  let pct get = Support.Stats.ratio_pct (float_of_int (get opt)) (float_of_int (get base)) in
  {
    speedup_pct =
      (if base.cycles = 0.0 then 0.0 else (base.cycles -. opt.cycles) /. base.cycles *. 100.0);
    cycles_pct = Support.Stats.ratio_pct opt.cycles base.cycles;
    l1i_miss_pct = pct (fun c -> c.Uarch.Core.i1_l1i_miss);
    l2_code_miss_pct = pct (fun c -> c.Uarch.Core.i2_l2_code_miss);
    l3_code_miss_pct = pct (fun c -> c.Uarch.Core.i3_l3_code_miss);
    itlb_miss_pct = pct (fun c -> c.Uarch.Core.t1_itlb_miss);
    itlb_stall_pct = pct (fun c -> c.Uarch.Core.t2_itlb_stall_miss);
    btb_resteer_pct = pct (fun c -> c.Uarch.Core.b1_baclears);
    taken_branch_pct = pct (fun c -> c.Uarch.Core.b2_taken_branches);
    dsb_miss_pct = pct (fun c -> c.Uarch.Core.dsb_misses);
  }

type t = {
  name : string;
  quality : Quality.t;
  layout : Layoutq.t;
  wpa_layout_score : float;
  hot_funcs : int;
  hot_objects : int;
  total_objects : int;
  phases : (string * float) list;
  uarch : uarch_delta option;
}

let analyze ~name ?counters ~(result : Propeller.Pipeline.result) () =
  let dcfg =
    Propeller.Dcfg.build ~profile:result.profile ~binary:result.metadata_build.binary
  in
  let quality = Quality.analyze ~dcfg ~profile:result.profile () in
  let layout =
    Layoutq.analyze ~dcfg ~final:(Propeller.Pipeline.optimized_binary result) ()
  in
  {
    name;
    quality;
    layout;
    wpa_layout_score = result.wpa.layout_score;
    hot_funcs = result.wpa.hot_funcs;
    hot_objects = result.hot_objects;
    total_objects = result.total_objects;
    phases =
      [
        ("metadata_build_s", result.times.metadata_build_s);
        ("profiling_s", result.times.profiling_s);
        ("conversion_s", result.times.conversion_s);
        ("optimize_build_s", result.times.optimize_build_s);
      ];
    uarch = Option.map (fun (base, opt) -> delta ~base ~opt) counters;
  }

let uarch_to_json (u : uarch_delta) =
  Obs.Json.Obj
    [
      ("speedup_pct", Obs.Json.Float u.speedup_pct);
      ("cycles_pct", Obs.Json.Float u.cycles_pct);
      ("l1i_miss_pct", Obs.Json.Float u.l1i_miss_pct);
      ("l2_code_miss_pct", Obs.Json.Float u.l2_code_miss_pct);
      ("l3_code_miss_pct", Obs.Json.Float u.l3_code_miss_pct);
      ("itlb_miss_pct", Obs.Json.Float u.itlb_miss_pct);
      ("itlb_stall_pct", Obs.Json.Float u.itlb_stall_pct);
      ("btb_resteer_pct", Obs.Json.Float u.btb_resteer_pct);
      ("taken_branch_pct", Obs.Json.Float u.taken_branch_pct);
      ("dsb_miss_pct", Obs.Json.Float u.dsb_miss_pct);
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String t.name);
      ("profile_quality", Quality.to_json t.quality);
      ("layout_quality", Layoutq.to_json t.layout);
      ( "wpa",
        Obs.Json.Obj
          [
            ("layout_score", Obs.Json.Float t.wpa_layout_score);
            ("hot_funcs", Obs.Json.Int t.hot_funcs);
          ] );
      ( "build",
        Obs.Json.Obj
          [
            ("hot_objects", Obs.Json.Int t.hot_objects);
            ("total_objects", Obs.Json.Int t.total_objects);
          ] );
      ("phases", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) t.phases));
      ( "uarch_delta",
        match t.uarch with Some u -> uarch_to_json u | None -> Obs.Json.Null );
    ]

(* Aligned key/value rendering: one block per judgement area. *)
let to_text t =
  let buf = Buffer.create 1024 in
  let section title rows =
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let width =
      List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 rows
    in
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s%s  %s\n" k (String.make (width - String.length k) ' ') v))
      rows;
    Buffer.add_char buf '\n'
  in
  let q = t.quality and l = t.layout in
  let f1 v = Printf.sprintf "%.1f%%" (100.0 *. v) in
  section
    (Printf.sprintf "profile quality (%s)" t.name)
    [
      ("lbr samples", string_of_int q.total_samples);
      ("branch records", string_of_int q.total_records);
      ("block coverage", Printf.sprintf "%s (%d/%d blocks)" (f1 q.block_coverage) q.sampled_blocks q.mapped_blocks);
      ("byte coverage", f1 q.byte_coverage);
      ("func coverage", f1 q.func_coverage);
      ("mismatch rate", Printf.sprintf "%s (%d records)" (f1 q.mismatch_rate) q.mismatch_records);
      ("p90 concentration", f1 q.concentration_p90);
      ("pebs samples", string_of_int q.pebs_samples);
    ];
  section "layout quality"
    [
      ("ext-TSP score", Printf.sprintf "%.1f" l.exttsp_score);
      ("ext-TSP normalized", Printf.sprintf "%.4f" l.exttsp_norm);
      ("fall-through rate", Printf.sprintf "%s (%d/%d edge weight)" (f1 l.fall_through_rate) l.fall_through_weight l.edge_weight);
      ("hot funcs scored", string_of_int l.hot_funcs_scored);
      ("blocks missing", string_of_int l.blocks_missing);
      ("wpa target score", Printf.sprintf "%.1f" t.wpa_layout_score);
    ];
  section "build"
    [
      ("hot funcs", string_of_int t.hot_funcs);
      ("objects re-generated", Printf.sprintf "%d/%d" t.hot_objects t.total_objects);
      ( "phase seconds",
        String.concat "  "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%.1f" k v) t.phases) );
    ];
  (match t.uarch with
  | None -> ()
  | Some u ->
    let p v = Printf.sprintf "%+.2f%%" v in
    section "uarch delta (optimized vs baseline)"
      [
        ("speedup", p u.speedup_pct);
        ("cycles", p u.cycles_pct);
        ("L1i misses (I1)", p u.l1i_miss_pct);
        ("L2 code misses (I2)", p u.l2_code_miss_pct);
        ("L3 code misses (I3)", p u.l3_code_miss_pct);
        ("iTLB misses (T1)", p u.itlb_miss_pct);
        ("iTLB stall misses (T2)", p u.itlb_stall_pct);
        ("BTB resteers (B1)", p u.btb_resteer_pct);
        ("taken branches (B2)", p u.taken_branch_pct);
        ("DSB misses", p u.dsb_miss_pct);
      ]);
  Buffer.contents buf

let publish ~(ctx : Support.Ctx.t) t =
  let r = ctx.recorder in
  let g area metric v = Obs.Recorder.set_gauge r (Printf.sprintf "diag.%s.%s" area metric) v in
  let q = t.quality and l = t.layout in
  g "profile" "block_coverage" q.block_coverage;
  g "profile" "byte_coverage" q.byte_coverage;
  g "profile" "func_coverage" q.func_coverage;
  g "profile" "mismatch_rate" q.mismatch_rate;
  g "profile" "concentration_p90" q.concentration_p90;
  g "layout" "exttsp_score" l.exttsp_score;
  g "layout" "exttsp_norm" l.exttsp_norm;
  g "layout" "fall_through_rate" l.fall_through_rate;
  g "layout" "blocks_missing" (float_of_int l.blocks_missing);
  match t.uarch with
  | None -> ()
  | Some u ->
    g "uarch" "speedup_pct" u.speedup_pct;
    g "uarch" "l1i_miss_pct" u.l1i_miss_pct;
    g "uarch" "itlb_miss_pct" u.itlb_miss_pct;
    g "uarch" "btb_resteer_pct" u.btb_resteer_pct;
    g "uarch" "taken_branch_pct" u.taken_branch_pct
