(* Metric names, units and the result line. BENCHMARK.json lists the
   same names; a test keeps the two equal. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ginstr_per_op", "Ginstr");
    ("alloc_mw_per_op", "Mw");
    ("live_mw", "Mw");
    ("peak_heap_mb", "MB");
    ("speedup_pct", "%");
    ("opt_kcycles_per_req", "kcycles");
    ("text_bytes", "bytes");
  ]

let uarch_counters =
  [ "cycles"; "i1_l1i_miss"; "t1_itlb_miss"; "b1_baclears"; "b2_taken_branches"; "dsb_misses" ]

let per_layer =
  [
    ("progen.s", "s");
    ("progen.funcs", "count");
    ("progen.blocks", "count");
    ("buildsys.key_s", "s");
    ("buildsys.cache_s", "s");
    ("buildsys.obj_hit_ratio", "ratio");
    ("buildsys.objs_compiled", "count");
    ("codegen.s", "s");
    ("codegen.units", "count");
    ("codegen.alloc_mw", "Mw");
    ("linker.s", "s");
    ("linker.input_sections", "count");
    ("linker.relax_iters", "count");
    ("linker.deleted_jumps", "count");
    ("linker.alloc_mw", "Mw");
    ("exec.s", "s");
    ("exec.requests", "count");
    ("exec.blocks", "count");
    ("perfmon.lbr_s", "s");
    ("perfmon.lbr_samples", "count");
    ("perfmon.lbr_records", "count");
    ("perfmon.distinct_edges", "count");
    ("wpa.s", "s");
    ("wpa.hot_funcs", "count");
    ("wpa.dcfg_edges", "count");
    ("wpa.layouts_computed", "count");
    ("wpa.layout_hit_ratio", "ratio");
    ("layout.score", "score");
    ("uarch.s", "s");
  ]
  @ List.concat_map
      (fun v -> List.map (fun c -> (Printf.sprintf "uarch.%s.%s" v c, "count")) uarch_counters)
      [ "base"; "opt" ]
  @ [
      ("other.s", "s");
      ("op.traced_s", "s");
      ("op.trace_overhead_s", "s");
      ("op.retained_mw", "Mw");
    ]

let mw words = words /. 1e6

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let uarch_values prefix (c : Uarch.Core.counters) =
  List.map
    (fun name ->
      let v =
        if name = "cycles" then c.cycles
        else float_of_int (List.assoc name (Uarch.Core.counters_assoc c))
      in
      (prefix ^ name, v))
    uarch_counters

(* The per-layer figures of one traced op. [timed_s] is the timed
   pass's time for the same op, so their difference is the tracing
   overhead, and [retained] the live words the timed op left behind. *)
let layer_values sp (st : Workload.state) (t : Workload.traced) ~timed_s ~retained =
  let s = Span.self_s sp and w name = mw (Span.self_words sp name) in
  let b = t.builds and wpa = t.wpa in
  let i = float_of_int in
  [
    ("progen.s", st.progen_s);
    ("progen.funcs", i (Ir.Program.num_funcs st.program));
    ("progen.blocks", i (Ir.Program.num_blocks st.program));
    ("buildsys.key_s", s "buildsys.key");
    ("buildsys.cache_s", s "buildsys.cache");
    ("buildsys.obj_hit_ratio", ratio b.hits b.compiled);
    ("buildsys.objs_compiled", i b.compiled);
    ("codegen.s", s "codegen");
    ("codegen.units", i (Span.calls sp "codegen"));
    ("codegen.alloc_mw", w "codegen");
    ("linker.s", s "linker");
    ("linker.input_sections", i b.input_sections);
    ("linker.relax_iters", i b.relax_iters);
    ("linker.deleted_jumps", i b.deleted_jumps);
    ("linker.alloc_mw", w "linker");
    ("exec.s", s "exec");
    ("exec.requests", i t.exec_requests);
    ("exec.blocks", i t.exec_blocks);
    ("perfmon.lbr_s", s "perfmon.lbr");
    ("perfmon.lbr_samples", i t.profile.num_samples);
    ("perfmon.lbr_records", i t.profile.num_records);
    ("perfmon.distinct_edges", i (Perfmon.Lbr.distinct_edges t.profile));
    ("wpa.s", s "wpa");
    ("wpa.hot_funcs", i wpa.hot_funcs);
    ("wpa.dcfg_edges", i wpa.dcfg_edges);
    ("wpa.layouts_computed", i wpa.layout_cache_misses);
    ("wpa.layout_hit_ratio", ratio wpa.layout_cache_hits wpa.layout_cache_misses);
    ("layout.score", wpa.layout_score);
    ("uarch.s", s "uarch");
  ]
  @ uarch_values "uarch.base." t.t_outcome.base.counters
  @ uarch_values "uarch.opt." t.t_outcome.opt.counters
  @ [
      ("other.s", s "op");
      ("op.traced_s", t.traced_s);
      ("op.trace_overhead_s", t.traced_s -. timed_s);
      ("op.retained_mw", mw retained);
    ]

let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line. Raises [Invalid_argument] unless [values] names
   exactly the metrics of [spec], in order. *)
let line ~spec ~correct ~attempted ~failed values =
  if List.map fst values <> List.map fst spec then invalid_arg "Report.line: metric set";
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) (List.assoc name spec)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric values))
