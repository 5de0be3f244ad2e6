(* Build-system scenario: why relinking is cheap.

   Shows the content-addressed object cache at work across the four
   phases, then does an *incremental* Propeller round: after the first
   optimization, the profile shifts (a different workload mix), and the
   second Phase 4 only re-generates the objects whose directives
   actually changed.

   Run with: dune exec examples/build_cache_demo.exe *)

let () =
  print_endline "=== build cache demo ===";
  let spec = { Progen.Suite.mysql with Progen.Spec.requests = 120 } in
  let program = Progen.Generate.program spec in
  (* A small worker pool so saved backend work shows up as wall time. *)
  let ctx = Support.Ctx.create () in
  let env = Buildsys.Driver.make_env ~workers:16 ~ctx () in
  let cache_line label =
    Printf.printf "  %-26s hits=%-5d misses=%-5d hit-rate=%.0f%%  stored=%.1f MB\n" label
      (Buildsys.Cache.hits env.obj_cache)
      (Buildsys.Cache.misses env.obj_cache)
      (100.0 *. Buildsys.Cache.hit_rate env.obj_cache)
      (float_of_int (Buildsys.Cache.stored_bytes env.obj_cache) /. 1.0e6)
  in

  print_endline "\n[1] vanilla build (everything misses):";
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"db" in
  Printf.printf "  wall %.1fs, %d objects\n" base.wall_seconds (List.length base.objs);
  cache_line "after baseline";

  print_endline "\n[2] identical rebuild (everything hits):";
  let again = Propeller.Pipeline.baseline_build ~env ~program ~name:"db2" in
  Printf.printf "  wall %.1fs (link only)\n" again.wall_seconds;
  cache_line "after rebuild";

  print_endline "\n[3] Propeller phases 1-4:";
  let run_pipeline requests =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests };
        }
      ~env ~program ~name:"db" ()
  in
  let prop = run_pipeline spec.requests in
  Printf.printf "  metadata build wall %.1fs; Phase 4 wall %.1fs\n"
    prop.times.metadata_build_s prop.times.optimize_build_s;
  Printf.printf "  Phase 4 re-generated %d/%d objects; the other %d came from cache\n"
    prop.hot_objects prop.total_objects (prop.total_objects - prop.hot_objects);
  cache_line "after propeller";

  print_endline "\n[4] re-optimize with a longer profiling run (profile drifts):";
  let prop2 = run_pipeline (2 * spec.requests) in
  Printf.printf "  Phase 4 this time re-generated %d/%d objects (only changed directives)\n"
    prop2.hot_objects prop2.total_objects;
  cache_line "after re-optimize";

  print_endline "\n[5] the same Phase 4 against a cold cache, for contrast:";
  let cold_env = Buildsys.Driver.make_env ~workers:16 ~ctx () in
  let cg, ld = Propeller.Pipeline.optimize_options prop2.wpa in
  let cold =
    Buildsys.Driver.build cold_env ~name:"db.cold" ~program ~codegen_options:cg ~link_options:ld
  in
  Printf.printf "  cold-cache Phase 4 wall %.1fs vs warm %.1fs (%.1fx)\n" cold.wall_seconds
    prop2.times.optimize_build_s
    (cold.wall_seconds /. prop2.times.optimize_build_s)
