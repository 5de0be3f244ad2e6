(* wpa_tool: the standalone whole-program-analysis tool (the paper's
   [29], create_llvm_prof). Builds the metadata binary of a benchmark,
   profiles it under load, runs Phase 3 and writes the two directive
   files consumed by Phase 4.

   dune exec bin/wpa_tool.exe -- -b clang --cc-out cc_prof.txt --ld-out ld_prof.txt *)

open Cmdliner

let run benchmark requests cc_out ld_out =
  match Progen.Suite.by_name benchmark with
  | None ->
    Printf.eprintf "unknown benchmark %S\n" benchmark;
    exit 2
  | Some spec ->
    let spec = match requests with Some r -> { spec with Progen.Spec.requests = r } | None -> spec in
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
    let image = Exec.Image.build program pm.binary in
    let profile = Perfmon.Lbr.create_profile () in
    let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run_tape ~ctx image
        { Exec.Interp.default_config with requests = spec.requests }
        ~drain:(Perfmon.Lbr.consume c)
    in
    Printf.printf "profile: %d samples, %d records, ~%d raw bytes\n%!" profile.num_samples
      profile.num_records
      (Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config profile);
    let wpa =
      Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr profile) ~binary:pm.binary ()
    in
    Printf.printf "WPA: %d hot funcs, DCFG %d blocks / %d edges, score %.1f\n%!" wpa.hot_funcs
      wpa.dcfg_blocks wpa.dcfg_edges wpa.layout_score;
    let write path content =
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n%!" path
    in
    write cc_out (Codegen.Directive.to_text wpa.plans);
    write ld_out (Linker.Orderfile.to_text wpa.ordering)

let benchmark =
  Arg.(value & opt string "505.mcf" & info [ "b"; "benchmark" ] ~doc:"Benchmark name.")

let requests =
  Arg.(value & opt (some int) None & info [ "r"; "requests" ] ~doc:"Profiling requests.")

let cc_out = Arg.(value & opt string "cc_prof.txt" & info [ "cc-out" ] ~doc:"Directives file.")

let ld_out = Arg.(value & opt string "ld_prof.txt" & info [ "ld-out" ] ~doc:"Ordering file.")

let cmd =
  Cmd.v
    (Cmd.info "wpa_tool" ~doc:"Standalone whole program analysis (Phase 3)")
    Term.(const run $ benchmark $ requests $ cc_out $ ld_out)

let () = exit (Cmd.eval cmd)
