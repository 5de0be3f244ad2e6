(* boltsim_driver: run the BOLT-style monolithic post-link optimizer on
   a benchmark and report its costs and result.

   dune exec bin/boltsim_driver.exe -- -b clang --lite *)

open Cmdliner

let run benchmark requests lite =
  match Progen.Suite.by_name benchmark with
  | None ->
    Printf.eprintf "unknown benchmark %S\n" benchmark;
    exit 2
  | Some spec ->
    let spec = match requests with Some r -> { spec with Progen.Spec.requests = r } | None -> spec in
    let program = Progen.Generate.program spec in
    let ctx = Support.Ctx.create () in
    let env = Buildsys.Driver.make_env ~ctx () in
    let bm =
      Buildsys.Driver.build env ~name:(spec.name ^ ".bm") ~program
        ~codegen_options:Codegen.default_options
        ~link_options:{ Linker.Link.default_options with emit_relocs = true }
    in
    Printf.printf "BM binary (with relocations): %d bytes\n%!"
      (Linker.Binary.total_size bm.binary);
    let image = Exec.Image.build program bm.binary in
    let profile = Perfmon.Lbr.create_profile () in
    let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run_tape ~ctx image
        { Exec.Interp.default_config with requests = spec.requests }
        ~drain:(Perfmon.Lbr.consume c)
    in
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

let benchmark =
  Arg.(value & opt string "505.mcf" & info [ "b"; "benchmark" ] ~doc:"Benchmark name.")

let requests =
  Arg.(value & opt (some int) None & info [ "r"; "requests" ] ~doc:"Profiling requests.")

let lite = Arg.(value & flag & info [ "lite" ] ~doc:"Lightning-BOLT selective processing.")

let cmd =
  Cmd.v
    (Cmd.info "boltsim_driver" ~doc:"Monolithic post-link optimizer baseline")
    Term.(const run $ benchmark $ requests $ lite)

let () = exit (Cmd.eval cmd)
