(* propeller_inspect: binary introspection & profile annotation.

   Project LBR samples onto the final layout:
     dune exec bin/propeller_inspect.exe -- annotate -b 505.mcf --json

   Bloaty-style byte accounting (paper Fig 6):
     dune exec bin/propeller_inspect.exe -- size -b 505.mcf

   Folded-stack hot paths (flamegraph.pl input):
     dune exec bin/propeller_inspect.exe -- paths -b 505.mcf

   Layout diff, baseline vs propeller:
     dune exec bin/propeller_inspect.exe -- diff -b 505.mcf *)

open Cmdliner

type variant = Base | Pm | Po

type ctx = {
  run : Support.Ctx.t;  (** The run's execution context. *)
  spec : Progen.Spec.t;
  program : Ir.Program.t;
  source : Perfmon.Source.t;
  base : Linker.Binary.t;
  pm : Linker.Binary.t;
  po : Linker.Binary.t;
}

let make_ctx benchmark requests profile_source (common : Cli_common.common) quiet =
  let run_ctx = Cli_common.context_of_common common in
  let spec = Cli_common.lookup_spec ~benchmark ~requests in
  if not quiet then Printf.printf "running pipeline on %s...\n%!" spec.name;
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env ~ctx:run_ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.name in
  let config =
    {
      Propeller.Pipeline.default_config with
      profile_run = { Exec.Interp.default_config with requests = spec.requests };
      hugepages = spec.hugepages;
      profile_source;
    }
  in
  let result = Propeller.Pipeline.run ~config ~env ~program ~name:spec.name () in
  Cli_common.export_recorder (Buildsys.Driver.recorder env) ~trace:common.trace
    ~metrics_out:common.metrics_out;
  Cli_common.export_self_profile (Buildsys.Driver.recorder env)
    ~self_profile:common.self_profile ~self_profile_out:common.self_profile_out;
  {
    run = run_ctx;
    spec;
    program;
    source = profile_source;
    base = base.Buildsys.Driver.binary;
    pm = result.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary;
    po = Propeller.Pipeline.optimized_binary result;
  }

let binary_of ctx = function Base -> ctx.base | Pm -> ctx.pm | Po -> ctx.po

(* A fresh deterministic profile of [binary] under the benchmark's
   workload — the same collection the pipeline's Phase 3 performs, but
   against whichever image is being inspected. *)
let profile_of ctx binary =
  let image = Exec.Image.build ctx.program binary in
  let run_config =
    { Exec.Interp.default_config with requests = ctx.spec.Progen.Spec.requests }
  in
  match ctx.source with
  | Perfmon.Source.Lbr ->
    let profile = Perfmon.Lbr.create_profile () in
    let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run_tape ~ctx:ctx.run image run_config ~drain:(Perfmon.Lbr.consume c)
    in
    profile
  | Perfmon.Source.Sampled ->
    if binary.Linker.Binary.bb_maps = [] then begin
      Printf.eprintf
        "--profile-source sampled needs BB address map metadata to synthesize edge weights; \
         the inspected image has none (use --variant pm or po)\n";
      exit 2
    end;
    let samples = Perfmon.Sampler.create_profile () in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx:ctx.run image run_config
        (Perfmon.Sampler.collector Perfmon.Sampler.default_config samples)
    in
    Propeller.Autofdo.synthesize ~samples ~program:ctx.program ~binary ()

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
  | Some file -> Cli_common.write_file file rendered
  | None -> print_string rendered

let run_annotate benchmark requests profile_source common variant func top json out =
  let ctx = make_ctx benchmark requests profile_source common (json || out <> None) in
  let binary = binary_of ctx variant in
  let profile = profile_of ctx binary in
  let t = Inspect.Annotate.analyze ~binary ~profile in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Annotate.to_json ?func t)
    ~to_text:(fun () -> Inspect.Annotate.to_text ~top ?func t)

let run_size benchmark requests profile_source common variant top json out =
  let ctx = make_ctx benchmark requests profile_source common (json || out <> None) in
  let t = Inspect.Size.measure (binary_of ctx variant) in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Size.to_json t)
    ~to_text:(fun () -> Inspect.Size.to_text ~top t)

let run_paths benchmark requests profile_source common variant max_paths max_len json out =
  let ctx = make_ctx benchmark requests profile_source common (json || out <> None) in
  let binary = binary_of ctx variant in
  let profile = profile_of ctx binary in
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary in
  let paths = Inspect.Paths.extract ~max_paths_per_func:max_paths ~max_len dcfg in
  emit ~json ~out
    ~to_json:(fun () -> Inspect.Paths.to_json paths)
    ~to_text:(fun () -> Inspect.Paths.to_folded paths)

let run_diff benchmark requests profile_source common from_v to_v top json out =
  let ctx = make_ctx benchmark requests profile_source common (json || out <> None) in
  let a = binary_of ctx from_v and b = binary_of ctx to_v in
  let profile = profile_of ctx a in
  let t = Inspect.Diff.compare ~profile a b in
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

let benchmark = Cli_common.benchmark_term

let requests = Cli_common.requests_term

let common = Cli_common.common_term

let profile_source = Cli_common.profile_source_term

(* Shares cli_common's enum plumbing so a typoed --variant gets the
   same "valid values are: ..." usage error as --profile-source. *)
let variant_conv = Cli_common.enum_conv ~what:"variant" [ ("base", Base); ("pm", Pm); ("po", Po) ]

let variant =
  Arg.(
    value
    & opt variant_conv Po
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:
          "Which linked image to inspect: $(b,base) (PGO+ThinLTO baseline), $(b,pm) \
           (metadata build) or $(b,po) (Propeller-optimized).")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the view as JSON.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the view to $(docv) instead of stdout.")

let top n doc = Arg.(value & opt int n & info [ "top" ] ~docv:"N" ~doc)

let func =
  Arg.(
    value
    & opt (some string) None
    & info [ "func" ] ~docv:"NAME" ~doc:"Restrict the view to one function.")

let annotate_cmd =
  Cmd.v
    (Cmd.info "annotate"
       ~doc:
         "Project LBR samples onto the final layout: per-block counts, taken vs fall-through \
          exits and mispredict rates.")
    Term.(
      const run_annotate $ benchmark $ requests $ profile_source $ common $ variant $ func
      $ top 10 "Hottest functions shown in text mode."
      $ json $ out)

let size_cmd =
  Cmd.v
    (Cmd.info "size"
       ~doc:
         "Bloaty-style byte accounting: per-section and per-function bytes, hot/cold split and \
          metadata overhead (paper Fig 6).")
    Term.(
      const run_size $ benchmark $ requests $ profile_source $ common $ variant
      $ top 20 "Largest functions shown in text mode."
      $ json $ out)

let max_paths =
  Arg.(
    value & opt int 10 & info [ "max-paths" ] ~docv:"N" ~doc:"Paths decomposed per function.")

let max_len = Arg.(value & opt int 64 & info [ "max-len" ] ~docv:"N" ~doc:"Blocks per path.")

let paths_cmd =
  Cmd.v
    (Cmd.info "paths"
       ~doc:
         "Reconstruct hot control-flow paths from LBR samples as folded stacks \
          (flamegraph.pl-compatible).")
    Term.(
      const run_paths $ benchmark $ requests $ profile_source $ common $ variant $ max_paths $ max_len $ json
      $ out)

let from_variant =
  Arg.(
    value
    & opt variant_conv Base
    & info [ "from" ] ~docv:"VARIANT" ~doc:"Image A of the comparison (profile source).")

let to_variant =
  Arg.(value & opt variant_conv Po & info [ "to" ] ~docv:"VARIANT" ~doc:"Image B of the comparison.")

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two linked images: block movement between layouts and hot-branch distance \
          histograms.")
    Term.(
      const run_diff $ benchmark $ requests $ profile_source $ common $ from_variant $ to_variant
      $ top 10 "Functions with most moved blocks shown in text mode."
      $ json $ out)

let validate_files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"JSON files to validate.")

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Parse each FILE with the Obs.Json parser; exit non-zero on any failure.")
    Term.(const run_validate $ validate_files)

let cmd =
  Cmd.group
    (Cmd.info "propeller_inspect" ~doc:"Binary introspection and profile annotation")
    [ annotate_cmd; size_cmd; paths_cmd; diff_cmd; validate_cmd ]

let () = exit (Cmd.eval cmd)
