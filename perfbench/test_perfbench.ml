(* Tests of the benchmark itself, on a small 505.mcf program. *)

open Perfbench

(* The mcf load test cut to a few requests, in both op shapes. *)
let small kind =
  let w = Option.get (Workload.find "mcf-loadtest") in
  { w with Workload.kind; requests = 40 }

let setup kind = Workload.setup (small kind) ~program_seed:505L ~seed:3L

let width1 () = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~jobs:1 ()

let digest b = Support.Digesting.to_hex (Linker.Binary.image_digest b)

let traced_build_matches_driver () =
  let st = setup Workload.Cold in
  let cg, ld = Propeller.Pipeline.metadata_options in
  let env = Buildsys.Driver.make_env ~ctx:(width1 ()) () in
  let direct =
    Buildsys.Driver.build env ~name:"mcf.pm1" ~program:st.program ~codegen_options:cg
      ~link_options:ld
  in
  let counts = Workload.new_counts () in
  let rebuilt =
    Workload.traced_build (Span.create ()) ~ctx:(width1 ()) counts
      (Buildsys.Driver.make_env ~ctx:(width1 ()) ())
      ~name:"mcf.pm1" ~program:st.program (cg, ld)
  in
  Alcotest.(check string) "image digest" (digest direct.binary) (digest rebuilt);
  Alcotest.(check int) "every unit compiled" (List.length direct.objs) counts.compiled

(* The traced op equals the timed op, and its layer self times plus the
   root's own time add up to the traced op time. *)
let traced_op_matches_timed kind () =
  let st = setup kind in
  let k = Workload.warmup_index st.w + 1 in
  let timed = Workload.op st k in
  let st =
    match kind with
    | Workload.Relink -> { st with warm = Some (Workload.prime st) }
    | Workload.Cold -> st
  in
  let sp = Span.create () in
  let t = Workload.traced_op sp st k in
  Alcotest.(check string) "digest" (Workload.digest timed) (Workload.digest t.t_outcome);
  Alcotest.(check (result unit string)) "output check" (Ok ()) (Workload.check t.t_outcome);
  let sum = Span.total_self_s sp in
  if Float.abs (sum -. t.traced_s) > 1e-3 +. (1e-3 *. t.traced_s) then
    Alcotest.failf "self times sum to %f s, traced op took %f s" sum t.traced_s

let mismatched_binary_fails () =
  let st = setup Workload.Cold in
  let good = Workload.op st 0 in
  let other = Workload.setup (small Workload.Cold) ~program_seed:506L ~seed:3L in
  let foreign = Workload.op other 0 in
  let tally = Workload.tally () in
  ignore (Workload.settle tally "good" (Ok good));
  Alcotest.(check int) "good op passes" 0 tally.failed;
  let mismatched = { good with binary = foreign.binary; opt = foreign.opt } in
  ignore (Workload.settle tally "mismatched" (Ok mismatched));
  ignore (Workload.settle tally "raised" (Workload.attempt (fun () -> failwith "link")));
  Alcotest.(check (pair int int)) "attempted, failed" (3, 2) (tally.attempted, tally.failed)

let names_match_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = match Obs.Json.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let field k o = Option.get (Obs.Json.member k o) in
  let strings key section =
    match field section json with
    | Obs.Json.List l ->
      List.map (fun o -> match field key o with Obs.Json.String s -> s | _ -> Alcotest.fail key) l
    | _ -> Alcotest.fail section
  in
  let check section spec =
    let expect what = Alcotest.(check (list string)) (section ^ " " ^ what ^ "s") in
    expect "name" (List.map fst spec) (strings "name" section);
    expect "unit" (List.map snd spec) (strings "unit" section)
  in
  check "end_to_end" Report.end_to_end;
  check "per_layer" Report.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workload.t) -> w.name) Workload.all)
    (strings "name" "workloads")

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "traced build digest equals Driver.build" `Quick
            traced_build_matches_driver;
          Alcotest.test_case "traced op equals timed op (fresh env)" `Quick
            (traced_op_matches_timed Workload.Cold);
          Alcotest.test_case "traced op equals timed op (primed env)" `Quick
            (traced_op_matches_timed Workload.Relink);
          Alcotest.test_case "mismatched binary counts as failed" `Quick mismatched_binary_fails;
          Alcotest.test_case "metric names equal BENCHMARK.json" `Quick names_match_benchmark_json;
        ] );
    ]
