open Testutil

(* Shared pipeline run: the PO binary has cold-split fragments, the
   profile drives the annotate/paths views. Built once, read by all. *)
let fixture =
  lazy
    (let spec, program = medium_program () in
     let env = Buildsys.Driver.make_env ~ctx:(fresh_ctx ()) () in
     let result =
       Propeller.Pipeline.run
         ~config:
           {
             Propeller.Pipeline.default_config with
             profile_run = { Exec.Interp.default_config with requests = spec.requests };
           }
         ~env ~program ~name:"testprog" ()
     in
     let po = Propeller.Pipeline.optimized_binary result in
     let _, profile = run_with_profile ~requests:spec.requests program po in
     (program, result, po, profile))

(* --- Resolve ------------------------------------------------------ *)

let test_resolve_every_block_byte () =
  let _, _, po, _ = Lazy.force fixture in
  let r = Inspect.Resolve.create po in
  (* First and last byte of every placed block resolve to that block. *)
  List.iter
    (fun (b : Linker.Binary.block_info) ->
      List.iter
        (fun addr ->
          match Inspect.Resolve.resolve r addr with
          | Inspect.Resolve.Code l ->
            check ts "func" b.func l.Inspect.Resolve.func;
            check ti "block" b.block l.Inspect.Resolve.block;
            check ti "offset" (addr - b.addr) l.Inspect.Resolve.offset
          | _ -> Alcotest.failf "0x%x inside %s#%d did not resolve to code" addr b.func b.block)
        [ b.addr; b.addr + b.size - 1 ])
    (Linker.Binary.blocks_in_address_order po)

let test_resolve_cold_fragment () =
  let _, _, po, _ = Lazy.force fixture in
  let r = Inspect.Resolve.create po in
  let cold_secs =
    List.filter
      (fun (p : Linker.Binary.placed) ->
        p.kind = Objfile.Section.Text
        && match p.symbol with Some s -> Objfile.Symname.is_cold s | None -> false)
      po.Linker.Binary.sections
  in
  check tb "PO layout has cold sections" true (cold_secs <> []);
  List.iter
    (fun (p : Linker.Binary.placed) ->
      match Inspect.Resolve.resolve r p.addr with
      | Inspect.Resolve.Code l ->
        check tb "fragment classified cold" true (l.Inspect.Resolve.fragment = Inspect.Resolve.Cold);
        (* The owner function must match the cluster symbol's owner. *)
        check ts "owner" (Objfile.Symname.owner (Option.get p.symbol)) l.Inspect.Resolve.func
      | _ -> Alcotest.failf "cold section %s start did not resolve to code" p.name)
    cold_secs

let test_resolve_padding_between_sections () =
  let _, _, po, _ = Lazy.force fixture in
  let r = Inspect.Resolve.create po in
  let texts =
    List.filter (fun (p : Linker.Binary.placed) -> p.kind = Objfile.Section.Text)
      po.Linker.Binary.sections
    |> List.sort (fun (a : Linker.Binary.placed) b -> compare a.addr b.addr)
  in
  (* Find an alignment gap between two adjacent text sections. *)
  let rec gap = function
    | (a : Linker.Binary.placed) :: (b : Linker.Binary.placed) :: rest ->
      if a.addr + a.size < b.addr then Some (a, b) else gap (b :: rest)
    | _ -> None
  in
  match gap texts with
  | None -> Alcotest.fail "expected at least one alignment gap in the PO text segment"
  | Some (a, b) -> (
    match Inspect.Resolve.resolve r (a.addr + a.size) with
    | Inspect.Resolve.Padding { prev; next } ->
      check ts "prev symbol" (Option.value a.symbol ~default:a.name)
        (Option.value prev ~default:"<none>");
      check ts "next symbol" (Option.value b.symbol ~default:b.name)
        (Option.value next ~default:"<none>")
    | _ -> Alcotest.fail "gap byte did not classify as padding")

let test_resolve_outside_text () =
  let _, _, po, _ = Lazy.force fixture in
  let r = Inspect.Resolve.create po in
  (match Inspect.Resolve.resolve r (po.Linker.Binary.text_end + 1_000_000) with
  | Inspect.Resolve.Outside -> ()
  | Inspect.Resolve.Noncode _ -> ()
  | _ -> Alcotest.fail "far address classified as text");
  (* One past the last text byte is never code. *)
  match Inspect.Resolve.resolve r po.Linker.Binary.text_end with
  | Inspect.Resolve.Code _ -> Alcotest.fail "text_end resolved to code"
  | _ -> ()

(* --- Size --------------------------------------------------------- *)

let test_size_reconciles () =
  let _, _, po, _ = Lazy.force fixture in
  let s = Inspect.Size.measure po in
  check ti "kinds sum to total" (Linker.Binary.total_size po)
    (List.fold_left (fun acc (r : Inspect.Size.kind_row) -> acc + r.bytes) 0 s.kinds);
  check ti "hot + cold = text bytes" (Linker.Binary.text_bytes po)
    (s.hot_text_bytes + s.cold_text_bytes);
  check ti "per-function sums = text bytes" (Linker.Binary.text_bytes po)
    (List.fold_left
       (fun acc (f : Inspect.Size.func_row) -> acc + f.hot_bytes + f.cold_bytes)
       0 s.funcs);
  check ti "metadata components" s.metadata_bytes
    (s.bb_addr_map_bytes + s.eh_frame_bytes + s.rela_bytes);
  check tb "PO split some text cold" true (s.cold_text_bytes > 0)

(* --- Annotate ----------------------------------------------------- *)

let test_annotate_counts_attributed () =
  let _, _, po, profile = Lazy.force fixture in
  let t = Inspect.Annotate.analyze ~binary:po ~profile in
  check tb "has hot functions" true (t.Inspect.Annotate.functions <> []);
  check ti "num_samples from profile" profile.Perfmon.Lbr.num_samples t.num_samples;
  (* Taken exits cannot exceed the profile's aggregate taken records,
     and at least one block must show a taken exit. *)
  let taken =
    List.fold_left
      (fun acc (fr : Inspect.Annotate.func_report) ->
        List.fold_left (fun acc (r : Inspect.Annotate.block_row) -> acc + r.taken_out) acc fr.rows)
      0 t.functions
  in
  check tb "some taken exits" true (taken > 0);
  check tb "taken bounded by profile" true (taken <= Perfmon.Lbr.branch_total profile)

(* --- Determinism -------------------------------------------------- *)

(* Two fresh end-to-end runs (generation, build, profile, analysis)
   must render byte-identical JSON: the acceptance bar for every view. *)
let fresh_view () =
  let spec, program = medium_program () in
  let env = Buildsys.Driver.make_env ~ctx:(fresh_ctx ()) () in
  let result =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = spec.requests };
        }
      ~env ~program ~name:"testprog" ()
  in
  let po = Propeller.Pipeline.optimized_binary result in
  let _, profile = run_with_profile ~requests:spec.requests program po in
  let annotate = Obs.Json.to_string (Inspect.Annotate.to_json (Inspect.Annotate.analyze ~binary:po ~profile)) in
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary:po in
  let paths = Inspect.Paths.extract dcfg in
  (annotate, Obs.Json.to_string (Inspect.Paths.to_json paths), Inspect.Paths.to_folded paths)

let test_json_determinism () =
  let a1, p1, f1 = fresh_view () in
  let a2, p2, f2 = fresh_view () in
  check ts "annotate JSON byte-identical" a1 a2;
  check ts "paths JSON byte-identical" p1 p2;
  check ts "folded stacks byte-identical" f1 f2

(* --- Paths -------------------------------------------------------- *)

let test_paths_weights_bounded () =
  let _, _, po, profile = Lazy.force fixture in
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary:po in
  let paths = Inspect.Paths.extract dcfg in
  check tb "some paths decomposed" true (paths <> []);
  (* Weight-descending order, positive weights, no block repeats. *)
  let rec descending = function
    | (a : Inspect.Paths.path) :: (b : Inspect.Paths.path) :: rest ->
      a.weight >= b.weight && descending (b :: rest)
    | _ -> true
  in
  check tb "weight-descending" true (descending paths);
  List.iter
    (fun (p : Inspect.Paths.path) ->
      check tb "positive weight" true (p.weight > 0);
      check ti "no repeated block"
        (List.length p.blocks)
        (List.length (List.sort_uniq compare p.blocks)))
    paths;
  (* Folded rendering: one line per path, flamegraph grammar. *)
  let folded = Inspect.Paths.to_folded paths in
  let lines = String.split_on_char '\n' folded |> List.filter (fun l -> l <> "") in
  check ti "one folded line per path" (List.length paths) (List.length lines)

(* --- Diff --------------------------------------------------------- *)

let test_diff_base_vs_po () =
  let program, result, po, _ = Lazy.force fixture in
  let base = result.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary in
  let _, profile = run_with_profile ~requests:40 program base in
  let d = Inspect.Diff.compare ~profile base po in
  let m = d.Inspect.Diff.movement in
  check ti "all blocks matched" m.blocks_a m.common;
  check tb "layout moved blocks" true (m.moved > 0);
  check tb "some text went cold" true (m.hot_to_cold > 0);
  (* Histogram weights are conserved: every replayed sample lands in a
     bucket on the A side. *)
  let wa = List.fold_left (fun acc (b : Inspect.Diff.bucket) -> acc + b.weight_a) 0 d.buckets in
  let wb = List.fold_left (fun acc (b : Inspect.Diff.bucket) -> acc + b.weight_b) 0 d.buckets in
  check tb "A weights bounded" true (wa <= d.branch_weight);
  check tb "B weights bounded" true (wb + d.unmatched_weight <= d.branch_weight)

(* --- Lbr mispredicts ---------------------------------------------- *)

let test_lbr_mispredicts () =
  (* A 50/50 branch defeats the 2-bit counter: its taken records must
     show a substantial mispredict count. *)
  let f = diamond_func ~name:"main" ~prob:0.5 () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let _, profile = run_with_profile ~requests:400 program binary in
  check tb "mispredicts recorded" true (Perfmon.Lbr.mispredict_total profile > 0);
  (* Per-pair counts never exceed the pair's record count. *)
  Perfmon.Lbr.iter_pairs
    (fun ~src ~dst m ->
      let n = Perfmon.Lbr.find_pair profile.Perfmon.Lbr.branches ~src ~dst in
      if m > n then Alcotest.failf "pair (0x%x,0x%x): %d mispredicts > %d records" src dst m n)
    profile.Perfmon.Lbr.mispredicts;
  (* Rate accessor agrees with the raw tables and is 0 for unseen pairs. *)
  check tf "unseen pair rate" 0.0 (Perfmon.Lbr.mispredict_rate profile ~src:1 ~dst:2)

let test_lbr_mispredicts_deterministic () =
  let run () =
    let f = diamond_func ~name:"main" ~prob:0.5 () in
    let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
    let _, { Linker.Link.binary; _ } = compile_and_link program in
    let _, profile = run_with_profile ~requests:400 program binary in
    Perfmon.Lbr.mispredict_total profile
  in
  check ti "deterministic mispredict total" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "resolve: every block byte" `Quick test_resolve_every_block_byte;
    Alcotest.test_case "resolve: cold fragments" `Quick test_resolve_cold_fragment;
    Alcotest.test_case "resolve: padding between sections" `Quick
      test_resolve_padding_between_sections;
    Alcotest.test_case "resolve: outside text" `Quick test_resolve_outside_text;
    Alcotest.test_case "size: totals reconcile" `Quick test_size_reconciles;
    Alcotest.test_case "annotate: counts attributed" `Quick test_annotate_counts_attributed;
    Alcotest.test_case "json: byte-identical across runs" `Slow test_json_determinism;
    Alcotest.test_case "paths: weights bounded" `Quick test_paths_weights_bounded;
    Alcotest.test_case "diff: base vs po" `Quick test_diff_base_vs_po;
    Alcotest.test_case "lbr: mispredict modeling" `Quick test_lbr_mispredicts;
    Alcotest.test_case "lbr: mispredict determinism" `Quick test_lbr_mispredicts_deterministic;
  ]
