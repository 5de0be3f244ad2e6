(* The benchmark driver: one workload, one seed, one pass.

   main.exe --workload NAME [--seed N] [--program-seed N] [--seconds S] [--trace 0|1]

   --trace 0 sets up, then runs ops for S seconds, counting each op's
   instructions, and prints the end-to-end metrics. --trace 1 sets up,
   runs one timed op, rebuilds that op in the traced pass at pool width 1
   and prints the per-layer metrics. Every op's output is checked outside the timed region; the
   last stdout line is the JSON result. *)

open Perfbench

let tally = Workload.tally ()

let settle = Workload.settle tally

let attempt = Workload.attempt

let now = Obs.Hostclock.now

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).live_words

(* One set-up: the workload's set-up and one checked warm-up op, which
   fills the toolchain's global digest memos. *)
let setup w ~program_seed ~seed =
  let t0 = now () in
  let st = Workload.setup w ~program_seed ~seed in
  let i = Workload.warmup_index w in
  ignore (settle "warm-up op" (attempt (fun () -> Workload.op st i)));
  (st, now () -. t0)

(* One timed op. Returns its host time, the instructions and words it
   used, and its output figures when its output checks out. *)
let timed_op (st : Workload.state) i =
  let w0 = Span.words () in
  let n0 = Pmu.instructions () in
  let t0 = now () in
  let r = attempt (fun () -> Workload.op st i) in
  let dt = now () -. t0 in
  let instructions = Pmu.instructions () -. n0 in
  let alloc = Span.words () -. w0 in
  let summary (o : Workload.outcome) =
    [
      ("speedup_pct", Workload.speedup_pct o);
      ( "opt_kcycles_per_req",
        o.opt.counters.cycles /. float_of_int o.opt.stats.requests_completed /. 1e3 );
      ("text_bytes", float_of_int (Linker.Binary.text_bytes o.binary));
    ]
  in
  (dt, instructions, alloc, Option.map summary (settle (Printf.sprintf "op %d" i) r))

(* The instruction and allocation figures are means over the first
   [counted_ops] timed ops, a fixed sequence of ops for a given seed, so
   that they do not depend on how many ops the host's speed lets a run
   fit. A relink op's work varies from op to op with the objects it
   recompiles and the collections it pays for. *)
let counted_ops = 6

(* Times ops for [seconds], and for at least [counted_ops] ops. The live
   words and heap peak are read once, after the first op. *)
let timed (st : Workload.state) ~seconds =
  let first = Workload.warmup_index st.w + 1 in
  let ops = ref [] and outputs = ref None and memory = ref (nan, nan) in
  let start = now () in
  let i = ref first in
  while List.length !ops < counted_ops || now () -. start < seconds do
    let dt, n, alloc, summary = timed_op st !i in
    if !i = first then begin
      outputs := summary;
      memory := (live_words (), float_of_int (Gc.quick_stat ()).top_heap_words)
    end;
    ops := (dt, n, alloc) :: !ops;
    incr i
  done;
  let ops = List.rev !ops in
  let show f = String.concat " " (List.map (fun op -> Printf.sprintf "%.3f" (f op)) ops) in
  Printf.eprintf "timed ops (s): %s\ntimed ops (Ginstr): %s\n%!"
    (show (fun (dt, _, _) -> dt))
    (show (fun (_, n, _) -> n /. 1e9));
  let counted = List.filteri (fun k _ -> k < counted_ops) ops in
  let mean f = List.fold_left (fun a op -> a +. f op) 0.0 counted /. float_of_int counted_ops in
  let live, top_heap = !memory in
  let outputs =
    Option.value !outputs
      ~default:[ ("speedup_pct", nan); ("opt_kcycles_per_req", nan); ("text_bytes", nan) ]
  in
  [
    ("ginstr_per_op", mean (fun (_, n, _) -> n) /. 1e9);
    ("alloc_mw_per_op", Report.mw (mean (fun (_, _, a) -> a)));
    ("live_mw", Report.mw live);
    ("peak_heap_mb", top_heap *. float_of_int (Sys.word_size / 8) /. 1e6);
  ]
  @ outputs

let traced (st : Workload.state) =
  let k = Workload.warmup_index st.w + 1 in
  let live0 = live_words () in
  let t0 = now () in
  let r = attempt (fun () -> Workload.op st k) in
  let timed_s = now () -. t0 in
  let reference = Option.map Workload.digest (settle "timed op" r) in
  let retained = live_words () -. live0 in
  (* A relink op reads the caches of its primed env; the traced op gets
     its own env, primed the same way, so it sees the same cache state. *)
  let st =
    match st.w.kind with
    | Workload.Relink ->
      let st = { st with warm = Some (Workload.prime st) } in
      ignore (settle "warm-up op" (attempt (fun () -> Workload.op st (k - 1))));
      st
    | Workload.Cold -> st
  in
  let sp = Span.create () in
  let tr = attempt (fun () -> Workload.traced_op sp st k) in
  let o = settle "traced op" (Result.map (fun (t : Workload.traced) -> t.t_outcome) tr) in
  (match (reference, o) with
  | Some d, Some o when Workload.digest o <> d ->
    Workload.fail tally "traced op"
      (Printf.sprintf "digest %s <> timed op digest %s" (Workload.digest o) d)
  | _ -> ());
  match tr with
  | Ok t -> Report.layer_values sp st t ~timed_s ~retained
  | Error _ -> List.map (fun (n, _) -> (n, nan)) Report.per_layer

let () =
  let workload = ref "" and seed = ref 0 and program_seed = ref None in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N load-test seed (default 0)");
      ( "--program-seed",
        Arg.Int (fun s -> program_seed := Some (Int64.of_int s)),
        "N progen seed (default: the suite seed of the workload's program)" );
      ("--seconds", Arg.Set_float seconds, "S how long to time ops");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end pass (0) or traced per-layer pass (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--program-seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2
  in
  let program_seed = Option.value !program_seed ~default:w.spec.seed in
  let seed = Int64.of_int !seed in
  let st, setup_s = setup w ~program_seed ~seed in
  let spec, values =
    if !trace = 1 then (Report.per_layer, traced st)
    else begin
      let values = timed st ~seconds:!seconds in
      (* Further set-ups run after every memory figure is taken. *)
      let more = List.init (w.setups - 1) (fun _ -> snd (setup w ~program_seed ~seed)) in
      (Report.end_to_end, ("setup_s", Support.Stats.median (setup_s :: more)) :: values)
    end
  in
  let correct = tally.failed = 0 && List.for_all (fun (_, v) -> Float.is_finite v) values in
  print_endline
    (Report.line ~spec ~correct ~attempted:tally.attempted ~failed:tally.failed values)
