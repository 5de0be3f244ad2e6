open Testutil

(* --- Cache -------------------------------------------------------- *)

let test_cache_basic_hit_miss () =
  let c = Uarch.Cache.create Uarch.Cache.l1i_params in
  check tb "cold miss" false (Uarch.Cache.access c 0x1000);
  check tb "warm hit" true (Uarch.Cache.access c 0x1000);
  check tb "same line hit" true (Uarch.Cache.access c 0x103f);
  check tb "next line miss" false (Uarch.Cache.access c 0x1040)

let test_cache_capacity () =
  (* 32 KiB L1i: a 16 KiB loop fits, a 1 MiB loop thrashes. *)
  let c = Uarch.Cache.create Uarch.Cache.l1i_params in
  let sweep bytes =
    let misses = ref 0 in
    for _ = 1 to 3 do
      let a = ref 0 in
      while !a < bytes do
        if not (Uarch.Cache.access c !a) then incr misses;
        a := !a + 64
      done
    done;
    !misses
  in
  let small = sweep (16 * 1024) in
  Uarch.Cache.reset c;
  let large = sweep (1024 * 1024) in
  (* Small working set: only compulsory misses on the first pass. *)
  check ti "resident set hits" (16 * 1024 / 64) small;
  check tb "thrashing misses every pass" true (large > 3 * (1024 * 1024 / 64) - 100)

let test_cache_lru () =
  (* Direct-mapped-ish check: fill one set beyond its ways and confirm
     the least recently used line is the victim. *)
  let p = { Uarch.Cache.sets = 2; ways = 2; line_bytes = 64 } in
  let c = Uarch.Cache.create p in
  (* Set 0 lines: 0, 128, 256 (every 2*64 maps to set 0). *)
  ignore (Uarch.Cache.access c 0);
  ignore (Uarch.Cache.access c 128);
  ignore (Uarch.Cache.access c 0);
  (* touching 0 makes 128 the LRU *)
  ignore (Uarch.Cache.access c 256);
  (* evicts 128 *)
  check tb "0 survives" true (Uarch.Cache.access c 0);
  check tb "128 evicted" false (Uarch.Cache.access c 128)

let test_cache_reset () =
  let c = Uarch.Cache.create Uarch.Cache.l1i_params in
  ignore (Uarch.Cache.access c 4096);
  Uarch.Cache.reset c;
  check tb "cold after reset" false (Uarch.Cache.access c 4096)

(* Reference model: per-set recency lists, most recent first. A miss
   in a full set drops the least recent line, which is the line the
   real cache's first-invalid-then-oldest-stamp victim rule evicts. *)
let reference_cache (p : Uarch.Cache.params) =
  let sets = Array.make p.sets [] in
  let access addr =
    let ln = addr / p.line_bytes in
    let s = ln mod p.sets in
    let hit = List.mem ln sets.(s) in
    let rest = List.filter (( <> ) ln) sets.(s) in
    sets.(s) <- List.filteri (fun i _ -> i < p.ways) (ln :: rest);
    hit
  in
  (access, fun () -> Array.fill sets 0 p.sets [])

(* A stream over about twice the cache's capacity (heavy reuse), with
   bursts inside half of it; -1 is a [reset]. *)
let cache_stream_arb =
  QCheck.(
    make
      ~print:(fun ((p : Uarch.Cache.params), ops) ->
        Printf.sprintf "sets=%d ways=%d line=%d ops=[%s]" p.sets p.ways p.line_bytes
          (String.concat ";" (List.map string_of_int ops)))
      Gen.(
        let* sets = oneofl [ 1; 2; 4; 8 ] in
        let* ways = int_range 1 16 in
        let* line_bytes = oneofl [ 1; 2; 4; 8; 16; 32; 64 ] in
        let cap = sets * ways * line_bytes in
        let* ops =
          list_size (int_range 0 400)
            (frequency [ (1, return (-1)); (4, int_bound (cap / 2)); (6, int_bound (2 * cap)) ])
        in
        return ({ Uarch.Cache.sets; ways; line_bytes }, ops)))

let cache_reference_law =
  QCheck.Test.make ~count:300 ~name:"cache: hit/miss sequence equals reference LRU"
    cache_stream_arb (fun (p, ops) ->
      let c = Uarch.Cache.create p and ref_access, ref_reset = reference_cache p in
      List.for_all
        (fun op ->
          if op < 0 then begin
            Uarch.Cache.reset c;
            ref_reset ();
            true
          end
          else Uarch.Cache.access c op = ref_access op)
        ops)

(* --- TLB ---------------------------------------------------------- *)

let test_tlb_4k () =
  let t = Uarch.Tlb.create Uarch.Tlb.skylake ~hugepages:false in
  check tb "cold miss" false (Uarch.Tlb.access t 0x400000);
  check tb "same page hit" true (Uarch.Tlb.access t 0x400fff);
  check tb "next page miss" false (Uarch.Tlb.access t 0x401000)

let test_tlb_2m_reach () =
  (* 8 x 2M entries cover 16 MB; with 4K pages, 128 entries cover only
     512 KB — the hugepage effect of 5.5. *)
  let code_bytes = 4 * 1024 * 1024 in
  let sweep t =
    let misses = ref 0 in
    for _ = 1 to 3 do
      let a = ref 0 in
      while !a < code_bytes do
        if not (Uarch.Tlb.access t !a) then incr misses;
        a := !a + 4096
      done
    done;
    !misses
  in
  let small_pages = sweep (Uarch.Tlb.create Uarch.Tlb.skylake ~hugepages:false) in
  let huge_pages = sweep (Uarch.Tlb.create Uarch.Tlb.skylake ~hugepages:true) in
  check tb "hugepages dramatically fewer misses" true (huge_pages * 10 < small_pages)

let test_tlb_page_scaling () =
  (* Shrinking pages by 2^4 makes a working set that fit before now
     overflow the same entry count. *)
  let code = 400 * 1024 in
  let sweep t =
    let misses = ref 0 in
    for _ = 1 to 2 do
      let a = ref 0 in
      while !a < code do
        if not (Uarch.Tlb.access t !a) then incr misses;
        a := !a + 512
      done
    done;
    !misses
  in
  let normal = sweep (Uarch.Tlb.create Uarch.Tlb.skylake ~hugepages:false) in
  let scaled =
    sweep (Uarch.Tlb.create ~page_scale_bits:4 Uarch.Tlb.skylake ~hugepages:false)
  in
  check tb "scaled pages raise pressure" true (scaled > 2 * normal)

(* --- BTB ---------------------------------------------------------- *)

let test_btb_resteer_once () =
  let b = Uarch.Btb.create Uarch.Btb.skylake in
  check tb "first taken resteers" true (Uarch.Btb.taken b ~src:0x1234);
  check tb "tracked afterwards" false (Uarch.Btb.taken b ~src:0x1234)

let test_btb_capacity_pressure () =
  let b = Uarch.Btb.create { Uarch.Btb.entries = 16; ways = 2 } in
  (* 64 distinct branches > 16 entries: revisiting them must resteer. *)
  for i = 0 to 63 do
    ignore (Uarch.Btb.taken b ~src:(i * 8))
  done;
  let resteers = ref 0 in
  for i = 0 to 63 do
    if Uarch.Btb.taken b ~src:(i * 8) then incr resteers
  done;
  check tb "pressure causes resteers" true (!resteers > 32)

(* --- Core counters ------------------------------------------------ *)

let core_run ?(hugepages = false) program binary requests =
  let image = Exec.Image.build program binary in
  let core = Uarch.Core.create { Uarch.Core.default_config with hugepages } in
  let stats =
    Exec.Interp.run ~ctx:(fresh_ctx ()) image
      { Exec.Interp.default_config with requests }
      (Uarch.Core.sink core)
  in
  (stats, Uarch.Core.counters core)

let test_core_counter_sanity () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let stats, c = core_run program binary 30 in
  check tb "instructions counted" true (c.instructions > 0);
  check tb "cycles accumulate" true (c.cycles > 0.0);
  (* Miss hierarchies are ordered. *)
  check tb "L2 misses <= L1 misses" true (c.i2_l2_code_miss <= c.i1_l1i_miss);
  check tb "L3 misses <= L2 misses" true (c.i3_l3_code_miss <= c.i2_l2_code_miss);
  check tb "stall iTLB <= all iTLB" true (c.t2_itlb_stall_miss <= c.t1_itlb_miss);
  check tb "resteers <= taken" true (c.b1_baclears <= c.b2_taken_branches);
  (* The core's taken-branch counter agrees with the interpreter. *)
  check ti "B2 = taken" (Exec.Interp.taken_branches stats) c.b2_taken_branches

let test_core_counters_deterministic () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let _, c1 = core_run program binary 20 in
  let _, c2 = core_run program binary 20 in
  check tb "same counters" true (c1 = c2)

let test_core_hugepage_itlb () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } =
    compile_and_link ~link:{ Linker.Link.default_options with text_align = 2 * 1024 * 1024 } program
  in
  let _, c4k = core_run ~hugepages:false program binary 30 in
  let _, c2m = core_run ~hugepages:true program binary 30 in
  check tb "hugepages reduce iTLB misses" true (c2m.t1_itlb_miss <= c4k.t1_itlb_miss)

(* Integer counters of the front-end model without the repeated-line
   skip, in [counters_assoc] order: every line of every fetch probes
   the L1i, the DSB's two windows and, on a page change, the iTLB. *)
let reference_counters (cfg : Uarch.Core.config) events =
  let l1 = Uarch.Cache.create cfg.l1i and l2 = Uarch.Cache.create cfg.l2
  and l3 = Uarch.Cache.create cfg.l3 and dsb = Uarch.Dsb.create cfg.dsb
  and btb = Uarch.Btb.create cfg.btb
  and tlb = Uarch.Tlb.create ~page_scale_bits:cfg.page_scale_bits cfg.itlb ~hugepages:cfg.hugepages in
  let n = Array.make 12 0 and last_page = ref (-1) in
  let bump i = n.(i) <- n.(i) + 1 in
  let miss i hit = if not hit then bump i in
  List.iter
    (function
      | `Fetch (addr, len, insts) ->
        n.(0) <- n.(0) + max 1 insts;
        bump 1;
        for ln = addr lsr 6 to (addr + len - 1) lsr 6 do
          let a = ln lsl 6 in
          let l1_hit = Uarch.Cache.access l1 a in
          if Uarch.Tlb.page tlb a <> !last_page then begin
            last_page := Uarch.Tlb.page tlb a;
            if not (Uarch.Tlb.access tlb a) then (bump 5; miss 6 l1_hit)
          end;
          if not l1_hit then begin
            bump 2;
            if not (Uarch.Cache.access l2 a) then (bump 3; miss 4 (Uarch.Cache.access l3 a))
          end;
          miss 9 (Uarch.Dsb.access dsb a);
          miss 9 (Uarch.Dsb.access dsb (a + 32))
        done
      | `Branch (src, kindc, taken) ->
        if kindc = 0 then bump 10;
        if taken then (bump 8; if Uarch.Btb.taken btb ~src then bump 7)
      | `Dmiss -> bump 11)
    events;
  Array.to_list n

let tape_of events =
  let t = Exec.Event.create_tape () in
  List.iteri
    (fun i ev ->
      let tag, a, b, c =
        match ev with
        | `Fetch (addr, len, insts) -> (Exec.Event.tag_fetch, addr, len, insts)
        | `Branch (src, kindc, taken) ->
          ( Exec.Event.tag_branch,
            src,
            src + 16,
            Exec.Event.encode_branch_meta ~kind:(Exec.Event.kind_of_int kindc) ~taken )
        | `Dmiss -> (Exec.Event.tag_dmiss, 0, 0, 0)
      in
      Bytes.set t.Exec.Event.tags i tag;
      t.a.(i) <- a;
      t.b.(i) <- b;
      t.c.(i) <- c)
    events;
  t.len <- List.length events;
  t

let tiny_config =
  {
    Uarch.Core.default_config with
    l1i = { Uarch.Cache.sets = 4; ways = 2; line_bytes = 64 };
    l2 = { Uarch.Cache.sets = 8; ways = 2; line_bytes = 64 };
    l3 = { Uarch.Cache.sets = 16; ways = 2; line_bytes = 64 };
    itlb = { Uarch.Tlb.entries_4k = 4; ways_4k = 2; entries_2m = 2 };
    btb = { Uarch.Btb.entries = 8; ways = 2 };
    page_scale_bits = 7;
  }

(* DSB shapes around the repeated-line skip's exactness guard: one set
   with room for both windows of a line, one 1-way set (skip off), 16B
   windows whose probed pair lands in distinct sets or in one 1-way set
   (skip off), and 64B windows. *)
let dsb_shapes =
  [
    Uarch.Dsb.skylake;
    { Uarch.Dsb.windows = 8; ways = 8; window_bytes = 32 };
    { Uarch.Dsb.windows = 1; ways = 1; window_bytes = 32 };
    { Uarch.Dsb.windows = 4; ways = 1; window_bytes = 16 };
    { Uarch.Dsb.windows = 2; ways = 1; window_bytes = 16 };
    { Uarch.Dsb.windows = 2; ways = 2; window_bytes = 64 };
  ]

(* Fetches over 48 KiB that often restart at, or overlap, the previous
   fetch's last line; zero-length fetches included. A [`Near d] fetch
   starts [d] bytes after the previous fetch's end. *)
let tape_arb =
  QCheck.(
    make
      ~print:(fun ((tiny, dsb, huge), evs) ->
        Printf.sprintf "tiny=%b dsb=%d huge=%b events=[%s]" tiny dsb huge
          (String.concat ";"
             (List.map
                (function
                  | `Near (d, l, _) -> Printf.sprintf "near(%d,%d)" d l
                  | `At (x, l, _) -> Printf.sprintf "at(%d,%d)" x l
                  | `Branch (s, k, tk) -> Printf.sprintf "br(%d,%d,%b)" s k tk
                  | `Dmiss -> "dmiss")
                evs)))
      Gen.(
        let* shape = triple bool (int_bound (List.length dsb_shapes - 1)) bool in
        let len = frequency [ (2, return 0); (5, int_range 1 130); (1, int_range 131 400) ] in
        let* evs =
          list_size (int_range 0 600)
            (frequency
               [
                 (4, map3 (fun d l i -> `Near (d, l, i)) (int_range (-80) 8) len (int_bound 40));
                 (2, map3 (fun x l i -> `At (x, l, i)) (int_bound 49151) len (int_bound 40));
                 (3, map3 (fun s k t -> `Branch (s, k, t)) (int_bound 49151) (int_bound 4) bool);
                 (1, return `Dmiss);
               ])
        in
        return (shape, evs)))

let tape_equivalence_law =
  QCheck.Test.make ~count:200 ~name:"core: consume = sink replay = unskipped reference"
    tape_arb (fun ((tiny, dsb, hugepages), raw) ->
      let base = 0x10000 in
      let _, events =
        List.fold_left_map
          (fun prev_end ev ->
            match ev with
            | `Near (d, len, insts) ->
              let addr = max base (prev_end + d) in
              (addr + len, `Fetch (addr, len, insts))
            | `At (x, len, insts) -> (base + x + len, `Fetch (base + x, len, insts))
            | `Branch (x, k, t) -> (prev_end, `Branch (base + x, k, t))
            | `Dmiss -> (prev_end, `Dmiss))
          base raw
      in
      let config =
        { (if tiny then tiny_config else Uarch.Core.default_config) with
          dsb = List.nth dsb_shapes dsb; hugepages }
      in
      let tape = tape_of events in
      let fast = Uarch.Core.create config and slow = Uarch.Core.create config in
      (* A reset in between must forget the last fetched line. *)
      Uarch.Core.consume fast tape;
      Uarch.Core.reset fast;
      Uarch.Core.consume fast tape;
      Exec.Event.replay tape (Uarch.Core.sink slow);
      let cf = Uarch.Core.counters fast in
      cf = Uarch.Core.counters slow
      && List.map snd (Uarch.Core.counters_assoc cf) = reference_counters config events)

(* --- Golden counters ------------------------------------------- *)

(* The full counter record, cycles included, of 505.mcf's base and
   Propeller-optimized binaries at 40 requests, and of the base binary
   under a small hugepage iTLB. Any change to a hit/miss decision of
   the front-end model moves one of these. *)
let render (c : Uarch.Core.counters) =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Uarch.Core.counters_assoc c)
    @ [ Printf.sprintf "cycles=%h" c.cycles ])

let counters_t = Alcotest.testable (fun ppf c -> Format.pp_print_string ppf (render c)) ( = )

let golden_base =
  { Uarch.Core.instructions = 1280997; fetch_events = 217689; i1_l1i_miss = 346;
    i2_l2_code_miss = 346; i3_l3_code_miss = 346; t1_itlb_miss = 11; t2_itlb_stall_miss = 11;
    b1_baclears = 512; b2_taken_branches = 80798; dsb_misses = 7776; cond_branches = 163014;
    dmisses = 101; cycles = 0x1.cc8a9p+18 }

let golden_opt =
  { golden_base with
    instructions = 1283293; i1_l1i_miss = 331; i2_l2_code_miss = 331; i3_l3_code_miss = 331;
    b1_baclears = 509; b2_taken_branches = 79031; dsb_misses = 6972; cycles = 0x1.c804dp+18 }

let golden_huge =
  { golden_base with t1_itlb_miss = 1087; t2_itlb_stall_miss = 9; cycles = 0x1.df615p+18 }

let test_core_golden_mcf () =
  let program = Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")) in
  let env = Buildsys.Driver.make_env ~ctx:(fresh_ctx ()) () in
  let base = (Propeller.Pipeline.baseline_build ~env ~program ~name:"gb").binary in
  let opt =
    Propeller.Pipeline.optimized_binary
      (Propeller.Pipeline.run
         ~config:
           {
             Propeller.Pipeline.default_config with
             profile_run = { Exec.Interp.default_config with requests = 40 };
           }
         ~env ~program ~name:"go" ())
  in
  let simulate ?(config = Uarch.Core.default_config) binary =
    let core = Uarch.Core.create config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run_tape ~ctx:(fresh_ctx ()) (Exec.Image.build program binary)
        { Exec.Interp.default_config with requests = 40 }
        ~drain:(Uarch.Core.consume core)
    in
    Uarch.Core.counters core
  in
  check counters_t "base" golden_base (simulate base);
  check counters_t "optimized" golden_opt (simulate opt);
  (* 16 KiB pages and 2 entries: mcf's text spans 3 pages, so the
     hugepage side evicts. *)
  let huge =
    { Uarch.Core.default_config with
      hugepages = true; page_scale_bits = 7; itlb = { Uarch.Tlb.skylake with entries_2m = 2 } }
  in
  check counters_t "hugepage" golden_huge (simulate ~config:huge base)

(* --- Heatmap ------------------------------------------------------ *)

let test_heatmap_accumulates () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let hm =
    Uarch.Heatmap.create ~lo:binary.text_start ~hi:binary.text_end ~rows:8 ~cols:4
      ~total_requests:20
  in
  let image = Exec.Image.build program binary in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run ~ctx:(fresh_ctx ()) image
      { Exec.Interp.default_config with requests = 20 }
      (Uarch.Heatmap.sink hm)
  in
  check tb "some rows touched" true (Uarch.Heatmap.occupied_rows hm > 0);
  let total = ref 0 in
  for r = 0 to 7 do
    for c = 0 to 3 do
      total := !total + Uarch.Heatmap.cell hm ~row:r ~col:c
    done
  done;
  check tb "bytes recorded" true (!total > 0);
  let rendered = Uarch.Heatmap.render hm in
  check ti "8 rows rendered" 8 (List.length (String.split_on_char '\n' rendered) - 1);
  check tb "csv has header" true
    (String.length (Uarch.Heatmap.to_csv hm) > String.length "row,col,bytes\n")

let suite =
  [
    Alcotest.test_case "cache: hit/miss" `Quick test_cache_basic_hit_miss;
    Alcotest.test_case "cache: capacity" `Quick test_cache_capacity;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache: reset" `Quick test_cache_reset;
    QCheck_alcotest.to_alcotest cache_reference_law;
    Alcotest.test_case "tlb: 4k pages" `Quick test_tlb_4k;
    Alcotest.test_case "tlb: hugepage reach" `Quick test_tlb_2m_reach;
    Alcotest.test_case "tlb: page scaling" `Quick test_tlb_page_scaling;
    Alcotest.test_case "btb: resteer once" `Quick test_btb_resteer_once;
    Alcotest.test_case "btb: capacity pressure" `Quick test_btb_capacity_pressure;
    Alcotest.test_case "core: counter sanity" `Quick test_core_counter_sanity;
    Alcotest.test_case "core: deterministic" `Quick test_core_counters_deterministic;
    Alcotest.test_case "core: hugepage iTLB" `Quick test_core_hugepage_itlb;
    Alcotest.test_case "core: golden mcf counters" `Quick test_core_golden_mcf;
    QCheck_alcotest.to_alcotest tape_equivalence_law;
    Alcotest.test_case "heatmap" `Quick test_heatmap_accumulates;
  ]
