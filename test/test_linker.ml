open Testutil

let link_program ?codegen ?link program = snd (compile_and_link ?codegen ?link program)

let test_addresses_disjoint_sorted () =
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  let blocks = Hashtbl.fold (fun _ b acc -> b :: acc) binary.blocks [] in
  let sorted =
    List.sort (fun (a : Linker.Binary.block_info) b -> compare a.addr b.addr) blocks
  in
  let rec walk = function
    | (a : Linker.Binary.block_info) :: (b :: _ as rest) ->
      if a.addr + a.size > b.addr then
        Alcotest.failf "overlap: %s#%d [%d,%d) vs %s#%d [%d,%d)" a.func a.block a.addr
          (a.addr + a.size) b.func b.block b.addr (b.addr + b.size);
      walk rest
    | [ _ ] | [] -> ()
  in
  walk sorted;
  check tb "text within bounds" true
    (List.for_all
       (fun (b : Linker.Binary.block_info) ->
         b.addr >= binary.text_start && b.addr + b.size <= binary.text_end)
       blocks)

let test_entry_resolution () =
  let program = call_program () in
  let { Linker.Link.binary; _ } = link_program program in
  check tb "main resolves" true (Option.is_some (Linker.Binary.symbol_addr binary "main"));
  let main_addr = Option.get (Linker.Binary.symbol_addr binary "main") in
  let entry_block = Linker.Binary.block_info_exn binary ~func:"main" ~block:0 in
  check ti "function symbol = entry block" entry_block.addr main_addr

let test_relaxation_deletes_fallthrough () =
  let program = call_program () in
  let relaxed = link_program program in
  let unrelaxed =
    link_program ~link:{ Linker.Link.default_options with relax = false } program
  in
  check tb "jumps deleted" true (relaxed.stats.deleted_jumps > 0);
  check tb "branches shrunk" true (relaxed.stats.shrunk_branches > 0);
  check ti "no deletion without relax" 0 unrelaxed.stats.deleted_jumps;
  check tb "relaxed text smaller" true
    (Linker.Binary.text_bytes relaxed.binary < Linker.Binary.text_bytes unrelaxed.binary)

let test_relaxation_preserves_targets () =
  (* After relaxation every surviving branch still lands on its block. *)
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Hashtbl.iter
    (fun _ (info : Linker.Binary.block_info) ->
      List.iter
        (fun i ->
          match Isa.branch_target i with
          | Some (Isa.Target.Block { func; block }) ->
            let tgt = Linker.Binary.block_info_exn binary ~func ~block in
            check tb "target exists" true (tgt.size >= 0)
          | Some (Isa.Target.Func f) ->
            check tb "callee symbol" true (Option.is_some (Linker.Binary.symbol_addr binary f))
          | None -> ())
        info.insts)
    binary.blocks

let test_short_branches_in_range () =
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Hashtbl.iter
    (fun _ (info : Linker.Binary.block_info) ->
      let addr = ref info.addr in
      List.iter
        (fun i ->
          let after = !addr + Isa.size i in
          (match i with
          | Isa.Jcc { target = Isa.Target.Block { func; block }; encoding = Isa.Short; _ }
          | Isa.Jmp { target = Isa.Target.Block { func; block }; encoding = Isa.Short } ->
            let tgt = Linker.Binary.block_info_exn binary ~func ~block in
            let disp = tgt.addr - after in
            if not (Isa.fits_short disp) then
              Alcotest.failf "short branch out of range: %s#%d -> %s#%d disp=%d" info.func
                info.block func block disp
          | _ -> ());
          addr := after)
        info.insts)
    binary.blocks

let test_jcc_reversal () =
  (* Layout [0;2;...] with branch taken->2: jcc skips the jmp, so the
     linker must reverse the condition and delete the jump. *)
  let f = diamond_func ~prob:0.9 () in
  let plan =
    {
      Codegen.Directive.func = "diamond";
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0; 1; 2; 3 ] } ];
    }
  in
  ignore plan;
  let u = Ir.Cunit.make ~name:"u" [ f ] in
  let program = Ir.Program.make ~name:"p" ~main:"diamond" [ u ] in
  (* default order puts 1 right after 0 (hot path): branch to 1 becomes
     the reversed fall-through. *)
  let { Linker.Link.binary; stats } = link_program program in
  check tb "something relaxed" true (stats.deleted_jumps > 0);
  let b0 = Linker.Binary.block_info_exn binary ~func:"diamond" ~block:0 in
  (* Block 0's surviving terminator must be a single conditional. *)
  let branches = List.filter Isa.is_branch b0.insts in
  check ti "one branch remains" 1 (List.length branches)

let test_ordering_file_respected () =
  let program = call_program () in
  let link_opts order =
    { Linker.Link.default_options with ordering = Some order }
  in
  let b1 = (link_program ~link:(link_opts [ "main"; "callee" ]) program).binary in
  let b2 = (link_program ~link:(link_opts [ "callee"; "main" ]) program).binary in
  let addr b f = Option.get (Linker.Binary.symbol_addr b f) in
  check tb "main first" true (addr b1 "main" < addr b1 "callee");
  check tb "callee first" true (addr b2 "callee" < addr b2 "main")

let test_ordering_unlisted_trail () =
  let program = call_program () in
  let b =
    (link_program ~link:{ Linker.Link.default_options with ordering = Some [ "callee" ] } program)
      .binary
  in
  let addr f = Option.get (Linker.Binary.symbol_addr b f) in
  check tb "listed section leads" true (addr "callee" < addr "main")

let test_duplicate_symbol_error () =
  let f1 = diamond_func ~name:"dup" () in
  let u1 = Ir.Cunit.make ~name:"u1" [ f1 ] in
  let o1 = Codegen.compile_unit ~ctx:(fresh_ctx ()) Codegen.default_options u1 in
  try
    ignore (Linker.Link.link ~ctx:(fresh_ctx ()) ~name:"t" ~entry:"dup" [ o1; o1 ]);
    Alcotest.fail "expected duplicate symbol error"
  with Linker.Link.Link_error _ -> ()

let test_unresolved_symbol_error () =
  let f =
    Ir.Func.make ~name:"main"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "ghost" ] ~term:Ir.Term.Return () |]
  in
  (* Bypass Program.make validation by lowering the unit directly. *)
  let o =
    Codegen.compile_unit ~ctx:(fresh_ctx ()) Codegen.default_options (Ir.Cunit.make ~name:"u" [ f ])
  in
  try
    ignore (Linker.Link.link ~ctx:(fresh_ctx ()) ~name:"t" ~entry:"main" [ o ]);
    Alcotest.fail "expected unresolved symbol error"
  with Linker.Link.Link_error _ -> ()

let test_missing_entry_error () =
  let o =
    Codegen.compile_unit ~ctx:(fresh_ctx ()) Codegen.default_options
      (Ir.Cunit.make ~name:"u" [ diamond_func () ])
  in
  try
    ignore (Linker.Link.link ~ctx:(fresh_ctx ()) ~name:"t" ~entry:"nope" [ o ]);
    Alcotest.fail "expected missing entry error"
  with Linker.Link.Link_error _ -> ()

let test_emit_relocs_section () =
  let program = call_program () in
  let plain = (link_program program).binary in
  let bm =
    (link_program ~link:{ Linker.Link.default_options with emit_relocs = true } program).binary
  in
  check ti "no rela by default" 0 (Linker.Binary.size_of_kind plain Objfile.Section.Rela);
  check tb "rela retained" true (Linker.Binary.size_of_kind bm Objfile.Section.Rela > 0);
  check tb "bm bigger" true (Linker.Binary.total_size bm > Linker.Binary.total_size plain)

let test_bbmap_retained_and_reencoded () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  check tb "maps retained" true (binary.bb_maps <> []);
  check tb "bbmap section sized" true
    (Linker.Binary.size_of_kind binary Objfile.Section.Bb_addr_map > 0);
  (* Re-encoded offsets must match final block addresses. *)
  List.iter
    (fun (fm : Objfile.Bbmap.func_map) ->
      let sym = Option.get (Linker.Binary.symbol_addr binary fm.func) in
      List.iter
        (fun (e : Objfile.Bbmap.entry) ->
          let owner = Objfile.Symname.owner fm.func in
          let info = Linker.Binary.block_info_exn binary ~func:owner ~block:e.bb_id in
          check ti "offset matches placement" info.addr (sym + e.offset);
          check ti "size matches placement" info.size e.size)
        fm.entries)
    binary.bb_maps

let test_po_drops_bbmap () =
  let program = call_program () in
  let { Linker.Link.binary; _ } =
    link_program
      ~codegen:{ Codegen.default_options with emit_bb_addr_map = true }
      ~link:{ Linker.Link.default_options with keep_bb_addr_map = false }
      program
  in
  check ti "metadata dropped" 0 (Linker.Binary.size_of_kind binary Objfile.Section.Bb_addr_map);
  check tb "no maps" true (binary.bb_maps = [])

let test_text_alignment () =
  let program = call_program () in
  let huge =
    (link_program ~link:{ Linker.Link.default_options with text_align = 2 * 1024 * 1024 } program)
      .binary
  in
  check ti "2M aligned" 0 (huge.text_start mod (2 * 1024 * 1024))

let test_find_block_by_addr () =
  let program = call_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Hashtbl.iter
    (fun _ (info : Linker.Binary.block_info) ->
      (match Linker.Binary.find_block_by_addr binary info.addr with
      | Some b -> check ti "first byte maps back" info.block b.block
      | None -> Alcotest.fail "lookup failed");
      match Linker.Binary.find_block_by_addr binary (info.addr + info.size - 1) with
      | Some b ->
        check ts "last byte maps back" (Objfile.Symname.block ~func:info.func ~block:info.block)
          (Objfile.Symname.block ~func:b.func ~block:b.block)
      | None -> Alcotest.fail "lookup failed")
    binary.blocks

let test_link_stats () =
  let _, program = medium_program () in
  let { Linker.Link.stats; _ } = link_program program in
  check tb "input bytes positive" true (stats.input_bytes > 0);
  check tb "peak mem >= 2x inputs" true
    (stats.peak_mem_bytes >= 2 * stats.input_bytes);
  check tb "time positive" true (stats.cpu_seconds > 0.0)

(* --- Orderfile ----------------------------------------------------- *)

let test_orderfile_roundtrip () =
  let syms = [ "main"; "foo"; "foo.cold"; "bar.2" ] in
  check Alcotest.(list string) "round trip" syms
    (Linker.Orderfile.of_text (Linker.Orderfile.to_text syms))

let test_orderfile_parsing () =
  let text = "# comment\nmain\n\n  foo  \nmain\n# more\nbar\n" in
  check Alcotest.(list string) "comments, blanks, dups handled" [ "main"; "foo"; "bar" ]
    (Linker.Orderfile.of_text text)

let test_orderfile_validate () =
  let known = function "a" | "b" -> true | _ -> false in
  let ok, stale = Linker.Orderfile.validate ~known [ "a"; "zzz"; "b" ] in
  check Alcotest.(list string) "known" [ "a"; "b" ] ok;
  check Alcotest.(list string) "stale" [ "zzz" ] stale

let suite =
  [
    Alcotest.test_case "addresses disjoint and bounded" `Quick test_addresses_disjoint_sorted;
    Alcotest.test_case "orderfile round trip" `Quick test_orderfile_roundtrip;
    Alcotest.test_case "orderfile parsing" `Quick test_orderfile_parsing;
    Alcotest.test_case "orderfile validate" `Quick test_orderfile_validate;
    Alcotest.test_case "entry resolution" `Quick test_entry_resolution;
    Alcotest.test_case "relaxation deletes fallthroughs" `Quick test_relaxation_deletes_fallthrough;
    Alcotest.test_case "relaxation preserves targets" `Quick test_relaxation_preserves_targets;
    Alcotest.test_case "short branches in range" `Quick test_short_branches_in_range;
    Alcotest.test_case "jcc reversal" `Quick test_jcc_reversal;
    Alcotest.test_case "ordering file respected" `Quick test_ordering_file_respected;
    Alcotest.test_case "unlisted sections trail" `Quick test_ordering_unlisted_trail;
    Alcotest.test_case "duplicate symbol error" `Quick test_duplicate_symbol_error;
    Alcotest.test_case "unresolved symbol error" `Quick test_unresolved_symbol_error;
    Alcotest.test_case "missing entry error" `Quick test_missing_entry_error;
    Alcotest.test_case "emit relocs" `Quick test_emit_relocs_section;
    Alcotest.test_case "bb map retained and re-encoded" `Quick test_bbmap_retained_and_reencoded;
    Alcotest.test_case "optimized link drops bb map" `Quick test_po_drops_bbmap;
    Alcotest.test_case "hugepage text alignment" `Quick test_text_alignment;
    Alcotest.test_case "find block by address" `Quick test_find_block_by_addr;
    Alcotest.test_case "link stats" `Quick test_link_stats;
  ]
