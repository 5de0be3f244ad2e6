exception Link_error of string

type options = {
  ordering : string list option;
  keep_bb_addr_map : bool;
  emit_relocs : bool;
  relax : bool;
  text_align : int;
  base_addr : int;
}

let default_options =
  {
    ordering = None;
    keep_bb_addr_map = false;
    emit_relocs = false;
    relax = true;
    text_align = 4096;
    base_addr = 0x400000;
  }

type stats = {
  input_bytes : int;
  output_bytes : int;
  num_input_sections : int;
  relax_iters : int;
  deleted_jumps : int;
  shrunk_branches : int;
  peak_mem_bytes : int;
  cpu_seconds : float;
}

type outcome = { binary : Binary.t; stats : stats }

(* Mutable working form of a text section during relaxation. Branch
   targets are resolved to piece/section references up front so the
   relaxation sweeps never consult a symbol table. *)
type wpiece = {
  block : int;
  insts : winst array;
  mutable paddr : int;
  is_landing_pad : bool;
}

and winst = { mutable i : Isa.t; mutable dead : bool; mutable tgt : wtarget }

and wtarget = No_target | To_piece of wpiece | To_sec_addr of int ref

type wsec = {
  sname : string;
  ssymbol : string option;
  sfunc : string;
  salign : int;
  pieces : wpiece array;
  saddr : int ref;
  had_bbmap : bool;
}

let align_up v a = if a <= 1 then v else (v + a - 1) / a * a

let winst_size w = if w.dead then 0 else Isa.size w.i

let piece_size p = Array.fold_left (fun acc w -> acc + winst_size w) 0 p.insts

let sec_size s = Array.fold_left (fun acc p -> acc + piece_size p) 0 s.pieces

let target_addr w =
  match w.tgt with
  | No_target -> invalid_arg "Link.target_addr: no target"
  | To_piece p -> p.paddr
  | To_sec_addr a -> !a

(* Assign piece/section addresses sequentially from [base]. *)
let assign_addresses base sections =
  let cur = ref base in
  List.iter
    (fun s ->
      cur := align_up !cur s.salign;
      s.saddr := !cur;
      Array.iter
        (fun p ->
          p.paddr <- !cur;
          cur := !cur + piece_size p)
        s.pieces)
    sections;
  !cur

(* Working-form instruction array straight from the fragment's list:
   counted fill, no intermediate cons cell per instruction (the linker
   rebuilds this form on every relink). *)
let winsts_of_list insts =
  match insts with
  | [] -> [||]
  | first :: _ ->
    let n = List.length insts in
    let arr = Array.make n { i = first; dead = true; tgt = No_target } in
    List.iteri (fun k i -> arr.(k) <- { i; dead = false; tgt = No_target }) insts;
    arr

let wpieces_of_frag (frag : Objfile.Fragment.t) =
  match frag.pieces with
  | [] -> [||]
  | (first : Objfile.Fragment.piece) :: _ ->
    let n = List.length frag.pieces in
    let dummy = { block = first.block; insts = [||]; paddr = 0; is_landing_pad = false } in
    let arr = Array.make n dummy in
    List.iteri
      (fun k (p : Objfile.Fragment.piece) ->
        arr.(k) <-
          {
            block = p.block;
            insts = winsts_of_list p.insts;
            paddr = 0;
            is_landing_pad = p.is_landing_pad;
          })
      frag.pieces;
    arr

let gather_text_sections objs =
  List.concat_map
    (fun (o : Objfile.File.t) ->
      List.filter_map
        (fun (s : Objfile.Section.t) ->
          match s.contents with
          | Objfile.Section.Code frag ->
            let had_bbmap =
              Option.is_some (Objfile.File.find_section o (".llvm_bb_addr_map." ^ frag.func))
            in
            Some
              {
                sname = s.name;
                ssymbol = s.symbol;
                sfunc = frag.func;
                salign = s.align;
                pieces = wpieces_of_frag frag;
                saddr = ref 0;
                had_bbmap;
              }
          | Objfile.Section.Map _ | Objfile.Section.Raw _ -> None)
        o.sections)
    objs

let order_text_sections options all =
  match options.ordering with
  | None -> all
  | Some syms ->
    let rank = Hashtbl.create (List.length syms) in
    List.iteri (fun i s -> if not (Hashtbl.mem rank s) then Hashtbl.add rank s i) syms;
    let ranked, unranked =
      List.partition
        (fun s -> match s.ssymbol with Some sym -> Hashtbl.mem rank sym | None -> false)
        all
    in
    let key s = match s.ssymbol with Some sym -> Hashtbl.find rank sym | None -> max_int in
    List.stable_sort (fun a b -> compare (key a) (key b)) ranked @ unranked

(* Resolve every branch target to its piece/section once. Blocks are
   indexed by a packed (dense function index, block id) int key — the
   resolution loop runs once per branch instruction per link, and a
   tuple key would allocate on every probe. *)
let resolve_targets sections =
  let syms : (string, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let func_idx : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let idx_of_func f =
    match Hashtbl.find_opt func_idx f with
    | Some i -> i
    | None ->
      let i = Hashtbl.length func_idx in
      Hashtbl.add func_idx f i;
      i
  in
  let blocks : (int, wpiece) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      (match s.ssymbol with
      | Some sym ->
        if Hashtbl.mem syms sym then raise (Link_error ("duplicate symbol " ^ sym));
        Hashtbl.add syms sym s.saddr
      | None -> ());
      let fi = idx_of_func s.sfunc in
      Array.iter
        (fun p ->
          let key = Support.Packed.pack ~src:fi ~dst:p.block in
          if Hashtbl.mem blocks key then
            raise (Link_error (Printf.sprintf "block %s#%d defined twice" s.sfunc p.block));
          Hashtbl.add blocks key p)
        s.pieces)
    sections;
  List.iter
    (fun s ->
      Array.iter
        (fun p ->
          Array.iter
            (fun w ->
              (* Match the instruction directly — [Isa.branch_target]
                 would box an option per probe, once per instruction per
                 relink. *)
              match w.i with
              | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp
              | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> ()
              | Isa.Jcc { target = Isa.Target.Block { func; block }; _ }
              | Isa.Jmp { target = Isa.Target.Block { func; block }; _ }
              | Isa.Call (Isa.Target.Block { func; block }) -> (
                match Hashtbl.find_opt func_idx func with
                | None ->
                  raise (Link_error (Printf.sprintf "unresolved block target %s#%d" func block))
                | Some fi -> (
                  match Hashtbl.find_opt blocks (Support.Packed.pack ~src:fi ~dst:block) with
                  | Some piece -> w.tgt <- To_piece piece
                  | None ->
                    raise
                      (Link_error (Printf.sprintf "unresolved block target %s#%d" func block))))
              | Isa.Jcc { target = Isa.Target.Func f; _ }
              | Isa.Jmp { target = Isa.Target.Func f; _ }
              | Isa.Call (Isa.Target.Func f) -> (
                match Hashtbl.find_opt syms f with
                | Some addr -> w.tgt <- To_sec_addr addr
                | None -> raise (Link_error ("unresolved function symbol " ^ f))))
            p.insts)
        s.pieces)
    sections;
  syms

(* Index of the next live instruction at or after [j], or [-1]. Top
   level so the sweep's inner scan costs no closure per conditional
   branch. *)
let rec next_live_idx insts n j =
  if j >= n then -1 else if insts.(j).dead then next_live_idx insts n (j + 1) else j

(* One relaxation sweep; returns whether anything changed. Rules:
   1. an unconditional jump whose target is the next address is dead;
   2. a conditional branch that skips exactly over a live trailing jump
      gets its condition reversed, takes the jump's destination, and
      kills the jump;
   3. long branches whose displacement fits rel8 shrink to short. *)
let relax_sweep sections ~deleted ~shrunk =
  let changed = ref false in
  List.iter
    (fun s ->
      Array.iter
        (fun p ->
          let addr = ref p.paddr in
          let n = Array.length p.insts in
          Array.iteri
            (fun idx w ->
              if not w.dead then begin
                let size = Isa.size w.i in
                let after = !addr + size in
                (match w.i with
                | Isa.Jmp { target; encoding } ->
                  let tgt = target_addr w in
                  if tgt = after then begin
                    w.dead <- true;
                    incr deleted;
                    changed := true
                  end
                  else if
                    encoding = Isa.Long
                    && Isa.fits_short (tgt - (!addr + Isa.jmp_size Isa.Short))
                  then begin
                    w.i <- Isa.Jmp { target; encoding = Isa.Short };
                    incr shrunk;
                    changed := true
                  end
                | Isa.Jcc { cond; target; encoding } ->
                  let tgt = target_addr w in
                  let next_live = next_live_idx p.insts n (idx + 1) in
                  let reversed =
                    match next_live with
                    | -1 -> false
                    | j -> (
                      match p.insts.(j).i with
                      | Isa.Jmp _ ->
                        let jmp_size = Isa.size p.insts.(j).i in
                        if tgt = after + jmp_size then begin
                          w.i <-
                            Isa.Jcc
                              { cond = Isa.Cond.negate cond;
                                target =
                                  (match Isa.branch_target p.insts.(j).i with
                                  | Some t -> t
                                  | None -> assert false);
                                encoding };
                          w.tgt <- p.insts.(j).tgt;
                          p.insts.(j).dead <- true;
                          incr deleted;
                          changed := true;
                          true
                        end
                        else false
                      | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Jcc _ | Isa.Call _
                      | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret | Isa.Prefetch
                      | Isa.Nop _ | Isa.InlineData _ -> false)
                  in
                  if (not reversed) && encoding = Isa.Long then begin
                    let tgt = target_addr w in
                    if Isa.fits_short (tgt - (!addr + Isa.jcc_size Isa.Short)) then begin
                      w.i <- Isa.Jcc { cond; target; encoding = Isa.Short };
                      incr shrunk;
                      changed := true
                    end
                  end
                | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall
                | Isa.IndirectJmp | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> ());
                addr := !addr + winst_size w
              end)
            p.insts)
        s.pieces)
    sections;
  !changed

let symtab_bytes syms =
  Hashtbl.fold (fun name _ acc -> acc + 24 + String.length name + 1) syms 0

let link ~(ctx : Support.Ctx.t) ?(options = default_options) ~name ~entry objs =
  let recorder = ctx.recorder in
  let input_bytes = List.fold_left (fun acc o -> acc + Objfile.File.total_size o) 0 objs in
  let num_input_sections =
    List.fold_left (fun acc (o : Objfile.File.t) -> acc + List.length o.sections) 0 objs
  in
  let texts = order_text_sections options (gather_text_sections objs) in
  let syms = resolve_targets texts in
  if not (Hashtbl.mem syms entry) then raise (Link_error ("undefined entry symbol " ^ entry));
  let text_base = align_up options.base_addr options.text_align in
  let deleted = ref 0 and shrunk = ref 0 in
  let rec fix iters =
    ignore (assign_addresses text_base texts);
    if options.relax && iters < 32 && relax_sweep texts ~deleted ~shrunk then fix (iters + 1)
    else iters
  in
  let relax_iters = fix 1 in
  let text_end = assign_addresses text_base texts in
  (* Final block infos and symbol addresses. *)
  let blocks = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      Array.iter
        (fun p ->
          let insts =
            Array.fold_right (fun w acc -> if w.dead then acc else w.i :: acc) p.insts []
          in
          Hashtbl.replace blocks (s.sfunc, p.block)
            { Binary.func = s.sfunc; block = p.block; addr = p.paddr; size = piece_size p; insts })
        s.pieces)
    texts;
  let final_syms = Hashtbl.create (Hashtbl.length syms) in
  Hashtbl.iter (fun sym addr -> Hashtbl.replace final_syms sym !addr) syms;
  (* Re-encoded address map for retained metadata. *)
  let bb_maps =
    if not options.keep_bb_addr_map then []
    else
      List.filter_map
        (fun s ->
          match s.ssymbol with
          | Some sym when s.had_bbmap ->
            let entries =
              Array.to_list s.pieces
              |> List.map (fun p ->
                     let last_live =
                       Array.fold_left
                         (fun acc w -> if w.dead then acc else Some w.i)
                         None p.insts
                     in
                     let can_fallthrough =
                       match last_live with
                       | Some (Isa.Jmp _ | Isa.Ret | Isa.IndirectJmp) -> false
                       | Some _ | None -> true
                     in
                     {
                       Objfile.Bbmap.bb_id = p.block;
                       offset = p.paddr - !(s.saddr);
                       size = piece_size p;
                       can_fallthrough;
                       is_landing_pad = p.is_landing_pad;
                     })
            in
            Some { Objfile.Bbmap.func = sym; entries }
          | Some _ | None -> None)
        texts
  in
  (* Placed sections: text in layout order, then aggregated non-text. *)
  let placed_texts =
    List.map
      (fun s ->
        {
          Binary.name = s.sname;
          kind = Objfile.Section.Text;
          addr = !(s.saddr);
          size = sec_size s;
          symbol = s.ssymbol;
        })
      texts
  in
  let sum_kind kind =
    List.fold_left (fun acc o -> acc + Objfile.File.size_by_kind o kind) 0 objs
  in
  let cur = ref (align_up text_end 4096) in
  let mk sec_name kind size =
    if size = 0 then None
    else begin
      let p = { Binary.name = sec_name; kind; addr = !cur; size; symbol = None } in
      cur := !cur + size;
      Some p
    end
  in
  let reloc_bytes =
    if options.emit_relocs then
      24 * List.fold_left (fun acc o -> acc + Objfile.File.num_relocations o) 0 objs
    else 0
  in
  let bbmap_bytes = if options.keep_bb_addr_map then Objfile.Bbmap.encoded_size bb_maps else 0 in
  let non_text =
    List.filter_map Fun.id
      [
        mk ".rodata" Objfile.Section.Rodata (sum_kind Objfile.Section.Rodata);
        mk ".data" Objfile.Section.Data (sum_kind Objfile.Section.Data);
        mk ".eh_frame" Objfile.Section.Eh_frame (sum_kind Objfile.Section.Eh_frame);
        mk ".llvm_bb_addr_map" Objfile.Section.Bb_addr_map bbmap_bytes;
        mk ".rela.text" Objfile.Section.Rela reloc_bytes;
        mk ".symtab" Objfile.Section.Symtab (symtab_bytes final_syms);
      ]
  in
  let binary =
    Binary.make ~name ~entry_symbol:entry ~sections:(placed_texts @ non_text)
      ~symbols:final_syms ~blocks ~text_start:text_base ~text_end ~bb_maps
  in
  let stats =
    {
      input_bytes;
      output_bytes = Binary.total_size binary;
      num_input_sections;
      relax_iters;
      deleted_jumps = !deleted;
      shrunk_branches = !shrunk;
      peak_mem_bytes = Costmodel.peak_mem ~input_bytes ~num_sections:num_input_sections;
      cpu_seconds =
        Costmodel.cpu_seconds ~input_bytes ~num_sections:num_input_sections ~relax_iters;
    }
  in
  Obs.Recorder.incr_counter recorder "linker.links";
  Obs.Recorder.add_counter recorder "linker.relax.iters" relax_iters;
  Obs.Recorder.add_counter recorder "linker.relax.deleted_jumps" !deleted;
  Obs.Recorder.add_counter recorder "linker.relax.shrunk_branches" !shrunk;
  Obs.Recorder.add_counter recorder "linker.symbols.resolved" (Hashtbl.length final_syms);
  Obs.Recorder.observe recorder "linker.cpu_seconds" stats.cpu_seconds;
  { binary; stats }
