type piece = { block : int; insts : Isa.t list; is_landing_pad : bool }

type t = { func : string; pieces : piece list }

let make ~func pieces =
  if pieces = [] then invalid_arg (Printf.sprintf "Fragment.make %s: empty" func);
  { func; pieces }

let piece_size p = List.fold_left (fun acc i -> acc + Isa.size i) 0 p.insts

let byte_size f = List.fold_left (fun acc p -> acc + piece_size p) 0 f.pieces

let piece_offsets f =
  let _, rev =
    List.fold_left
      (fun (off, acc) p -> (off + piece_size p, (p, off) :: acc))
      (0, []) f.pieces
  in
  List.rev rev

let num_relocations f =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc i -> match Isa.branch_target i with Some _ -> acc + 1 | None -> acc)
        acc p.insts)
    0 f.pieces

let block_ids f = List.map (fun p -> p.block) f.pieces
