(** Binary rewriting, BOLT-style.

    Reconstructs every function from the placed binary (symbolic branch
    targets survive in our image, standing in for successful
    disassembly), reassembles the whole text with the new block orders
    and function order into a fresh segment aligned to a 2 MiB boundary
    *above* the original text — the original [.text] is retained as
    dead bytes, exactly the size/heat-map signature the paper shows
    (Fig 6, Fig 7c). *)

type result = {
  binary : Linker.Binary.t;
  new_text_bytes : int;
  old_text_bytes : int;  (** Retained, never executed. *)
  rewritten_funcs : int;
}

(** [rewrite ~ctx ~binary ~plans ~func_order ~peephole ~name] relinks
    the rewritten text, recording on [ctx]:

    - [plans]: per-function (hot order, cold blocks) for optimized
      functions; unlisted functions keep their relative block order;
    - [func_order]: global order for optimized functions (others
      follow in input order);
    - [peephole]: apply the disassembly-level micro-optimizations BOLT
      performs beyond layout (modelled as a small hot-code size
      reduction). *)
val rewrite :
  ctx:Support.Ctx.t ->
  binary:Linker.Binary.t ->
  plans:(string * int list * int list) list ->
  func_order:string list ->
  peephole:bool ->
  name:string ->
  result
