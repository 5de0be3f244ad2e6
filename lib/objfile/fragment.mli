(** Machine code carried by a text section.

    A fragment is a contiguous run of lowered basic blocks belonging to a
    single function — a *basic block cluster* in Propeller terms (paper
    §4.1). With plain function sections the fragment holds every block of
    the function; with basic block sections it holds one cluster. *)

type piece = {
  block : int;  (** IR block id this code was lowered from. *)
  insts : Isa.t list;  (** Lowered code, terminator branches included. *)
  is_landing_pad : bool;
}

type t = { func : string; pieces : piece list }

val make : func:string -> piece list -> t

(** [byte_size f] sums instruction sizes over all pieces. *)
val byte_size : t -> int

(** [piece_offsets f] pairs each piece with its byte offset from the
    fragment start, under the current encodings. *)
val piece_offsets : t -> (piece * int) list

(** [num_relocations f] counts instructions whose target needs a static
    relocation (branches and direct calls with symbolic targets). *)
val num_relocations : t -> int

(** [block_ids f] lists block ids in piece order. *)
val block_ids : t -> int list
