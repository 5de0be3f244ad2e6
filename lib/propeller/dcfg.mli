(** Dynamic control flow graph reconstruction from LBR samples and the
    BB address map — no disassembly (paper §3.3).

    Taken-branch records give the taken edges; the sequential ranges
    between consecutive LBR records give fall-through edges and block
    counts; cross-function records landing on a function entry give
    call arcs. *)

(** One machine basic block, as described by the address map, with its
    accumulated sample count. *)
type mblock = {
  lo : int;  (** Final virtual address. *)
  msize : int;
  owner : string;  (** Owning function (cluster suffixes stripped). *)
  bb : int;  (** Machine-IR block id. *)
  mutable count : int;
}

(** Per-function accumulator. *)
type dfunc = {
  dname : string;
  dblocks : (int, mblock) Hashtbl.t;
  dedges : Support.Itab.t;
      (** Intra-function edge counts keyed by
          [Support.Packed.pack ~src:src_bb ~dst:dst_bb] — one immediate
          int per edge note instead of a tuple + ref. Iteration order is
          slot order; consumers sort (they always had to under
          [Hashtbl]). *)
  mutable dsamples : int;
}

type t = {
  funcs : (string, dfunc) Hashtbl.t;
  call_arcs : (string * int * string, int ref) Hashtbl.t;
      (** (caller, caller bb, callee) -> count; block granularity so the
          inter-procedural layout can place callees near call sites. *)
  block_index : mblock array;  (** All mapped blocks, address-sorted. *)
  size_of : (string * int, int) Hashtbl.t;  (** (func, bb) -> bytes. *)
}

(** [interval_index binary] builds the address-sorted block array from
    the binary's [.llvm_bb_addr_map], counts zeroed. Shared with profile
    synthesis ({!Autofdo}), which needs the address->block mapping
    without a full DCFG. *)
val interval_index : Linker.Binary.t -> mblock array

(** [find_in blocks addr] binary-searches an address-sorted block array
    for the block containing [addr], returning its index and the block. *)
val find_in : mblock array -> int -> (int * mblock) option

(** [build ~profile ~binary] reconstructs the DCFG from the binary's
    [.llvm_bb_addr_map] (Propeller's path). Raises [Invalid_argument]
    when [binary] has no address map. *)
val build : profile:Perfmon.Lbr.profile -> binary:Linker.Binary.t -> t

(** [build_of_blocks ~profile ~binary] reconstructs the DCFG from the
    binary's placed blocks — the (idealised) product of disassembly,
    used by the BOLT baseline, which has no metadata section. *)
val build_of_blocks : profile:Perfmon.Lbr.profile -> binary:Linker.Binary.t -> t

(** [hot_funcs t] lists functions with samples, name-sorted. *)
val hot_funcs : t -> dfunc list

(** [num_blocks t] / [num_edges t] count sampled blocks / edges. *)
val num_blocks : t -> int

val num_edges : t -> int

(** [find_block t addr] maps an address to its block. *)
val find_block : t -> int -> mblock option

(** [func_arcs t] aggregates call arcs to function granularity (hfsort
    input), sorted for determinism. *)
val func_arcs : t -> (string * string * float) list
