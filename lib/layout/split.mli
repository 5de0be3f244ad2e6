(** Hot/cold function splitting (paper §4.6).

    Given per-block execution counts, partition blocks into a hot set and
    a cold set. Two extraction mechanisms are modelled:

    - {b Basic block sections} (Propeller): the cold blocks move to a
      [.cold] cluster at zero code cost, so *every* function with cold
      blocks can be split — no profitability heuristic needed.
    - {b Call-based extraction} (pre-Propeller LLVM machine function
      splitter, Fig 2 centre): reaching the cold part costs a call-like
      trampoline, so splitting only pays off beyond a size threshold —
      the heuristic the paper says bb sections eliminate. *)

type t = {
  hot : int list;  (** Hot block ids, original relative order. *)
  cold : int list;  (** Cold block ids, original relative order. *)
}

(** [partition ~counts ?threshold ()] marks blocks with count <=
    [threshold] (default 0) as cold. Block 0 (the entry) is always hot. *)
val partition : counts:float array -> ?threshold:float -> unit -> t

(** [partition_batch ~pool ?threshold ~counts ()] partitions one count
    vector per function across the domain pool; results are committed
    in input order, so the outcome is independent of pool width. *)
val partition_batch :
  pool:Support.Pool.t -> ?threshold:float -> counts:float array array -> unit -> t array

(** [call_split_profitable ~cold_bytes ~entry_count ~cold_entry_count]
    implements the call-based splitter's gate: the cold region must be
    big enough to amortise the ~16-byte trampoline and must be entered
    rarely relative to the function (cold extraction via call costs a
    call + spill at each entry, Fig 2). *)
val call_split_profitable : cold_bytes:int -> entry_count:float -> cold_entry_count:float -> bool
