type params = { sets : int; ways : int; line_bytes : int }

let l1i_params = { sets = 64; ways = 8; line_bytes = 64 }

let l2_params = { sets = 1024; ways = 16; line_bytes = 64 }

type t = {
  tags : int array;  (** [sets * ways], -1 = invalid *)
  lru : int array;  (** per-entry last-use stamp *)
  mru : int array;
      (** per-set index of the way with the largest stamp, -1 = none *)
  mutable clock : int;
  ways : int;
  line_shift : int;
  set_mask : int;
}

let log2 v =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go v 0

let create p =
  {
    tags = Array.make (p.sets * p.ways) (-1);
    lru = Array.make (p.sets * p.ways) 0;
    mru = Array.make p.sets (-1);
    clock = 0;
    ways = p.ways;
    line_shift = log2 p.line_bytes;
    set_mask = p.sets - 1;
  }

let line t addr = addr lsr t.line_shift

(* Top level rather than a local [let rec]: without flambda a local
   recursive function capturing its environment allocates a closure on
   every probe. The annotations keep [=] a monomorphic int compare; an
   unannotated [tags] makes it the polymorphic [caml_equal] call. *)
let rec find (tags : int array) (ln : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = ln then i
  else find tags ln (i + 1) stop

(* First invalid way, else the way with the oldest stamp. An invalid
   way's stamp is 0 and a valid way's is at least 1 (the clock ticks
   before every stamp write), so this is the first way of least stamp. *)
let victim t base =
  let v = ref base in
  for e = base + 1 to base + t.ways - 1 do
    if Array.unsafe_get t.lru e < Array.unsafe_get t.lru !v then v := e
  done;
  !v

let access t addr =
  let ln = addr lsr t.line_shift in
  let set = ln land t.set_mask in
  let base = set * t.ways in
  let m = Array.unsafe_get t.mru set in
  (* MRU way first. Its stamp is already the largest in the set and
     victim choice reads only the order of stamps within a set, so a
     hit here needs no clock bump and no stamp write. *)
  if m >= 0 && Array.unsafe_get t.tags (base + m) = ln then true
  else begin
    t.clock <- t.clock + 1;
    let hit = find t.tags ln base (base + t.ways) in
    let e = if hit >= 0 then hit else victim t base in
    Array.unsafe_set t.tags e ln;
    Array.unsafe_set t.lru e t.clock;
    Array.unsafe_set t.mru set (e - base);
    hit >= 0
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  Array.fill t.mru 0 (Array.length t.mru) (-1);
  t.clock <- 0
