type params = { entries_4k : int; ways_4k : int; entries_2m : int }

let skylake = { entries_4k = 128; ways_4k = 8; entries_2m = 8 }

type t = { cache_4k : Cache.t; cache_2m : Cache.t; hugepages : bool; bits_4k : int; bits_2m : int }

let create ?(page_scale_bits = 0) p ~hugepages =
  (* Pressure-preserving scaling: programs generated at 1/2^k of their
     real size keep realistic TLB pressure when page reach shrinks by
     the same factor. Clamped so pages stay larger than cache lines. *)
  let bits_4k = max 9 (12 - page_scale_bits) in
  let bits_2m = max 14 (21 - page_scale_bits) in
  {
    cache_4k =
      Cache.create
        { Cache.sets = p.entries_4k / p.ways_4k; ways = p.ways_4k; line_bytes = 1 lsl bits_4k };
    (* Fully associative: one set whose "lines" are 2M pages. *)
    cache_2m = Cache.create { Cache.sets = 1; ways = p.entries_2m; line_bytes = 1 lsl bits_2m };
    hugepages;
    bits_4k;
    bits_2m;
  }

let page t addr = if t.hugepages then addr lsr t.bits_2m else addr lsr t.bits_4k

let access t addr = Cache.access (if t.hugepages then t.cache_2m else t.cache_4k) addr

let reset t =
  Cache.reset t.cache_4k;
  Cache.reset t.cache_2m
