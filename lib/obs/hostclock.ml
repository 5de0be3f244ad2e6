(* The host clock is the one source of real time in the tree: every
   other timestamp is simulated. Monotonicity is enforced here (a
   gettimeofday step backwards would otherwise produce negative span
   durations in the self-profile). *)

(* Kept process-wide: there is one host clock, so its monotonic floor
   is one value too. *)
let last = Atomic.make 0.0

let now () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let l = Atomic.get last in
    if t <= l then l else if Atomic.compare_and_set last l t then t else clamp ()
  in
  clamp ()

type gc_snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_snapshot () =
  let s = Gc.quick_stat () in
  {
    (* quick_stat's minor_words lags until the next minor collection on
       the multicore runtime; Gc.minor_words reads the allocation
       pointer directly, so short spans see their allocation. *)
    minor_words = Gc.minor_words ();
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

(* Word counters are monotonic within a domain but quick_stat reads the
   minor counter non-atomically; clamp at zero so a delta can never go
   negative in the aggregate. *)
let gc_delta ~before ~after =
  {
    minor_words = Float.max 0.0 (after.minor_words -. before.minor_words);
    major_words = Float.max 0.0 (after.major_words -. before.major_words);
    promoted_words = Float.max 0.0 (after.promoted_words -. before.promoted_words);
    minor_collections = max 0 (after.minor_collections - before.minor_collections);
    major_collections = max 0 (after.major_collections - before.major_collections);
  }

(* Net words allocated: minor + major - promoted (promoted words are
   counted in both the minor and major totals). *)
let allocated_words d = d.minor_words +. d.major_words -. d.promoted_words
