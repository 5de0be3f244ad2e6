type params = {
  exttsp : Exttsp.params;
  max_cluster_size : int;
  seed : int;
  restarts : int;
  steps : int;
}

let default_params =
  { exttsp = Exttsp.default_params; max_cluster_size = 1 lsl 20; seed = 1; restarts = 4; steps = 256 }

type t = { name : string; order : ?params:params -> Problem.t -> int list }

(* Move [entry] to the front, preserving the relative order of the
   rest. Policies built from entry-less orderings (function-granularity
   clustering) use this to satisfy the entry-first contract. *)
let pin_entry entry order = entry :: List.filter (fun n -> n <> entry) order

(* Per-source successor slices over the problem's flat edges. The flat
   bundle is sorted by (src, dst), so each slice is contiguous and
   dst-ascending — deterministic tie-breaking for free. *)
let successor_offsets (p : Problem.t) =
  let n = Problem.size p in
  let e = Problem.flat p in
  let m = Array.length e.esrc in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    off.(e.esrc.(i) + 1) <- off.(e.esrc.(i) + 1) + 1
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  (e, off)

let exttsp_order ?(params = default_params) p = Exttsp.order ~params:params.exttsp p

let exttsp_linear_order ?(params = default_params) p =
  Exttsp.order ~params:{ params.exttsp with use_pqueue = false } p

let callchain_order ?(params = default_params) p =
  Hfsort.order ~max_cluster_size:params.max_cluster_size p |> pin_entry p.Problem.entry

(* Greedy fall-through chaining (Pettis-Hansen style): from the current
   block, fall through to its heaviest unplaced successor; when none,
   restart from the hottest unplaced block (ties by smallest id). *)
let greedy_order ?params:_ (p : Problem.t) =
  let n = Problem.size p in
  if n = 0 then []
  else begin
    let e, off = successor_offsets p in
    let placed = Array.make n false in
    let next_successor src =
      let best = ref (-1) and best_w = ref 0.0 in
      for i = off.(src) to off.(src + 1) - 1 do
        let dst = e.edst.(i) in
        if (not placed.(dst)) && e.ew.(i) > !best_w then begin
          best := dst;
          best_w := e.ew.(i)
        end
      done;
      !best
    in
    let hottest_unplaced () =
      let best = ref (-1) and best_w = ref neg_infinity in
      for i = 0 to n - 1 do
        if (not placed.(i)) && p.weights.(i) > !best_w then begin
          best := i;
          best_w := p.weights.(i)
        end
      done;
      !best
    in
    let out = ref [] in
    let place node =
      placed.(node) <- true;
      out := node :: !out
    in
    place p.entry;
    let cur = ref p.entry in
    for _ = 1 to n - 1 do
      let nxt = next_successor !cur in
      let nxt = if nxt >= 0 then nxt else hottest_unplaced () in
      place nxt;
      cur := nxt
    done;
    List.rev !out
  end

(* Shared by the stochastic policies: score the whole arrangement under
   the Ext-TSP objective, allocation-free per evaluation. *)
let make_scorer params p =
  let scratch = Exttsp.scratch (Problem.size p) in
  fun arr -> Exttsp.score_into ~params:params.exttsp scratch p arr

(* Random-restart hill climbing: each restart shuffles the non-entry
   suffix, then runs first-improvement adjacent-swap passes until a
   full pass makes no progress or the proposal budget runs out. *)
let hillclimb_order ?(params = default_params) (p : Problem.t) =
  let n = Problem.size p in
  if n <= 2 then List.init n (fun i -> if i = 0 then p.entry else if i <= p.entry then i - 1 else i)
  else begin
    let score = make_scorer params p in
    let root = Support.Rng.create (Int64.of_int params.seed) in
    let best_arr = ref [||] and best_s = ref neg_infinity in
    for r = 0 to max 1 params.restarts - 1 do
      let rng = Support.Rng.split root r in
      let arr = Array.init n (fun i -> if i = 0 then p.entry else if i <= p.entry then i - 1 else i) in
      let tail = Array.sub arr 1 (n - 1) in
      Support.Rng.shuffle rng tail;
      Array.blit tail 0 arr 1 (n - 1);
      let s = ref (score arr) in
      let budget = ref (max 1 params.steps) in
      let improved = ref true in
      while !improved && !budget > 0 do
        improved := false;
        let i = ref 1 in
        while !i < n - 1 && !budget > 0 do
          decr budget;
          let a = arr.(!i) and b = arr.(!i + 1) in
          arr.(!i) <- b;
          arr.(!i + 1) <- a;
          let s' = score arr in
          if s' > !s then begin
            s := s';
            improved := true
          end
          else begin
            arr.(!i) <- a;
            arr.(!i + 1) <- b
          end;
          incr i
        done
      done;
      if !s > !best_s then begin
        best_s := !s;
        best_arr := Array.copy arr
      end
    done;
    Array.to_list !best_arr
  end

(* Seeded local search: start from the Ext-TSP layout and propose
   [steps] random swap / segment-move / segment-reverse mutations of
   the non-entry suffix, keeping strict improvements. Monotone in the
   objective, so it never scores below its Ext-TSP seed. *)
let local_search_order ?(params = default_params) (p : Problem.t) =
  let base = Exttsp.order ~params:params.exttsp p in
  let n = Problem.size p in
  if n <= 2 then base
  else begin
    let score = make_scorer params p in
    let arr = Array.of_list base in
    let rng = Support.Rng.split (Support.Rng.create (Int64.of_int params.seed)) 0x10ca1 in
    let s = ref (score arr) in
    let swap i j =
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    in
    let reverse i j =
      let a = ref i and b = ref j in
      while !a < !b do
        swap !a !b;
        incr a;
        decr b
      done
    in
    (* Move arr.(i) to position j, shifting the segment between. Its own
       inverse is moving back from j to i. *)
    let move i j =
      let v = arr.(i) in
      if i < j then Array.blit arr (i + 1) arr i (j - i)
      else Array.blit arr j arr (j + 1) (i - j);
      arr.(j) <- v
    in
    for _ = 1 to max 1 params.steps do
      let i = 1 + Support.Rng.int rng (n - 1) in
      let j = 1 + Support.Rng.int rng (n - 1) in
      if i <> j then begin
        let kind = Support.Rng.int rng 3 in
        (match kind with
        | 0 -> swap i j
        | 1 -> move i j
        | _ -> reverse (min i j) (max i j));
        let s' = score arr in
        if s' > !s then s := s'
        else
          match kind with
          | 0 -> swap i j
          | 1 -> move j i
          | _ -> reverse (min i j) (max i j)
      end
    done;
    Array.to_list arr
  end

let all =
  [
    { name = "exttsp"; order = exttsp_order };
    { name = "exttsp-linear"; order = exttsp_linear_order };
    { name = "callchain"; order = callchain_order };
    { name = "greedy"; order = greedy_order };
    { name = "hillclimb"; order = hillclimb_order };
    { name = "local-search"; order = local_search_order };
  ]

let find name = List.find_opt (fun p -> p.name = name) all

let names = List.map (fun p -> p.name) all

let order_batch ?(params = default_params) ~pool policy problems =
  Support.Pool.map_array pool (Array.length problems) (fun i ->
      let p = problems.(i) in
      let o = policy.order ~params p in
      let s = Exttsp.score ~params:params.exttsp ~order:o p in
      (o, s))
