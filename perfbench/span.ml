(* A layer profiler that lives outside the program: the benchmark wraps
   each call into a layer's public function in a span, and a span's
   self time and self allocation are its own figures minus those of the
   spans nested inside it. Single-domain use only (the traced pass runs
   at pool width 1), so the allocation counters are exact. *)

type acc = { mutable calls : int; mutable self_s : float; mutable self_words : float }

type frame = {
  name : string;
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_words : float;
}

type t = { accs : (string, acc) Hashtbl.t; mutable stack : frame list }

let create () = { accs = Hashtbl.create 16; stack = [] }

(* Words allocated by this domain since start: minor + major - promoted. *)
let words () = Obs.Hostclock.allocated_words (Obs.Hostclock.gc_snapshot ())

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; self_s = 0.0; self_words = 0.0 } in
    Hashtbl.replace t.accs name a;
    a

let close t fr =
  let dt = Obs.Hostclock.now () -. fr.t0 and dw = words () -. fr.w0 in
  t.stack <- List.tl t.stack;
  (match t.stack with
  | parent :: _ ->
    parent.child_s <- parent.child_s +. dt;
    parent.child_words <- parent.child_words +. dw
  | [] -> ());
  let a = acc t fr.name in
  a.calls <- a.calls + 1;
  a.self_s <- a.self_s +. (dt -. fr.child_s);
  a.self_words <- a.self_words +. (dw -. fr.child_words)

(* [run t name f] is [f ()] inside a span named [name]. *)
let run t name f =
  let fr = { name; t0 = Obs.Hostclock.now (); w0 = words (); child_s = 0.0; child_words = 0.0 } in
  t.stack <- fr :: t.stack;
  Fun.protect ~finally:(fun () -> close t fr) f

let self_s t name = match Hashtbl.find_opt t.accs name with Some a -> a.self_s | None -> 0.0

let self_words t name =
  match Hashtbl.find_opt t.accs name with Some a -> a.self_words | None -> 0.0

let calls t name = match Hashtbl.find_opt t.accs name with Some a -> a.calls | None -> 0

let total_self_s t = Hashtbl.fold (fun _ a s -> s +. a.self_s) t.accs 0.0
