(* The processor's count of user-mode instructions retired by the
   calling thread. Unlike host time, it does not move with the load
   other tenants put on a shared host. *)

external open_counter : unit -> int = "perfbench_instructions_open"

external read_counter : int -> float = "perfbench_instructions_read"

let counter = lazy (open_counter ())

(* Instructions retired by the calling thread since the first call.
   Raises [Failure] where the host exposes no hardware counters. *)
let instructions () = read_counter (Lazy.force counter)
