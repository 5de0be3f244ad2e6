type t = { hot : int list; cold : int list }

let partition ~counts ?(threshold = 0.0) () =
  let hot = ref [] and cold = ref [] in
  for i = Array.length counts - 1 downto 0 do
    if i = 0 || counts.(i) > threshold then hot := i :: !hot else cold := i :: !cold
  done;
  { hot = !hot; cold = !cold }

let partition_batch ~pool ?(threshold = 0.0) ~counts () =
  Support.Pool.map_array pool (Array.length counts) (fun i ->
      partition ~counts:counts.(i) ~threshold ())

(* Modelled code-size overhead of reaching a call-extracted cold region
   (lea+mov+call+mov+jmp of Fig 2 centre). *)
let trampoline_bytes = 16

let call_split_profitable ~cold_bytes ~entry_count ~cold_entry_count =
  cold_bytes >= 4 * trampoline_bytes
  && (entry_count <= 0.0 || cold_entry_count /. entry_count < 0.01)
