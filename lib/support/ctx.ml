type t = {
  recorder : Obs.Recorder.t;
  pool : Pool.t;
  jobs : int;
  faults : Faultsim.Plan.t option;
}

let create ?recorder ?pool ?jobs ?faults () =
  let recorder = match recorder with Some r -> r | None -> Obs.Recorder.create () in
  let pool =
    match (pool, jobs) with
    | Some p, _ -> p
    | None, jobs -> Pool.create ?jobs ()
  in
  { recorder; pool; jobs = Pool.jobs pool; faults }

let with_recorder t recorder = { t with recorder }

let faults_active t =
  match t.faults with Some p -> Faultsim.Plan.is_active p | None -> false
