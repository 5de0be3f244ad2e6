(* Shared CLI plumbing for the propeller tools.

   Every executable in bin/ parses --jobs, --seed, --faults, --trace
   and --metrics-out through the terms below, so the flags spell and
   behave identically across propeller_driver, propeller_stat and
   propeller_inspect; benchmark lookup, output writing and recorder
   export share one implementation instead of three copies. *)

open Cmdliner

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain pool width for per-function/per-unit fan-out (default 1). Outputs are \
           byte-identical for any N.")

let seed_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Override the fault plan's seed (see $(b,--faults)). The same seed and plan \
           replay the same faults, byte-identically. Inert without $(b,--faults).")

let faults_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Arm seeded fault injection. $(docv) is a comma-separated key=value spec, e.g. \
           $(b,seed=7,action=0.2,corrupt=0.1,straggle=0.1,shard-drop=0.05). Keys: seed, \
           action, persist, straggle, straggle-factor, corrupt, shard-drop, shards, \
           attempts, backoff, backoff-mult.")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the run (load in Perfetto / chrome://tracing).")

let metrics_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the metrics report as JSON to $(docv).")

let self_profile_term =
  Arg.(
    value
    & flag
    & info [ "self-profile" ]
        ~doc:
          "Record host wall-clock and GC deltas per span and print the tool's own hotspot \
           table after the run. Never perturbs simulated metrics or image digests.")

let self_profile_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "self-profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the self-profile (per-path host seconds, allocation, GC counts) as JSON \
           to $(docv). Implies $(b,--self-profile).")

(* Enum-valued flag converter shared by every tool: an unknown value is
   a usage error (exit 124 via Cmdliner) that names each valid value,
   never a bare exception. Used for --variant and --profile-source. *)
let enum_conv ~what values =
  let alts = String.concat ", " (List.map fst values) in
  let parse s =
    match List.assoc_opt s values with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "invalid %s %S; valid values are: %s" what s alts))
  in
  let print fmt v =
    match List.find_opt (fun (_, v') -> v' = v) values with
    | Some (name, _) -> Format.pp_print_string fmt name
    | None -> Format.pp_print_string fmt "<unknown>"
  in
  Arg.conv (parse, print)

let profile_source_conv =
  enum_conv ~what:"profile source"
    (List.map (fun s -> (Perfmon.Source.to_string s, s)) Perfmon.Source.all)

let profile_source_term =
  Arg.(
    value
    & opt profile_source_conv Perfmon.Source.Lbr
    & info [ "profile-source" ] ~docv:"SOURCE"
        ~doc:
          "Where the layout profile comes from: $(b,lbr) (hardware branch records, the \
           paper's path) or $(b,sampled) (portable software stack sampler; CFG edge \
           weights are synthesized AutoFDO-style, no mispredict bits).")

(* String-valued on purpose: Wpa.config stores the policy name and
   resolves it against [Layout.Policy.all] at use, and that list is the
   single source of truth for what is valid. *)
let layout_policy_conv =
  enum_conv ~what:"layout policy" (List.map (fun n -> (n, n)) Layout.Policy.names)

let layout_policy_term =
  Arg.(
    value
    & opt layout_policy_conv "exttsp"
    & info [ "layout-policy" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Block-layout policy for WPA. Valid values: %s. The default $(b,exttsp) is the \
              paper's Ext-TSP; the others are the pluggable alternatives the layout-search \
              harness tournaments over."
             (String.concat ", " Layout.Policy.names)))

let benchmark_term =
  Arg.(value & opt string "505.mcf" & info [ "b"; "benchmark" ] ~doc:"Benchmark name (Table 2).")

let requests_term =
  Arg.(value & opt (some int) None & info [ "r"; "requests" ] ~doc:"Workload requests override.")

(* The shared flags bundled, for tools whose subcommands all take them
   (propeller_inspect). *)
type common = {
  jobs : int option;
  seed : int option;
  faults : string option;
  trace : string option;
  metrics_out : string option;
  self_profile : bool;
  self_profile_out : string option;
}

let common_term =
  let make jobs seed faults trace metrics_out self_profile self_profile_out =
    { jobs; seed; faults; trace; metrics_out; self_profile; self_profile_out }
  in
  Term.(
    const make $ jobs_term $ seed_term $ faults_term $ trace_term $ metrics_out_term
    $ self_profile_term $ self_profile_out_term)

let write_file file contents =
  match open_out file with
  | oc ->
    output_string oc contents;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" file msg;
    exit 1

(* Resolve a benchmark name (exit 2 with the known list on a miss) and
   apply the --requests override. *)
let lookup_spec ~benchmark ~requests =
  match Progen.Suite.by_name benchmark with
  | None ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" benchmark
      (String.concat ", " (List.map (fun (s : Progen.Spec.t) -> s.name) Progen.Suite.all));
    exit 2
  | Some spec -> (
    match requests with
    | Some r -> { spec with Progen.Spec.requests = r }
    | None -> spec)

(* Turn the shared flags into the run's one execution context: a fresh
   recorder, a pool of --jobs width (validated), the --faults plan (exit
   2 on a bad spec) with --seed overriding its seed. *)
let context ?(jobs = None) ?(seed = None) ?(faults = None) ?(self_profile = false)
    ?(self_profile_out = None) () =
  (match jobs with
  | Some j when j < 1 ->
    Printf.eprintf "--jobs: expected a positive pool width, got %d\n" j;
    exit 2
  | Some _ | None -> ());
  let plan =
    match faults with
    | None -> None
    | Some spec -> (
      match Faultsim.Plan.of_spec spec with
      | Error e ->
        Printf.eprintf "--faults: %s\n" e;
        exit 2
      | Ok p -> (
        match seed with
        | Some s -> Some { p with Faultsim.Plan.seed = s }
        | None -> Some p))
  in
  let ctx = Support.Ctx.create ?jobs ?faults:plan () in
  if self_profile || self_profile_out <> None then
    Obs.Recorder.enable_self_profile ctx.Support.Ctx.recorder;
  ctx

let context_of_common c =
  context ~jobs:c.jobs ~seed:c.seed ~faults:c.faults ~self_profile:c.self_profile
    ~self_profile_out:c.self_profile_out ()

(* Export the run's recorder as the shared flags request. The trace is
   re-parsed with our own JSON parser before it leaves the tool, so the
   smoke scripts need no external JSON tooling. *)
let export_recorder recorder ~trace ~metrics_out =
  (match trace with
  | None -> ()
  | Some file ->
    let contents = Obs.Recorder.trace_json recorder in
    write_file file contents;
    (match Obs.Json.parse contents with
    | Ok _ ->
      Printf.printf "trace: %d events -> %s (valid JSON)\n"
        (Obs.Trace.num_events (Obs.Recorder.trace recorder))
        file
    | Error e ->
      Printf.eprintf "trace: INVALID JSON written to %s: %s\n" file e;
      exit 1));
  match metrics_out with
  | None -> ()
  | Some file ->
    write_file file (Obs.Recorder.metrics_json recorder);
    Printf.printf "metrics: %s\n" file

(* Export / render the self-profile as the shared flags request. Same
   validate-before-leaving discipline as the trace export. *)
let export_self_profile recorder ~self_profile ~self_profile_out =
  if self_profile || self_profile_out <> None then begin
    let sp = Obs.Recorder.selfprof recorder in
    (match self_profile_out with
    | None -> ()
    | Some file ->
      let contents = Obs.Json.to_string (Obs.Selfprof.to_json sp) ^ "\n" in
      write_file file contents;
      (match Obs.Json.parse contents with
      | Ok _ -> Printf.printf "self-profile: %s (valid JSON)\n" file
      | Error e ->
        Printf.eprintf "self-profile: INVALID JSON written to %s: %s\n" file e;
        exit 1));
    let hotspots = Obs.Selfprof.hotspots ~limit:10 sp in
    if hotspots <> [] then begin
      print_endline "self-profile hotspots (host time, coordinator domain):";
      print_string (Obs.Selfprof.render_hotspots hotspots)
    end
  end

(* Run [f] under the flight recorder's crash guard: on any exception the
   recorder's last-K event ring is dumped to stderr before the exception
   propagates, so a crash report carries the run's final moments. *)
let with_flight_guard recorder f =
  try f ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    prerr_string (Obs.Recorder.flight_dump recorder);
    Printexc.raise_with_backtrace exn bt

(* Dump the flight ring when a run degraded (fault path taken): the
   events leading up to the degradation are exactly what a postmortem
   wants, and the dump is deterministic under replay. *)
let flight_dump_on_degradation recorder (f : Buildsys.Driver.fault_stats) =
  if f.Buildsys.Driver.degraded > 0 then print_string (Obs.Recorder.flight_dump recorder)

(* Sum the fault accounting of several builds (a pipeline run holds a
   metadata build and an optimized build). *)
let sum_fault_stats (a : Buildsys.Driver.fault_stats) (b : Buildsys.Driver.fault_stats) =
  {
    Buildsys.Driver.injected = a.injected + b.injected;
    retried = a.retried + b.retried;
    degraded = a.degraded + b.degraded;
    fallbacks = a.fallbacks + b.fallbacks;
    corrupt_evicted = a.corrupt_evicted + b.corrupt_evicted;
    stragglers = a.stragglers + b.stragglers;
    speculated = a.speculated + b.speculated;
    backoff_seconds = a.backoff_seconds +. b.backoff_seconds;
  }

(* One-line resilience summary of a build's fault accounting; printed
   only when a plan was armed so fault-free output stays unchanged. *)
let resilience_line (f : Buildsys.Driver.fault_stats) ~shards_dropped ~dropped_hot_funcs =
  Printf.sprintf
    "resilience: %d injected (%d retried, %d cache-corrupt, %d stragglers/%d speculated, %d \
     shards dropped), %d degraded (%d fallback objects, %d hot funcs on baseline layout)"
    (f.Buildsys.Driver.injected + shards_dropped)
    f.Buildsys.Driver.retried f.Buildsys.Driver.corrupt_evicted f.Buildsys.Driver.stragglers
    f.Buildsys.Driver.speculated shards_dropped
    (f.Buildsys.Driver.degraded + dropped_hot_funcs)
    f.Buildsys.Driver.fallbacks dropped_hot_funcs
