(** Cycle-fitness layout-policy search against a real program.

    Drives {!Layout.Search} with the concrete evaluator the harness
    abstracts over: each candidate (policy, params) pair is run through
    WPA against the shared metadata profile, the program is relinked
    under the candidate's plan via the content-addressed build cache,
    and the resulting image is executed through [exec]+[uarch] —
    fitness is simulated cycles (seeded, no wall-clock), the proxy is
    the candidate's Ext-TSP layout score. The report therefore measures
    the Ext-TSP-score-vs-cycles gap directly: how often the proxy
    objective and the machine disagree about which layout is better
    (the AI-PROPELLER observation from PAPERS.md). *)

type entry = {
  id : int;
  round : int;
  policy : string;
  cycles : float;  (** fitness: simulated cycles, lower is better *)
  score : float;  (** proxy: Ext-TSP layout score, higher is better *)
}

type t = {
  name : string;
  requests : int;
  budget : int;
  seed : int;
  evaluated : int;
  rounds : int;
  base_cycles : float;  (** the PGO+ThinLTO baseline binary *)
  exttsp_cycles : float;  (** the round-0 Ext-TSP candidate *)
  exttsp_score : float;
  winner_policy : string;
  winner_cycles : float;
  winner_score : float;
  win_vs_exttsp_pct : float;
      (** cycles saved by the winner relative to Ext-TSP, in percent;
          positive when the search beat Ext-TSP *)
  comparable_pairs : int;
  discordant_pairs : int;
      (** candidate pairs where the better Ext-TSP score had the worse
          cycle count *)
  proxy_agreement : float;  (** concordant / comparable, 1.0 when none *)
  entries : entry list;  (** in evaluation order *)
}

(** [analyze ?budget ?seed ~spec ~ctx ~program ()] runs one pipeline to
    obtain the shared profile and metadata binary, then a
    [budget]-evaluation tournament (default 12) relinking and executing
    each candidate through {!Measure.run}. Configuration, core model and
    request count all come from [spec]. Per-round spans go to [ctx]'s
    recorder. Deterministic for fixed inputs at any [--jobs] width. *)
val analyze :
  ?budget:int ->
  ?seed:int ->
  spec:Progen.Spec.t ->
  ctx:Support.Ctx.t ->
  program:Ir.Program.t ->
  unit ->
  t

val to_json : t -> Obs.Json.t

val to_text : t -> string
