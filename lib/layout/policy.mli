(** Pluggable layout policies.

    A policy is a named function from a {!Problem.t} to a layout — a
    permutation of [0 .. n-1] with the problem's entry first. All
    policies listed here are deterministic: any randomness is drawn
    from {!Support.Rng} streams derived from [params.seed], so the same
    (problem, params) pair always yields the same layout on any number
    of domains.

    Policies (see {!all}):
    - ["exttsp"] — Ext-TSP chain merging with priority-queue retrieval
      (paper §3.3/§4.7); the default everywhere.
    - ["exttsp-linear"] — Ext-TSP with linear candidate rescan; same
      layouts, different running time (the §4.7 ablation).
    - ["callchain"] — C³/hfsort call-chain clustering lifted to block
      granularity: blocks cluster onto their hottest predecessor, entry
      pinned first.
    - ["greedy"] — greedy fall-through chaining: follow the heaviest
      untaken successor edge from the entry, restarting from the hottest
      unplaced block.
    - ["hillclimb"] — random-restart hill climbing: [params.restarts]
      seeded shuffles, each improved by first-improvement adjacent
      swaps, best Ext-TSP score wins.
    - ["local-search"] — seeded local search over a swap / segment-move
      / segment-reverse neighborhood, starting from the Ext-TSP layout
      ([params.steps] proposals, greedy acceptance). Never scores below
      Ext-TSP.

    The search harness ({!Search}) mutates [params] per candidate, so
    every tunable shared by policies lives in one flat record. *)

type params = {
  exttsp : Exttsp.params;  (** Ext-TSP knobs; also the scoring objective. *)
  max_cluster_size : int;  (** Cluster byte cap for ["callchain"]. *)
  seed : int;  (** Root seed for stochastic policies. *)
  restarts : int;  (** Restart count for ["hillclimb"]. *)
  steps : int;  (** Proposal budget for ["local-search"] / "hillclimb". *)
}

val default_params : params
(** [{ exttsp = Exttsp.default_params; max_cluster_size = 1 lsl 20;
      seed = 1; restarts = 4; steps = 256 }] *)

type t = {
  name : string;
  order : ?params:params -> Problem.t -> int list;
      (** Returns a permutation of [0 .. size-1], entry first. *)
}

(** [all] is every policy, in a fixed order: exttsp, exttsp-linear,
    callchain, greedy, hillclimb, local-search. *)
val all : t list

(** [find name] looks a policy up by name. *)
val find : string -> t option

(** [names] is the names of {!all}, in the same order. *)
val names : string list

(** [order_batch ?params ~pool policy problems] solves every problem
    across the domain pool and returns [(order, exttsp_score)] per
    problem, in input order. The score is always the Ext-TSP objective
    under [params.exttsp] regardless of policy, so layouts from
    different policies are comparable. Results commit in index order —
    identical output for any pool width (the §3.4 sharding contract). *)
val order_batch :
  ?params:params -> pool:Support.Pool.t -> t -> Problem.t array -> (int list * float) array
