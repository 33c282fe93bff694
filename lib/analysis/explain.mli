(** Pass 3: the cost-annotated plan report behind [tcsq explain].

    Combines the three analysis passes into one artifact: query
    diagnostics ({!Query_check} + {!Bound}), the propagated interval
    bounds and effective window, and — per candidate plan — the
    {!Selectivity} estimate annotated onto every TSRJoin level, plus
    plan-invariant diagnostics and [P008] dominated-plan warnings.

    Candidates are the cost-model plan (the one the engine executes),
    the adaptive planner's plan, and optionally the literal plan induced
    by an explicit pivot order. A candidate is {e dominated} when its
    estimated intermediate-tuple total exceeds the best valid
    candidate's by more than {!dominance_factor}; the report states the
    ranking rationale either way.

    With {!run_analyze} ([tcsq explain --analyze]) the chosen plan is
    additionally {e executed} over the effective window and the
    measured per-level intermediate cardinalities are lined up against
    the estimates — the estimated-vs-actual feedback loop the adaptive
    re-optimizer will consume.

    Codes:
    - [P008] (Warning) dominated plan: estimated cost exceeds the best
      candidate's by more than {!dominance_factor}
    - [P009] (Warning) misestimated level: the cost model's per-level
      prediction is off by more than {!misestimation_threshold} in
      either direction
    - [P010] (Hint) re-planned from feedback: a [P009] misestimation
      triggered a {!Tcsq_core.Plan.calibration} re-plan with the
      observed cardinalities; the diagnostic reports whether the
      calibrated pivot order confirms or replaces the executed one —
      the same adaptive loop {!Workload.Plan_cache} closes server-side *)

type candidate = {
  name : string;  (** ["cost-model"], ["adaptive"] or ["pivot-order"] *)
  plan : Tcsq_core.Plan.t;
  est : Selectivity.t;  (** against the {e effective} window *)
  chosen : bool;  (** what {!Workload.Engine} would execute *)
  plan_diags : Diagnostic.t list;  (** plan invariants + [P008] *)
}

type t = {
  query : Semantics.Query.t;
  bound : Bound.result;
  query_diags : Diagnostic.t list;  (** {!Query_check} + {!Bound} *)
  candidates : candidate list;
}

val dominance_factor : float
(** 4.0: a plan estimated at over 4x the best candidate's intermediate
    tuples is flagged [P008]. *)

val analyze : ?pivot_order:int list -> Lint.target -> Semantics.Query.t -> t
(** Estimates use {!Bound}'s effective window so the report reflects
    what propagation already proved. Never raises on planner-invalid
    candidates — their diagnostics ride in [plan_diags]. *)

val misestimation_threshold : float
(** 16.0: a level whose estimated and measured intermediate
    cardinalities differ by more than this factor (either direction) is
    flagged [P009]. The plan cache's re-plan trigger and the server's
    [--replan-threshold] default to it too. *)

val misestimation_factor : float -> float -> float
(** [misestimation_factor est actual]: the symmetric est-vs-actual
    factor, [max / min] with both sides floored at 1 — always [>= 1],
    direction-agnostic, finite on a true-zero level. [P009], the plan
    cache's re-plan decision and the query log's [misestimation] all
    use it. *)

type level_row = {
  level : int;
  pivot : int;
  est_cumulative : float;  (** the static {!Selectivity} prediction *)
  actual : int;  (** the measured {!Semantics.Run_stats} level counter *)
  factor : float;  (** symmetric misestimation factor, always >= 1 *)
}

type replan = {
  pivots : int list;  (** the calibrated plan's pivot order *)
  changed : bool;  (** it differs from the executed plan's order *)
}

type analyzed = {
  executed : string;  (** the candidate that ran (the chosen plan) *)
  rows : level_row list;
  exec_stats : Semantics.Run_stats.t;
  analyze_diags : Diagnostic.t list;
      (** [P009] per misestimated level, plus one [P010] when any fired *)
  replan : replan option;  (** the calibrated re-plan behind [P010] *)
}

val run_analyze : Lint.target -> t -> analyzed option
(** Execute the chosen candidate over the effective window and compare
    per level. [None] when propagation proved the window empty (nothing
    to execute) or no candidate is marked chosen. Runs without budgets:
    the caller decides whether the query is cheap enough to measure. *)

val pp : label_names:string array -> Format.formatter -> t -> unit
(** The human-readable report: effective window, per-edge expected
    cardinalities, per-step estimate table per candidate, ranking
    rationale. Deterministic (no timings). *)

val pp_analyzed : Format.formatter -> analyzed -> unit
(** The estimated-vs-actual table: one row per plan level plus totals
    and the [P009] verdicts. Deterministic (counters, no timings). *)

val to_json : ?analyzed:analyzed -> label_names:string array -> t -> Obs.Json.t
(** Schema ["tcsq-explain/v1"]; [analyzed] rides in the (additive)
    ["analyze"] key, [null] when absent. *)
