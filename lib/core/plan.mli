(** TSRJoin physical plans.

    A plan is an ordered list of TSRJoin steps. Each step has a pivot
    query variable; the step matches {e all} of the pivot's
    still-unmatched adjacent query edges in one LFTO call. The first
    step of each connected component produces pivot bindings by leapfrog
    intersection of TAI key sets; later pivots are already bound by a
    propagated partial match.

    The default planner is the paper's cost-model sketch: the first
    pivot minimizes the expected cardinality of its adjacent-edge star
    (the exact leapfrog candidate count, per-label fan-out, the share of
    each label's edges alive in the query window, and a mean-length
    overlap shrink); subsequent pivots greedily minimize the expected
    extension factor. {!estimate} reports the same model per plan level
    in absolute space, and {!calibration} with the misestimation policy
    below turns measured levels back into planner input. *)

(** {2 Cardinality estimates}

    The records {!estimate} returns. They are declared before {!step},
    so [s.pivot] and [s.edges] resolve to {!step} for callers. *)

type edge_estimate = {
  edge : Semantics.Query.edge;
  count : float;  (** graph edges carrying the label *)
  window_fraction : float;  (** exact share alive in the window *)
  expected_active : float;  (** [count *. window_fraction] *)
}

type step_estimate = {
  step_index : int;
  pivot : int;
  root : bool;  (** leapfrog binding-producing step *)
  n_edges : int;  (** query edges matched at this step *)
  candidates : int option;  (** exact leapfrog count (roots only) *)
  fanout : float;  (** expected multiplier per upstream partial match *)
  cumulative : float;  (** expected partial matches after this step *)
}

type estimate = {
  ws : int;
  we : int;  (** the window the estimate was computed against *)
  edges : edge_estimate array;  (** indexed by query edge *)
  steps : step_estimate array;  (** aligned with the plan's steps *)
  estimated_results : float;  (** the last step's cumulative *)
  estimated_intermediate : float;  (** sum of all cumulatives *)
}

type step = {
  pivot : int;
  edges : Semantics.Query.edge array;  (** matched at this step *)
  produce_binding : bool;  (** leapfrog binding production (component root) *)
}

type t

val steps : t -> step array
val query : t -> Semantics.Query.t

(** {2 Cost-model primitives}

    The per-label factors the planner and {!estimate} read. Each reads
    the graph's per-label statistics ({!Tgraph.Graph.label_count} and
    kin) and the TAI's key sets on demand: O(1) or a binary search per
    label, no edge scan. *)

type label_summary = {
  count : float;  (** edges carrying the label *)
  avg_out : float;  (** mean out-edges per distinct source *)
  avg_in : float;  (** mean in-edges per distinct destination *)
  mean_len : float;  (** mean interval length, at least 1 *)
}

val label_summary : Tai.t -> int -> label_summary
(** Statistics for a label id; {!Semantics.Query.any_label} aggregates
    all labels, unknown ids return near-zero sentinels. *)

val window_selectivity : Tai.t -> int -> ws:int -> we:int -> float
(** The exact share of the label's edges alive somewhere in
    [[ws, we]], clamped to [[1e-9, 1]] (wildcard: the max over labels).
    An inverted window, an unknown label or one with no edges reads
    [1e-9]. *)

val build :
  ?edge_scale:(Semantics.Query.edge -> float) -> Tai.t -> Semantics.Query.t -> t
(** Cost-model planner.

    [edge_scale] (default: constantly [1.0]) multiplies each edge's
    expected cardinality before scoring — the runtime-feedback hook: the
    plan cache and [explain --analyze] pass {!calibration} factors here
    to re-plan with observed cardinalities substituted for the static
    estimates. Scores only: the produced plan is always structurally
    valid and result-identical to an uncalibrated one. *)

val build_adaptive : ?defer_ratio:float -> Tai.t -> Semantics.Query.t -> t
(** The paper's §VII future-work direction: a hybrid plan that may match
    only a {e subset} of a pivot's unmatched adjacent edges per step,
    deferring edges whose expected TSR size exceeds [defer_ratio]
    (default 8.0) times the step's most selective edge. Deferred edges
    are matched by later steps, after the partial match's lifespan has
    narrowed and other predicates have pruned — the fix for the
    non-selective-chain weakness observed in Fig. 11. Falls back to
    {!build}-like steps when nothing is worth deferring. *)

val estimate : Tai.t -> t -> estimate
(** The planner's cost model replayed over a finished plan in absolute
    space, on the plan query's window: per query edge, the expected
    number of label edges alive in the window; per step, the expected
    fan-out and the cumulative partial-match count after it (the paper's
    per-level intermediate cardinality). Root steps use the exact
    leapfrog candidate count. Deterministic in (graph, plan):
    [tcsq explain], the query log and the plan cache all read it. *)

val intermediate_counter : estimate -> int
(** [estimated_intermediate] rounded and clamped to a non-negative
    integer, the value recorded in
    {!Semantics.Run_stats.add_est_intermediate}. *)

val level_counters : estimate -> int array
(** Per-step [cumulative] rounded and clamped like
    {!intermediate_counter}, aligned with the plan's steps: the levels
    recorded in {!Semantics.Run_stats.add_est_level_intermediate}, fed
    to {!calibration} and compared by [tcsq explain --analyze]. *)

val calibration :
  t -> est_levels:int array -> levels:int array -> Semantics.Query.edge -> float
(** [calibration plan ~est_levels ~levels] turns one execution's
    per-level feedback (the analyzer's cumulative predictions next to
    the measured {!Semantics.Run_stats.levels}) into per-edge correction
    factors for {!build}'s [edge_scale]: level [i]'s misestimation ratio
    is localized to the step that introduced it and spread geometrically
    over that step's edges, clamped to [[1/1024, 1024]]. Missing levels
    count as matching the estimate; edges outside [plan] score [1.0]. *)

(** {2 Misestimation policy}

    When measured per-level cardinalities disagree with {!estimate}
    enough to act on: [P009] in [tcsq explain --analyze], the plan
    cache's re-plan trigger and the query log's [misestimation]. *)

val misestimation_threshold : float
(** 16.0: a level whose estimated and measured cardinalities differ by
    more than this factor, in either direction, is misestimated. *)

val misestimation_factor : float -> float -> float
(** [misestimation_factor est actual]: [max / min] with both sides
    floored at 1, so always [>= 1], direction-agnostic and finite on a
    true-zero level. *)

val worst_misestimation : est_levels:int array -> levels:int array -> float
(** The largest {!misestimation_factor} over the levels of either
    array (a missing level counts as 0); [1.0] when both are empty. *)

(** {2 Explicit plans} *)

val of_pivot_order : Semantics.Query.t -> int list -> t
(** Plan with an explicit pivot preference order (for tests and
    ablations). The list is consulted greedily: the next pivot is the
    first listed variable that is usable (bound, or a fresh component
    root) and has unmatched adjacent edges; remaining pivots are chosen
    as in {!build} without cost information.
    @raise Invalid_argument if the list omits needed variables. *)

val of_steps_unchecked : Semantics.Query.t -> step array -> t
(** Assembles a plan from raw steps with {e no} invariant checking — for
    the static analyzer's tests (hand-corrupted plans) only. {!validate}
    rejects an invalid plan, and execution runs it first. *)

val of_pivot_order_unchecked : Semantics.Query.t -> int list -> t
(** The {e literal} reading of a pivot order: pivots are applied exactly
    in the given sequence (skipping variables with no unmatched adjacent
    edges), the first step is the only leapfrog root, and edges left
    unmatched when the order runs out stay unmatched. Unlike
    {!of_pivot_order} there is no bound-first repair or fallback, so a
    bad order yields an {e invalid} plan — which is the point: it is the
    CLI/test vehicle for exercising plan diagnostics ([tcsq lint
    --pivot-order]). *)

(** {2 Plan invariants}

    The one rule set every executed plan passes; [Analysis.Plan_check]
    reports the same violations as [P001]–[P007] diagnostics. *)

type rule =
  | Empty_step  (** P001: a step matches no query edge *)
  | Unbound_pivot
      (** P002: a non-root pivot no earlier step binds, or a pivot that
          is not a query variable *)
  | Bound_root  (** P003: [produce_binding] on an already-bound pivot *)
  | Unmatched_edge  (** P004: a query edge no step matches *)
  | Rematched_edge  (** P005: a query edge matched more than once *)
  | Detached_edge  (** P006: a step edge not incident to its pivot *)
  | Foreign_edge
      (** P007: a step edge outside or disagreeing with the query's edge
          table *)

type site = At_step of int | At_edge of int
type violation = { rule : rule; site : site; message : string }

val violations : t -> violation list
(** Every violation, in step order, then unmatched-edge order. *)

val validate : t -> (unit, string) result
(** [Error] carries the first violation's message. A valid plan matches
    every query edge exactly once (P004, P005); every step matches at
    least one edge (P001), each incident to its pivot (P006) and equal
    to the query's edge of that index (P007); a non-root pivot is bound
    by an earlier step (P002); and [produce_binding] is set only on a
    pivot no earlier step bound (P003). *)

val pp : Format.formatter -> t -> unit
