(** Pass 2: static cardinality estimation for TSRJoin plans.

    Replays the planner's cost model ({!Tcsq_core.Plan.label_summary},
    {!Tcsq_core.Plan.window_selectivity},
    {!Tcsq_core.Plan.window_shrink}) in {e absolute} space instead of
    the planner's log space: per query edge, the expected number of
    label edges alive in the window; per plan step, the expected fan-out
    multiplier and the cumulative partial-match count after the step
    (the paper's per-level intermediate cardinality). Root steps use the
    exact leapfrog candidate count, so the first factor is not an
    estimate at all.

    Estimates are deterministic functions of the cost model, the plan
    and the window — [tcsq profile] records them next to the measured
    intermediate count ([est_intermediate] vs [intermediate] in
    {!Semantics.Run_stats}), making estimator error observable per
    query. *)

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

type t = {
  ws : int;
  we : int;  (** the window the estimate was computed against *)
  edges : edge_estimate array;  (** indexed by query edge *)
  steps : step_estimate array;  (** aligned with the plan's steps *)
  estimated_results : float;  (** the last step's cumulative *)
  estimated_intermediate : float;  (** sum of all cumulatives *)
}

val estimate :
  ?window:Temporal.Interval.t ->
  Tcsq_core.Tai.t ->
  Tcsq_core.Plan.t ->
  t
(** [window] overrides the plan query's window (e.g. {!Bound}'s
    tightened effective window); default is the query's own. *)

val intermediate_counter : t -> int
(** [estimated_intermediate] rounded and clamped to a sane non-negative
    integer, the value recorded in
    {!Semantics.Run_stats.add_est_intermediate}. *)

val level_counters : t -> int array
(** Per-step [cumulative] rounded and clamped like
    {!intermediate_counter}, aligned with the plan's steps — the values
    recorded in {!Semantics.Run_stats.add_est_level_intermediate} and
    compared against the measured per-level counters by
    [tcsq explain --analyze]. *)
