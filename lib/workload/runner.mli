(** Workload execution and measurement: times each method over a query
    workload under result/intermediate budgets (the laptop-scale
    analogue of the paper's timeouts), accumulating the counters behind
    Figs. 9-12. *)

val default_limits : Semantics.Run_stats.limits
(** Per-query budgets: 100K results, 5M intermediate tuples. *)

type measurement = {
  method_ : Engine.method_;
  n_queries : int;
  n_truncated : int;  (** queries stopped by a budget (paper: timeouts) *)
  total_seconds : float;
  mean_seconds : float;  (** over all queries, truncated ones included *)
  p50_seconds : float;  (** median per-query wall time *)
  p95_seconds : float;
  total_results : int;
  total_intermediate : int;
  total_scanned : int;
  total_seeks : int;  (** leapfrog seeks/advances + TAI probes *)
  total_est_intermediate : int;
      (** the static analyzer's summed intermediate-cardinality
          prediction (TSRJoin only) — compare with [total_intermediate]
          for estimator error *)
  total_levels : int array;
      (** measured intermediate tuples per TSRJoin plan level, summed
          over the workload; empty for methods without levelled
          execution *)
  total_est_levels : int array;
      (** the analyzer's per-level predictions, summed likewise *)
}

val run_method :
  ?limits:Semantics.Run_stats.limits ->
  ?obs:Obs.Sink.t ->
  ?tsrjoin_config:Tcsq_core.Tsrjoin.config ->
  ?pool:Exec.Pool.t ->
  ?domains:int ->
  ?plan_cache:Plan_cache.t ->
  Engine.t ->
  Engine.method_ ->
  Semantics.Query.t list ->
  measurement
(** [domains]/[pool]/[plan_cache] are forwarded to {!Engine.run} — the
    domain-scaling and plan-cache benchmarks' levers. Merged parallel
    stats keep the deterministic counters identical to a 1-domain run,
    so only the timing columns
    move. *)

val percentile : float array -> float -> float
(** [percentile sorted p] over an ascending array ([0.] when empty);
    the p50/p95 estimator shared by measurements and the server's
    latency snapshots. *)

val pp_measurement : Format.formatter -> measurement -> unit
val pp_header : Format.formatter -> unit -> unit

val csv_header : string
(** Column names for {!to_csv_row}. *)

val to_csv_row : ?tag:string -> measurement -> string
(** One comma-separated row (prefixed by [tag] when given), for external
    plotting. *)

val measurement_to_json :
  ?fields:(string * Obs.Json.t) list ->
  ?obs:Obs.Sink.t ->
  measurement ->
  Obs.Json.t
(** One JSON object per measurement, the record format behind
    [bench --json]: [fields] first (e.g. experiment/dataset/pattern
    tags, or the scaling benchmark's [domains]/[speedup_vs_1]), then the
    measurement. When [obs] is an enabled sink (typically the one passed
    to {!run_method}), a trailing ["phases"] object carries its per-phase
    count/total/self times. Schema documented in EXPERIMENTS.md. *)
