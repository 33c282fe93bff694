(** Unified entry point over the four query-processing methods.

    Builds and owns all indexes so that the methods run against the same
    graph, and exposes the per-method storage/build-cost accounting of
    Tables IV and V. Every query, plain or extended, runs through one
    executor, {!run_ext}; a plain query is {!Semantics.Equery.plain}.
    {!count} is its match counter. Checked execution is a flow the
    caller runs ({!analyze_ext}; reject on errors, skip a provably empty
    query; {!tighten_ext}; {!run_ext}) so the server can lint on the
    connection thread and execute on a pool worker. *)

type method_ = Tsrjoin | Binary | Hybrid | Time

val all_methods : method_ array
val method_name : method_ -> string
val method_of_string : string -> method_ option

type t

val prepare : Tgraph.Graph.t -> t
(** Builds the TAI (+ECIs), the label adjacency index, and the STI-CP
    index. *)

val prepare_with_tai : Tgraph.Graph.t -> Tcsq_core.Tai.t -> t
(** Adopts an already-maintained TAI over [graph] (as produced by
    {!Tcsq_core.Incremental} / [Tai.merge]) instead of rebuilding it.
    The adjacency and STI-CP indexes are built lazily on first use
    (domain-safe), so refreshing an engine after an ingest batch costs
    a lint target, not three index builds. *)

val graph : t -> Tgraph.Graph.t
val tai : t -> Tcsq_core.Tai.t

val target : t -> Analysis.Lint.target
(** The engine's TAI with its analyzer env, built once by
    {!prepare}/{!prepare_with_tai}. *)

(** {2 Queries} *)

val analyze_ext :
  t -> method_ -> Semantics.Equery.t -> Analysis.Diagnostic.t list
(** {!Analysis.Lint.check_equery} against this engine's graph:
    {!Analysis.Query_check} on the core, {!Analysis.Ext_check} clause
    diagnostics (none for a plain query), and {!Analysis.Bound}'s
    constraint propagation with the Allen constraints fed in. Stops
    after {!Analysis.Query_check} when the core has errors. The method
    argument is unused: no plan is built here, since execution validates
    the plan it runs. *)

val tighten_ext : t -> Semantics.Equery.t -> Semantics.Equery.t
(** {!Analysis.Bound.tighten} against this engine's graph, Allen-aware:
    the query with its window shrunk to the propagated effective
    window, the identity when nothing tightens. Result-preserving under
    the piece semantics (clause matching never reads the window), so
    checked execution runs the tightened query. *)

val run_ext :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?tsrjoin_config:Tcsq_core.Tsrjoin.config ->
  ?pool:Exec.Pool.t ->
  ?domains:int ->
  ?plan_cache:Plan_cache.t ->
  ?plan_source:Plan_cache.source option ref ->
  ?limit:int ->
  ?counted:int ref ->
  t ->
  method_ ->
  Semantics.Equery.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
(** Streams the query's matches into [emit]. The core pattern runs
    through the chosen method; {!Semantics.Equery.run_with} then cuts
    each match into its pieces (antijoin/semijoin lifespan slicing,
    Allen post-filters) and applies the aggregate. Under [TOP k] each
    piece is offered to a bounded durability selection, emitted once
    the run completes (nothing is emitted when the run raises). For
    {!Tsrjoin} the Allen constraints are also pushed into the engine's
    config, so misclassified pairs are pruned inside the join tree; the
    post-filter re-check is idempotent. A plain query hands [emit]
    straight to the method.

    May raise {!Semantics.Run_stats.Limit_exceeded} under budgets. For
    {!Tsrjoin}, {!Tcsq_core.Tsrjoin.run} checks every plan it executes,
    fresh or cached, against all seven [P001]–[P007] rules of
    {!Tcsq_core.Plan.validate}; a planner bug raises [Invalid_argument]
    instead of executing an invalid plan.

    [domains > 1] (default 1) runs {!Tsrjoin} on [Exec.Parallel] —
    work-stealing over root bindings with merged stats/obs and global
    budgets; [emit] is then called from worker context (serialized,
    order nondeterministic: compare such runs as sets). Helper domains
    come from [pool] (default: [Exec.Parallel.shared_pool]). The other
    methods ignore [domains] and stay single-domain.

    [obs] receives phase-attributed spans: the core run under [run],
    plan construction under [plan_select], and — for {!Tsrjoin} — the
    engine phases (TAI probes, TSR slicing, leapfrog, sweeps) below it.
    Instrumentation never changes results: with [Obs.Sink.null] (the
    default) every site is a no-op.

    [plan_cache] (TSRJoin only; the other methods have no planner)
    consults a shared {!Plan_cache} before planning: a hit skips plan
    construction and the selectivity estimate entirely (cache
    bookkeeping is attributed to the [plan_cache] phase, so
    [plan_select] self-time drops to ~0), a miss or feedback-triggered
    re-plan builds and stores. After a successful execution the
    observed per-level cardinalities are fed back to the cache entry.
    Cached plans are validated against the incoming query, so results
    are identical with and without a cache — only speed changes.
    [plan_source] (when given) is set to where this query's plan came
    from.

    [limit] (default [max_int]) is how many answers the caller will
    look at. Answers stream into [emit] until [limit] have been emitted;
    past that, {!Tsrjoin} may count instead of enumerating (the counted
    tail of {!Tcsq_core.Tsrjoin.run}: a last plan step of one TSR under
    the [Optimized] config, for a query without anti/semi clauses,
    Allen constraints, [LASTING] or [TOP k]) and adds that count to
    [counted]. The answer's size is the number of [emit] calls plus
    what was added to [counted], also when the run raises; [stats] are
    those of full enumeration. The other methods always enumerate. With
    [domains > 1] each worker applies [limit] to itself, and only when
    [stats] carry no budget. *)

val count :
  ?stats:Semantics.Run_stats.t ->
  ?domains:int ->
  t ->
  method_ ->
  Semantics.Query.t ->
  int
(** The number of matches of the plain query: {!run_ext} at [limit] 0,
    so {!Tsrjoin} counts the tail it can count and [stats] read as for
    full enumeration. *)

val index_size_words : t -> method_ -> int
(** Table IV: TSRJOIN = TAI (three sorted edge copies, tries, ECIs);
    BINARY and HYBRID = label adjacency index (LSD + LDS); TIME = STI-CP
    index. *)

val index_build_seconds : Tgraph.Graph.t -> method_ -> float
(** Table V: builds the method's index from scratch and reports wall
    seconds. *)
