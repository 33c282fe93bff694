(** Work-stealing multicore TSRJoin.

    Sound because complete matches partition over first-leapfrog root
    bindings (each match descends from exactly one) and the TAI is
    immutable. The coordinator materializes the root candidates once —
    charging their seeks/spans to the caller's stats and sink exactly
    as the sequential engine would — and workers then claim dynamic
    index-range chunks from an atomic cursor (adaptive size
    [max 1 (remaining / (8 * domains))]), so skewed root bindings are
    load-balanced rather than dealt round-robin.

    First-class semantics, unlike the old [Tsrjoin.run_parallel]:
    {ul
    {- [?stats] — per-domain {!Semantics.Run_stats.t} merged into the
       caller's; deterministic counters (results, intermediate,
       bindings, scanned, enum_steps, seeks) equal a sequential run's.}
    {- budgets/deadlines — [max_results] is enforced by a global
       atomic emission gate (exactly the sequential cut),
       [max_intermediate] by shared delta pushes on the
       deadline-check cadence (bounded overshoot), and the caller's
       deadline by every domain; the first failure cooperatively
       cancels all workers within one check interval.}
    {- [?obs] — per-domain child sinks merged back into the caller's
       (counts exact; event timelines translated onto one origin).}
    {- result order — nondeterministic across domains; compare runs
       as sets.}}

    Helper domains come from a {!Pool.t} ([?pool], defaulting to the
    process-wide {!shared_pool}) via [Pool.submit_if_idle]: only idle
    workers are enlisted, so a busy server worker can fan out into its
    own pool without deadlock, and a loaded pool gracefully degrades
    toward single-domain execution (the coordinator always runs on the
    calling thread and drains whatever chunks helpers don't). *)

val run :
  ?pool:Pool.t ->
  ?domains:int ->
  ?chunk:int ->
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?config:Tcsq_core.Tsrjoin.config ->
  ?plan:Tcsq_core.Plan.t ->
  ?limit:int ->
  ?counted:int ref ->
  Tcsq_core.Tai.t ->
  Semantics.Query.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
(** Streaming evaluation across [domains] OCaml 5 domains (default
    [Domain.recommended_domain_count ()]; raises [Invalid_argument] if
    < 1). [emit] is called from worker context but never concurrently
    (per-domain buffers are flushed under one mutex); emission order
    across domains is nondeterministic. [chunk] pins the steal-chunk
    size (tests); default is adaptive. With [domains = 1], or when the plan's first
    step is not a leapfrog, this is exactly [Tsrjoin.run]. Raises
    [Run_stats.Limit_exceeded] / [Deadline_exceeded] like the
    sequential engine; the caller's stats then hold the merged counts
    of the work actually done.

    [limit] and [counted] are {!Tcsq_core.Tsrjoin.run}'s, applied by
    each worker to its own matches: a worker counts its tail once it
    has emitted [limit] matches itself, and the workers' counts are
    added to [counted] before the run returns or raises. Under a
    [max_results] or [max_intermediate] budget the workers enumerate
    every match, since the shared result gate and intermediate total
    see only enumerated tuples. *)

val shared_pool : at_least:int -> Pool.t
(** The process-wide helper pool, grown (by drain-and-replace) to hold
    at least [at_least] workers. Callers without their own pool get
    this one; it is never shut down implicitly. *)
