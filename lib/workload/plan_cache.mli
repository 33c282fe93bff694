(** Server-side TSRJoin plan cache with misestimation-driven adaptive
    re-optimization.

    Planning is the expensive, high-leverage decision of the whole
    pipeline (the paper's pivot ordering by temporal x topological
    selectivity), yet its outcome depends only on the query's
    {e shape}: the canonical edge list, the duration floor, and —
    coarsely — the window length. This cache memoizes the chosen plan
    per {!Semantics.Fingerprint.plan_key} equivalence class (canonical
    shape x ceil-log2 window-length bucket), together with the
    cost-model estimates that justified it.

    {b Safety.} A cached plan can change {e speed} but never
    {e results}: any structurally valid TSRJoin plan enumerates the
    same matches (plan choice only reorders the join tree), entries are
    matched by the {e full} canonical plan form (string equality, so a
    64-bit key collision cannot smuggle in a foreign plan shape), and
    every rebuilt plan is re-validated against the incoming query
    before use — a corrupt entry degrades to a miss, never to a wrong
    answer.

    {b Adaptivity.} After each execution the caller feeds the observed
    per-level cardinalities back ({!feedback}). When
    {!Tcsq_core.Plan.worst_misestimation} exceeds
    {!Tcsq_core.Plan.misestimation_threshold} (the P009 value, 16x) on
    two consecutive executions, the entry is poisoned: the next
    {!lookup} returns {!Replan} carrying
    {!Tcsq_core.Plan.calibration} factors, and the caller re-plans with
    observed cardinalities substituted for the static estimates. The
    re-planned entry keeps that calibration until the generation
    changes: a shape re-plans once per generation, not every few runs.

    {b Invalidation.} The cache carries a graph-generation counter;
    {!bump_generation} (called on ingest) drops every entry — plans and
    estimates are functions of the graph's statistics, which just
    changed.

    All operations are guarded by one mutex and safe to share across
    worker domains. *)

type t

type source = Fresh | Cached | Replanned
(** Where a request's plan came from; rendered into qlog records as
    [plan_source: "fresh" | "cached" | "replanned"]. *)

val source_name : source -> string

type counters = {
  hits : int;  (** lookups served from the cache *)
  misses : int;  (** lookups that found no usable entry *)
  evictions : int;  (** entries dropped by the LRU bound *)
  invalidations : int;  (** entries dropped by {!bump_generation} *)
  replans : int;  (** poisoned entries re-planned from feedback *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) bounds the entry count; [0] degenerates to
    a passthrough (every lookup misses, nothing is stored).
    @raise Invalid_argument on negative capacity. *)

val capacity : t -> int

val length : t -> int
(** Live entries. *)

val counters : t -> counters
(** Snapshot of the lifetime counters (consistent: taken under the
    cache mutex). *)

val generation : t -> int

val bump_generation : t -> unit
(** Invalidate everything: drops all entries (counted in
    [invalidations]) and increments {!generation}. Called once per
    ingest batch. *)

(** The three lookup outcomes. [Hit] carries a plan already rebuilt
    against (and validated for) the {e incoming} query, plus the cached
    estimates so the caller can record them without replaying the
    analyzer. [Replan] means the entry was found but is poisoned: the
    caller must build a fresh plan — passing [edge_scale] to
    {!Tcsq_core.Plan.build} substitutes the observed cardinalities —
    and {!store} it. *)
type verdict =
  | Miss
  | Hit of { plan : Tcsq_core.Plan.t; est_intermediate : int; est_levels : int array }
  | Replan of { edge_scale : Semantics.Query.edge -> float }

val lookup : t -> Semantics.Query.t -> verdict
(** Counter effects: [Hit] counts a hit, [Miss] a miss, [Replan] a
    replan (the caller's subsequent {!store} does not double-count). *)

val store :
  t ->
  Semantics.Query.t ->
  plan:Tcsq_core.Plan.t ->
  est_intermediate:int ->
  est_levels:int array ->
  unit
(** Insert (or replace, clearing any poison) the plan for [q]'s key.
    Replacing a poisoned entry — the caller's re-plan after {!Replan} —
    marks it calibrated: {!feedback} no longer poisons it, since its
    estimates are the static ones already found wrong, so it keeps
    serving until {!bump_generation} drops it.
    The plan is stored in canonical-variable space, so it serves every
    query in the key's equivalence class. Evicts the least-recently
    used entry when full; no-op at capacity 0. *)

val feedback : t -> Semantics.Query.t -> levels:int array -> unit
(** Report one execution's observed per-level intermediate
    cardinalities (the {e delta} for this run, not a shared cumulative
    counter). No-op when the key has no entry. *)

val window_bucket : int -> int
(** Re-export of {!Semantics.Fingerprint.window_bucket}, the key's
    window-length bucketing. *)
