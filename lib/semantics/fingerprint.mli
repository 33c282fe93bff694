(** Canonical query-shape fingerprints.

    A fingerprint is a 16-hex-digit FNV-1a hash of a query's canonical
    shape: its edge list over first-appearance-renumbered variables,
    each edge's label id, the window {e length} (not its position), the
    duration floor, the sorted NOT/EXISTS clause shapes, the sorted
    Allen constraints, and the aggregate. It is the grouping key of the
    server's query log and metrics ("which query shapes are hot?") and
    the designated plan-cache key for adaptive re-optimization.

    Invariances (pinned by QCheck properties in [test_fingerprint]):
    - variable and alias renaming that preserves the edge list;
    - [Qlang.render_ext] / [Qlang.parse_and_compile_ext] roundtrips;
    - translating the window (and the graph) in time;
    - reordering NOT/EXISTS clauses or Allen constraints.

    Sensitivity: changing a label, adding/removing an edge or clause or
    constraint, the duration floor, the aggregate, or the window length
    all change the canonical form (and, modulo 64-bit hash collisions,
    the fingerprint). *)

val canonical : Equery.t -> string
(** The readable canonical form ([tcsq-fp/v1|...]) the hash is computed
    over — for debugging and collision triage, not for the wire. *)

val of_equery : Equery.t -> string
(** 16 lowercase hex digits. *)

val of_query : Query.t -> string
(** [of_equery (Equery.plain q)]. *)

(** {2 Plan-cache keys}

    The plan cache keys on a {e coarser} canonical form than the
    fingerprint: only what the TSRJoin planner actually reads — the
    canonical edge list, the duration floor, and the window length
    {e bucketed} into ceil-log2 classes (plan choice is stable within a
    doubling of the window but can flip across one; exact lengths would
    make every zoom level a cold miss). NOT/EXISTS clauses, Allen
    constraints and aggregates decorate results after the core join and
    never influence the plan, so they are deliberately absent. *)

val window_bucket : int -> int
(** Ceil-log2 bucket of a window length: lengths [1], [2], [3..4],
    [5..8], [9..16], ... map to buckets [0, 1, 2, 3, 4, ...] — so
    [2^k] and [2^k + 1] always key apart. Negative or zero lengths
    share bucket [0]. *)

val canonical_plan : Query.t -> string
(** The readable plan-key form ([tcsq-fp-plan/v1|...]): canonical edges,
    bucketed window length, duration floor. *)

val canonical_vars : Query.t -> int array
(** The canonicalization behind both forms: actual variable id →
    canonical id by first appearance over the edge list (src before
    dst); [-1] for variables appearing in no edge. The plan cache uses
    it (and its inverse) to store pivots in canonical space and rebuild
    them against a fingerprint-equal query. *)
