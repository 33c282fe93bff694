(** Metamorphic relations over temporal-clique queries, extended
    operators included.

    Each relation derives follow-up inputs from a base case plus a
    deterministic [relseed], and states how an engine's result set on
    the derived inputs must relate to its result set on the base — no
    oracle involved, so a bug shared by every engine (including the
    naive evaluator) is still caught. Every relation is an exact
    algebraic consequence of the match semantics: binding consistency
    and the non-empty lifespan are window-independent, a complete
    match's lifespan overlaps a window iff every matched edge does, and
    — for decorated queries — clause matching never reads the window,
    so a match's pieces are window-independent too.

    None of the relations apply to a query carrying an aggregate: [TOP
    k] is a non-local selection that the transformed input re-selects
    differently (the harness skips them, and {!aggregate_topk} states
    the aggregate's own law from an aggregate-free base). *)

type derived = {
  cases : Case.t list;
      (** The follow-up inputs to evaluate (usually one). Cases reuse
          the base graph value physically when the relation only
          transforms the query, so per-graph contexts are shared. *)
  check :
    base:Semantics.Match_result.Result_set.t ->
    derived:Semantics.Match_result.Result_set.t list ->
    (unit, string) result;
      (** [derived] aligns with {!cases}. The error string is a
          deterministic human-readable divergence description. *)
}

type t = {
  name : string;
  mutates_graph : bool;
      (** Whether derived cases carry a transformed graph — these cost
          an extra index build (and, on the wire path, a second
          in-process server). *)
  derive : Case.t -> relseed:int -> derived;
}

val window_containment : t
(** Shrinking the window to [W' ⊆ W] keeps exactly the base matches
    whose lifespan overlaps [W']: [results(W') = {m ∈ results(W) :
    life(m) ∩ W' ≠ ∅}]. *)

val translation : t
(** Shifting every edge interval and the window by Δ yields a bijection
    of matches: same edge bindings, lifespans shifted by Δ. *)

val time_reversal : t
(** Mapping every interval [ts, te] to [T - te, T - ts] (window
    included) yields the same edge bindings with reversed lifespans.
    Allen constraints are mapped to their time-reversal duals
    ({!Temporal.Allen.reverse} — not the argument-swapping inverse). *)

val edge_deletion : t
(** Deleting graph edges is monotone: the surviving results are exactly
    the base matches all of whose edges survived (ids remapped). Edges
    a [NOT]/[EXISTS] clause could match are never deleted, so the
    clause unions — and with them every piece — stay fixed. *)

val label_renaming : t
(** Permuting label ids consistently across graph and query leaves the
    result set untouched. *)

val sub_pattern : t
(** Every base match restricted to a connected sub-pattern is a match
    of that sub-pattern whose lifespan contains the base lifespan (the
    sub-pattern runs undecorated; base pieces are sub-intervals of
    their core lifespan, so containment still holds). *)

val window_tightening : t
(** Running the query with [Analysis.Bound]'s propagated effective
    window in place of its own must preserve the result set {e exactly}
    — the soundness statement of the analyzer's window tightening
    (every matched edge overlaps the tightened window because the
    clique lifespan is a non-empty global intersection; see
    [Bound]'s interface for the proof). Deterministic: ignores
    [relseed]. *)

val anti_semi_partition : t
(** For a fresh random clause [c], the window-clipped piece coverage of
    [q + NOT c] and [q + EXISTS c], unioned per edge-binding group,
    equals the coverage of [q] itself: [(X \ U) ∪ (X ∩ U) = X]. All
    three derived cases run with [min_duration 1] (a duration floor
    breaks the partition: a clause can split a durable piece into two
    sub-duration halves) and without the aggregate. *)

val allen_inverse : t
(** [q + (a_i REL a_j)] and [q + (a_j REL⁻¹ a_i)] produce identical
    result sets ({!Temporal.Allen.inverse}). Derives nothing on
    single-edge cores. *)

val semijoin_containment : t
(** Adding an [EXISTS] clause only intersects: every derived piece is
    contained in some base piece with the same edge bindings. *)

val allen_filter : t
(** Adding one Allen constraint filters the base result set exactly: a
    piece survives iff classifying its two bound graph-edge intervals
    yields the constrained relation — engine-side pushdown (TSRJoin
    prunes inside the join tree) must agree with the pure post-filter.
    Derives nothing on single-edge cores. *)

val aggregate_topk : t
(** [q TOP k] equals the deterministic durability top-k of the base
    result set (longest lifespan first, ties by
    {!Semantics.Match_result.compare}), computed by a sort-and-take
    that shares no code with {!Semantics.Match_result.Top_k}. *)

val all : t list
(** The twelve relations above, in a fixed order: the original seven
    first and the extended-operator relations appended, so older repro
    relseeds stay valid. *)

val find : string -> (t, string) result
