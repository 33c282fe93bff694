(** The BINARY baseline (P^T, "topology then time"): an edge-at-a-time
    pipeline of index-nested-loop binary joins over the static label
    adjacency index, with a temporal selection operator after every join
    (the paper's Fig. 8 left plan). Runs on the vectorized Volcano
    framework with 1024-tuple batches.

    Intermediate accounting: every tuple emitted by a scan, join, or
    non-root selection ticks [stats.intermediate]. *)

val join_order : Triejoin.Adjacency.t -> Semantics.Query.t -> int list
(** Greedy connected order: most selective label first, then prefer
    edges touching already-bound variables (both-bound before one-bound
    before cartesian), tie-broken by label frequency. *)

val run :
  ?stats:Semantics.Run_stats.t ->
  Triejoin.Adjacency.t ->
  Semantics.Query.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
