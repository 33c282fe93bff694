(** The HYBRID baseline (P^T with a worst-case-optimal core): a
    vertex-at-a-time leapfrog triejoin binds query variables over the
    static adjacency tries; whenever a query edge becomes fully bound its
    multi-edges are expanded and a temporal selection filters the running
    intersection (Fig. 8 middle).

    Temporal predicates play no role in binding production — the
    structural weakness the paper attributes to HYBRID. *)

val var_order : Triejoin.Adjacency.t -> Semantics.Query.t -> int list
(** Connected variable elimination order (most selective first). *)

val run :
  ?stats:Semantics.Run_stats.t ->
  Triejoin.Adjacency.t ->
  Semantics.Query.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
