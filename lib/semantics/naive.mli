(** Brute-force oracle evaluator.

    Backtracks over query edges in order, scanning the whole edge table
    per step. Exponentially slower than any engine in this repository but
    obviously correct — it is the ground truth for every cross-engine
    test. *)

val evaluate : ?limit:int -> Tgraph.Graph.t -> Query.t -> Match_result.t list
(** All complete matches, in unspecified order. Stops after [limit]
    matches when given. *)

val count : ?limit:int -> Tgraph.Graph.t -> Query.t -> int

val evaluate_ext : Tgraph.Graph.t -> Equery.t -> Match_result.t list
(** Extended-operator reference semantics by literal timestamp
    enumeration: every tick of a core match's lifespan is classified by
    rescanning the edge table per NOT/EXISTS clause, and consecutive
    kept ticks are grouped into maximal pieces. Independent of the
    interval-set arithmetic used by the optimized decoration path —
    that independence is the point. *)

