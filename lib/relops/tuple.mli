(** Partial-match tuples flowing through the baseline pipelines.

    A tuple binds a subset of query edges (by graph edge id, [-1] for
    unmatched) and the query variables they determine, and carries the
    running interval intersection of its bound edges. *)

type t = {
  edges : int array;  (** per query edge: graph edge id or -1 *)
  binds : int array;  (** per query variable: vertex or -1 *)
  life : Temporal.Interval.t;
}

val initial : Semantics.Query.t -> t
(** No edges bound; life is the universal interval. *)

val extend :
  Semantics.Query.t -> t -> edge_idx:int -> Tgraph.Edge.t -> t option
(** [extend q tup ~edge_idx e] binds query edge [edge_idx] to [e] if the
    endpoint bindings are consistent, without temporal checks (the
    topological join). Returns a fresh tuple. *)

val select_temporal :
  ?min_len:int -> t -> ws:int -> we:int -> edge:Tgraph.Edge.t -> t option
(** The temporal selection operator: intersect [life] with the newly
    bound edge's interval; keep the tuple when the intersection is at
    least [min_len] long (default 1) and overlaps the window. *)

val is_complete : t -> bool

val to_match : t -> Semantics.Match_result.t
(** @raise Invalid_argument when the tuple is incomplete. *)
