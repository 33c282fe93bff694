(** The STI-CP index of the TIME baseline: one start-time index (sorted
    edge relation + earliest-concurrent coverage) per edge label. *)

type t

val build : Tgraph.Graph.t -> t
val build_time : Tgraph.Graph.t -> t * float

val sti : t -> lbl:int -> Temporal.Sti.t
(** The start-time index of one label's edge relation (empty for an
    unknown label). *)

val edge_of_item : t -> Temporal.Span_item.t -> Tgraph.Edge.t
(** Resolves a span item (payload = edge id) back to its edge. *)

val size_words : t -> int
