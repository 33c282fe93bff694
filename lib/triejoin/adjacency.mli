(** Static label-adjacency index: the B-tree analogue used by the BINARY
    and HYBRID baselines (and by triejoin binding production).

    Two tries over the edge table: LSD (label → source → destination →
    edges) and LDS (label → destination → source → edges). Leaf edge
    groups are sorted by start time so temporal selections can stop
    early, but no temporal structure beyond that is maintained — that is
    the TAI's job (lib/core).

    Every lookup accepts the wildcard label [-1]
    ({!Semantics.Query.any_label}) and unions across labels (freshly
    allocated results). *)

type t

val build : Tgraph.Graph.t -> t
val build_time : Tgraph.Graph.t -> t * float

val sources : t -> lbl:int -> int array
(** Distinct sources of label [lbl], ascending ([||] for an absent
    label). Do not mutate (except wildcard results, which are fresh). *)

val destinations : t -> lbl:int -> int array

val dst_keys : t -> lbl:int -> src:int -> int array
(** Distinct destinations reachable from [src] by label [lbl]. *)

val src_keys : t -> lbl:int -> dst:int -> int array

val out_edges : t -> lbl:int -> src:int -> Tgraph.Edge.t Slice.t
(** All [lbl]-labeled edges out of [src] (LSD leaf run, grouped by
    destination, start-sorted within each destination group). *)

val in_edges : t -> lbl:int -> dst:int -> Tgraph.Edge.t Slice.t

val edges_between : t -> lbl:int -> src:int -> dst:int -> Tgraph.Edge.t Slice.t
(** The multi-edges from [src] to [dst] with label [lbl], start-sorted. *)

val label_edges : t -> lbl:int -> Tgraph.Edge.t Slice.t
(** Every edge with label [lbl] (LSD order). *)

val size_words : t -> int
