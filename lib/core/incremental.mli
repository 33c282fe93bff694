(** An append-only temporal graph with incrementally maintained TSRJoin
    indexes.

    New edges are buffered; when a query needs the index (or the buffer
    exceeds [merge_threshold]), the buffer is folded into the TAI with
    {!Tai.merge}, which re-sorts nothing and recomputes ECI coverage only
    for the touched (label, endpoint) groups. Typical ingest is
    therefore far cheaper than rebuild-per-batch (see the [dynamic]
    benchmark). *)

type t

val create : ?merge_threshold:int -> Tgraph.Graph.t -> t
(** [merge_threshold] (default 1024) bounds how many buffered edges may
    accumulate before an automatic merge. *)

val of_tai : ?merge_threshold:int -> Tgraph.Graph.t -> Tai.t -> t
(** [of_tai g tai] adopts an existing index over [g] instead of
    rebuilding one — [tai] must index exactly [g] (as from [Tai.build g]
    or a previous [Tai.merge]). This is how a long-lived server resumes
    incremental maintenance from its current engine state. *)

val add_edge : t -> src:int -> dst:int -> lbl:int -> ts:int -> te:int -> int
(** Appends an edge, returning its id. Labels must already exist in the
    base graph's table.
    @raise Invalid_argument as {!Tgraph.Graph.append}. *)

val graph : t -> Tgraph.Graph.t
(** The current graph, including all appended edges (forces a merge). *)

val tai : t -> Tai.t
(** The up-to-date TAI (forces a merge of any buffered edges). *)

val pending : t -> int
(** Buffered edges not yet merged into the TAI. *)

val n_edges : t -> int
