(** A temporal edge: directed, labeled, valid on a closed time interval.

    Edge ids are dense (the position in the graph's edge table) and are
    the payloads carried through every temporal relation. *)

type t = {
  id : int;
  src : int;
  dst : int;
  lbl : int;
  ivl : Temporal.Interval.t;
}

val make :
  id:int -> src:int -> dst:int -> lbl:int -> Temporal.Interval.t -> t

val check : src:int -> dst:int -> ts:int -> te:int -> (unit, string) result
(** The one validation of an edge entering a graph (built, appended,
    loaded or ingested): non-negative endpoints, [ts <= te], and an
    interval whose length [te - ts + 1] fits in an [int] (so
    [[min_int, max_int]] and [[0, max_int]] are refused, [[1, max_int]]
    is kept). The error names the edge. *)

val id : t -> int
val src : t -> int
val dst : t -> int
val lbl : t -> int
val ivl : t -> Temporal.Interval.t
val ts : t -> int
val te : t -> int

val to_span : t -> Temporal.Span_item.t
(** The edge as a span item (payload = edge id). *)

val compare_by_start : t -> t -> int
(** (start, end, id): the TSR storage order. *)

val compare_lsd : t -> t -> int
(** (label, source, destination, start, id): the LSD trie order. *)

val compare_lds : t -> t -> int
(** (label, destination, source, start, id): the LDS trie order. *)

val compare_ls : t -> t -> int
(** (label, source, start, id): the temporal LS index order — within one
    (label, source) group edges are start-sorted, i.e. each group is the
    TSR R(l, s, ANY). *)

val compare_ld : t -> t -> int
(** (label, destination, start, id): the temporal LD index order. *)
