(** A temporal selective relation R(l, s, d): a start-sorted run of edges
    sharing a label and zero, one or two endpoint constraints, optionally
    paired with its earliest-concurrent coverage (its ECI entry).

    TSRs are zero-copy slices into a TAI trie's edge table; they are the
    operand of LFTO. *)

type t

val make : ?coverage:Temporal.Coverage.t -> Tgraph.Edge.t Triejoin.Slice.t -> t
(** The slice must be start-sorted.
    @raise Invalid_argument otherwise. *)

val make_unchecked :
  ?coverage:Temporal.Coverage.t -> Tgraph.Edge.t Triejoin.Slice.t -> t
(** Trusted variant for slices handed out by a TAI trie (already sorted
    at build time): skips the linear sortedness check, which would
    otherwise dominate per-binding cost. *)

val of_edges : ?coverage:Temporal.Coverage.t -> Tgraph.Edge.t array -> t
(** Copies and sorts. *)

val empty : t
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> Tgraph.Edge.t
val iter : (Tgraph.Edge.t -> unit) -> t -> unit
val to_list : t -> Tgraph.Edge.t list

val coverage : t -> Temporal.Coverage.t option
(** The attached ECI coverage, when the TAI was built with ECIs. *)

val lower_bound_start : t -> int -> int
(** First index whose edge starts at or after the timestamp. *)

val upper_bound_start : t -> int -> int
(** First index whose edge starts strictly after the timestamp. *)

val get_coverage_tuple : t -> int -> Temporal.Coverage.tuple option
(** The paper's [getCoverageTuple(R, t)]. [None] when no coverage is
    attached or the relation dies out before [t]. *)
