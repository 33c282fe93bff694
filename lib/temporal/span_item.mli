(** A payload-carrying interval: the unit of every temporal relation.

    Relations, start-time indexes and coverage builds operate on arrays
    of [Span_item.t] — an integer payload (an edge id, a tuple id, ...)
    together with its validity interval. *)

type t = { id : int; ivl : Interval.t }

val make : int -> Interval.t -> t
val id : t -> int
val ivl : t -> Interval.t
val ts : t -> int
val te : t -> int

val compare_by_start : t -> t -> int
(** (start, end, id) lexicographic: the canonical relation order. *)

val sort_by_start : t array -> unit
(** In-place sort in {!compare_by_start} order. *)

val is_sorted_by_start : t array -> bool
