(** Sets of integer timestamps as normalized closed-interval lists.

    A value is a sorted list of disjoint, {e non-adjacent} intervals —
    the unique maximal-interval decomposition of a timestamp set, so two
    sets are equal iff their lists are. Adjacency matters on integer
    time: [[0, 2]] and [[3, 5]] fuse into [[0, 5]].

    This is the interval arithmetic behind the extended relational
    operators: the antijoin subtracts a clause's matched union from a
    lifespan, the semijoin intersects with it, and the surviving maximal
    intervals are the result {e pieces}. *)

type t = Interval.t list
(** Exposed as a list for pattern matching, but only {!normalize}d
    values uphold the invariants; build with the constructors below. *)

val empty : t
val is_empty : t -> bool
val of_interval : Interval.t -> t

val of_list : Interval.t list -> t
(** Sorts, merges overlapping and adjacent intervals. *)

val union : t -> t -> t
val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is the set of timestamps in [a] but not [b], as maximal
    intervals. *)

val equal : t -> t -> bool
val to_list : t -> Interval.t list
val to_string : t -> string
