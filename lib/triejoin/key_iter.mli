(** A positional iterator over a sorted set of integer keys, with the
    [seek] operation leapfrogging requires. *)

type t

val of_sorted_array : int array -> t
(** The array must be strictly ascending (a key {e set}).
    @raise Invalid_argument otherwise. *)

val of_sorted_array_unchecked : int array -> t
(** Trusted variant for keys produced by {!Grouping} (already distinct
    and sorted). *)

val reset : t -> unit
val at_end : t -> bool

val key : t -> int
(** @raise Invalid_argument when {!at_end}. *)

val next : t -> unit
val seek : t -> int -> unit
(** [seek it target] positions at the first key [>= target] (possibly
    the current one), by binary search over the remaining suffix. *)
