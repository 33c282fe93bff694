(** A mutable binary min-heap, parameterized by a comparison at creation.

    Backs the [TOP k] durability selection. Its array starts empty and
    doubles as elements arrive. Not thread-safe. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The minimum element, if any, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)
