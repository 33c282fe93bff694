(** A mutable binary min-heap, parameterized by a comparison at creation.

    Used by the durable top-k selection and the temporal-path
    reachability searches. Not thread-safe. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The minimum element, if any, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)
