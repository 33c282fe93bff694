(** A growable array (vector). The workhorse container of the sweep
    algorithms and the vectorized operators. Not thread-safe. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop_exn : 'a t -> 'a
(** Removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val insert_sorted : cmp:('a -> 'a -> int) -> 'a t -> 'a -> unit
(** [insert_sorted ~cmp v x] inserts [x] keeping [v] sorted by [cmp]
    (binary search for the position, then shift). *)

val remove_prefix : ('a -> bool) -> 'a t -> int
(** [remove_prefix p v] removes the longest prefix whose elements all
    satisfy [p]; returns how many were removed. *)

val filter_in_place : ('a -> bool) -> 'a t -> int
(** Keeps only elements satisfying the predicate, preserving order;
    returns how many were removed. *)
