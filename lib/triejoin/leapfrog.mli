(** Leapfrog multiway intersection of sorted key sets (the binding
    production of a leapfrog triejoin, Veldhuizen).

    [leapfrog-init] sorts the iterators by their current key;
    [leapfrog-search] repeatedly seeks the smallest iterator to the
    current maximum until all agree; [leapfrog-next] advances past the
    last binding. *)

type t

val create :
  ?on_seek:(unit -> unit) -> ?on_next:(unit -> unit) -> Key_iter.t array -> t
(** Takes ownership of the iterators (they are reset). [on_seek] fires
    before every leapfrog-search seek, [on_next] before every
    leapfrog-next advance — callback hooks so callers can count seeks
    without this library depending on their stats types.
    @raise Invalid_argument on an empty array. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over all remaining bindings. *)

val intersect_arrays : int array list -> int array
(** Convenience: the intersection of strictly-ascending arrays. *)
