(** A read-only window into an array: the zero-copy unit handed out by
    every trie level (edge groups, TSRs, key runs). *)

type 'a t = private { data : 'a array; off : int; len : int }

val make : 'a array -> off:int -> len:int -> 'a t
(** @raise Invalid_argument on an out-of-bounds window. *)

val full : 'a array -> 'a t
val empty : 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val sub : 'a t -> off:int -> len:int -> 'a t
val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
