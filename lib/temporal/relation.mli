(** A temporal relation: span items sorted by start time.

    The storage under a start-time index ({!Sti}), one per label in the
    TIME baseline's STI-CP index. *)

type t

val of_items : Span_item.t array -> t
(** [of_items a] copies and sorts [a] by (start, end, id). *)

val of_sorted : Span_item.t array -> t
(** [of_sorted a] adopts [a] without copying.
    @raise Invalid_argument if [a] is not sorted by start. *)

val of_list : Span_item.t list -> t
val empty : t
val length : t -> int
val get : t -> int -> Span_item.t
val items : t -> Span_item.t array

val lower_bound_start : t -> int -> int
(** [lower_bound_start r t] is the first index whose item starts at or
    after [t] (= [length r] when none does). *)

val upper_bound_start : t -> int -> int
(** [upper_bound_start r t] is the first index whose item starts strictly
    after [t]. *)

val count_window : t -> ws:int -> we:int -> int
(** Number of items overlapping the window (linear in candidates). *)

val size_words : t -> int
(** Approximate heap words, counting items as boxed records. *)
