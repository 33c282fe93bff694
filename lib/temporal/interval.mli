(** Closed integer time intervals [ts, te] with ts <= te.

    All temporal structures in this repository are built on this module.
    Timestamps are plain [int]s; the unit (seconds, minutes, ticks) is
    chosen by the dataset. *)

type t = private { ts : int; te : int }
(** An interval. The [private] row keeps the [ts <= te] invariant:
    construct values with {!make} or {!point}. *)

val make : int -> int -> t
(** [make ts te] is the interval [ts, te].
    @raise Invalid_argument if [te < ts]. *)

val make_opt : int -> int -> t option
(** [make_opt ts te] is [Some (make ts te)] when [ts <= te], else [None]. *)

val point : int -> t
(** [point t] is the degenerate interval [t, t]. *)

val ts : t -> int
(** Start timestamp. *)

val te : t -> int
(** End timestamp (inclusive). *)

val length : t -> int
(** [length i] is the number of integer timestamps covered, [te - ts + 1]. *)

val contains : t -> int -> bool
(** [contains i t] is [true] iff [ts i <= t <= te i]. *)

val overlaps : t -> t -> bool
(** [overlaps a b] is [true] iff the intervals share at least one
    timestamp. *)

val overlaps_window : t -> ws:int -> we:int -> bool
(** [overlaps_window i ~ws ~we] avoids allocating a window interval. *)

val intersect : t -> t -> t option
(** [intersect a b] is the common sub-interval when it is non-empty. *)

val intersect_exn : t -> t -> t
(** Like {!intersect}.
    @raise Invalid_argument when the intervals are disjoint. *)

val span : t -> t -> t
(** [span a b] is the smallest interval covering both [a] and [b]. *)

val before : t -> t -> bool
(** [before a b] is [true] iff [a] ends strictly before [b] starts. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic order on (start, end); the order used by every
    start-sorted temporal relation in the system. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["[ts, te]"]. *)

val to_string : t -> string
