(** A minimal vectorized pull-based (Volcano-style) operator framework.

    Operators produce batches of at most {!batch_size} tuples per pull,
    mirroring the paper's experimental setup ("vectorized execution,
    tuple output of each operator set to 1024"). *)

val batch_size : int
(** 1024. *)

type t
(** A pull operator over {!Tuple.t} batches. *)

val next : t -> Tuple.t array option
(** The next batch ([Some [||]] never escapes: empty pulls are retried
    internally); [None] at end of stream. *)

val source : Tuple.t Seq.t -> t
(** Batches an arbitrary tuple sequence. *)

val flat_map : (Tuple.t -> Tuple.t list) -> t -> t
(** The generic unary operator: per input tuple emit any number of
    output tuples, re-batched to {!batch_size}. Joins and selections are
    both instances. *)

val filter_map : (Tuple.t -> Tuple.t option) -> t -> t

val consume : t -> (Tuple.t -> unit) -> unit
(** Drains the operator. *)

val count : t -> int
