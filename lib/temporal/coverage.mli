(** Earliest-concurrent coverage of a temporal relation (ECI substrate).

    For a relation [R] of intervals and a timestamp [t], the
    {e earliest concurrent} [eC(t)] is the start time of the earliest
    (smallest-start) interval of [R] that overlaps [t] (Zhu et al. [28]).
    This module represents the step function [t -> eC(t)] compactly as a
    sorted array of {e early coverage tuples} [(cs, ce, ec)]: for every
    [t] in [[cs, ce]], [eC(t) = ec]. Timestamps covered by no interval
    fall in gaps between tuples.

    The paper's ECIs (LS-EC, LD-EC, LSD-EC) attach one such coverage to
    each TSR; this module is the per-relation building block. *)

type tuple = { cs : int; ce : int; ec : int }
(** One early coverage tuple: every [t] in [[cs, ce]] has earliest
    concurrent [ec]. Invariants: [cs <= ce] and [ec <= cs]. *)

type t
(** The coverage of one relation: tuples sorted by [cs], disjoint, with
    maximal runs of equal [ec] merged. *)

val build : Span_item.t array -> t
(** [build items] computes the coverage of [items]. The array must be
    sorted by start time ({!Span_item.sort_by_start} order).
    @raise Invalid_argument if the array is not sorted. *)

val of_run : int -> ts:(int -> int) -> te:(int -> int) -> t
(** [of_run n ~ts ~te] is the coverage of the [n] intervals
    [[ts i, te i]], [i] in [0 .. n-1], indexed in start order: the same
    tuples as {!build} on them, without materializing span items.
    @raise Invalid_argument if [ts] decreases. *)

val tuples : t -> tuple array
(** The underlying tuples, sorted by [cs]. *)

val n_tuples : t -> int

val get_coverage_tuple : t -> int -> tuple option
(** [get_coverage_tuple c t] implements the paper's
    [getCoverageTuple(R, t)]: the tuple whose range contains [t] if one
    exists, otherwise the first tuple with [cs > t], otherwise [None]. *)

val earliest_concurrent : t -> int -> int option
(** [earliest_concurrent c t] is [eC(t)] when [t] is covered by some
    interval of the relation. *)

val size_words : t -> int
(** Approximate heap footprint in machine words, for the storage-cost
    accounting of Table IV. *)
