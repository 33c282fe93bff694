(** Execution counters and budgets shared by every query-processing
    pipeline.

    [intermediate] counts every tuple produced by any operator below the
    root (partial matches, join outputs, temporal cliques): the metric of
    the paper's Fig. 10. [scanned] counts edge reads during sweeps — the
    cost that the ECI/delSkip optimizations remove. Budgets make
    non-selective baselines stoppable, mirroring the paper's caps
    (10^9-tuple intermediate threshold, bounded output). *)

type limits = { max_results : int; max_intermediate : int }

val no_limits : limits
val with_max_results : int -> limits

exception Limit_exceeded of string
(** Raised by the tick functions when a budget is exhausted. Pipelines
    let it escape; runners catch it and record a truncated outcome. *)

exception Deadline_exceeded
(** Raised by the tick functions when a wall-clock deadline has passed.
    Like {!Limit_exceeded}, pipelines let it escape; the server catches
    it and answers with a typed truncation. *)

type deadline = { expires_at : float; now : unit -> float }
(** A wall-clock budget: [now () >= expires_at] aborts execution. The
    clock is injected (e.g. [Unix.gettimeofday]) so this library stays
    dependency-free and tests can drive time deterministically. *)

type t = {
  mutable results : int;
  mutable intermediate : int;
  mutable scanned : int;  (** edges read by sweep scanners *)
  mutable bindings : int;  (** vertex bindings produced by leapfrog *)
  mutable enum_steps : int;  (** active-list elements visited during
                                 enumeration *)
  mutable seeks : int;  (** leapfrog seeks/advances and TAI/ECI index
                            probes — the topological-selectivity work *)
  mutable est_intermediate : int;
      (** the cost model's predicted intermediate-tuple count
          ([Tcsq_core.Plan.estimate]), recorded once per TSRJoin query so
          estimator error ([est_intermediate] vs [intermediate]) is
          observable per query; 0 for methods without an estimator *)
  mutable level_intermediate : int array;
      (** measured intermediate tuples per TSRJoin plan level — the
          runtime-feedback counterpart of [est_level_intermediate]:
          index [i] counts partial matches produced at plan step [i].
          Empty for methods without levelled execution. Prefer
          {!levels} (a defensive copy) over reading this directly. *)
  mutable est_level_intermediate : int array;
      (** the cost model's per-level predictions
          ([Tcsq_core.Plan.estimate] cumulatives), recorded once per
          TSRJoin query next to [est_intermediate]. *)
  limits : limits;
  mutable deadline : deadline option;
  mutable until_check : int;
      (** ticks until the next deadline clock read; managed internally *)
  mutable on_check : (unit -> unit) option;
      (** periodic hook, see {!set_on_check}; managed internally *)
}

val deadline_check_interval : int
(** The clock is read at most once per this many counter ticks, so a
    sweep overshoots an expired deadline by a bounded (and tiny) amount
    of work. *)

val create : ?limits:limits -> ?deadline:deadline -> unit -> t

val set_deadline : t -> deadline option -> unit
(** Replace (or clear) the deadline on live stats. *)

val set_on_check : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook run on the same cadence as the deadline
    clock read — at most once per {!deadline_check_interval} counter
    ticks. The hook may raise to abort execution; the parallel driver
    uses this for cooperative cancellation (a shared stop flag) and for
    pushing per-domain counter deltas into global budgets. It runs
    before the deadline comparison. *)

val tick_result : t -> unit
val tick_intermediate : t -> unit
val add_intermediate : t -> int -> unit
val tick_scanned : t -> unit
val add_scanned : t -> int -> unit
val tick_binding : t -> unit
val add_enum_steps : t -> int -> unit

val tick_seek : t -> unit
(** Count one index seek/probe. Unlike the other ticks this does not
    drive the deadline check — seeks always ride alongside binding or
    scanned ticks that do. *)

val tick_level_intermediate : t -> int -> unit
(** [tick_level_intermediate s level] counts one intermediate tuple
    {e and} attributes it to TSRJoin plan level [level] (growing the
    level array on first touch). Drives the same budget and deadline
    machinery as {!tick_intermediate} — exactly once, so
    [intermediate = sum of level_intermediate] whenever every
    intermediate tick is levelled. *)

val add_level_results : t -> int -> int -> unit
(** [add_level_results s level n] records [n] complete matches produced
    at the last plan level [level] by counting rather than enumerating
    them: [intermediate], [level_intermediate.(level)] and [results]
    each grow by [n], exactly as [n] rounds of
    {!tick_level_intermediate} then {!tick_result} would. [n = 0] records
    nothing. Budgets are checked once, after adding: a caller that must
    stop at the same tuple as enumeration first compares [n] with
    {!room}. *)

val room : t -> int
(** How many more results and intermediate tuples both budgets admit:
    [min (max_results - results) (max_intermediate - intermediate)]. *)

val add_est_intermediate : t -> int -> unit
(** Record a static intermediate-cardinality estimate. A prediction, not
    work: never drives the deadline check or any budget. *)

val add_est_level_intermediate : t -> int -> int -> unit
(** [add_est_level_intermediate s level n] records a static per-level
    estimate; like {!add_est_intermediate}, never a budget tick. *)

val levels : t -> int array
(** Defensive copy of the per-level actual intermediate counters. *)

val est_levels : t -> int array
(** Defensive copy of the per-level estimates. *)

val counters : t -> (string * int) list
(** The scalar counters by name, in the one order every report uses:
    results, intermediate, scanned, bindings, enum_steps, seeks,
    est_intermediate. *)

(** [merge_into dst src] adds counter-wise; the level arrays merge
    element-wise (the destination grows to the longer of the two), so
    per-domain partial counts from a parallel run sum to exactly the
    sequential counters. *)
val merge_into : t -> t -> unit
val pp : Format.formatter -> t -> unit
