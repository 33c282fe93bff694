(** Optimized leapfrog temporal overlap — the paper's Algorithm 4,
    assembling three independent optimizations over {!Lfto}:

    - {b ECI start-point skip} (Algorithm 2): walk the early-coverage
      tuples of the k TSRs to the first jointly-covered timestamp and
      start every scanner at its earliest concurrent, skipping
      {e backward} irrelevant edges;
    - {b delSkip} (Algorithm 3): abort the sweep once some relation is
      exhausted with an empty active list, skipping {e forward}
      irrelevant edges;
    - {b lazy enumeration}: batch the edges sharing a start time within
      one relation and traverse the active lists once per batch.

    Every flag combination computes exactly the same result set as
    {!Lfto.run}; the flags only remove work. *)

type config = { use_eci : bool; use_del_skip : bool; use_lazy : bool }

val all_on : config
val all_off : config

type context
(** Reusable sweep scratch space. TSRJoin runs one LFTO per pivot
    binding; passing one context across those calls removes the
    per-call array and vector allocations. Not thread-safe — use one
    context per domain. *)

val create_context : unit -> context

val optimize_start_point : Tsr.t array -> ws:int -> int array option
(** Algorithm 2. [Some starts] gives, per relation, the earliest start
    time a relevant edge can have; [None] proves no combination can
    overlap [[ws, ∞)] and the sweep can be skipped entirely. Relations
    without attached coverage yield start time [min_int] (no skip).
    @raise Invalid_argument on an empty array. *)

val run :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?trace:(Lfto.trace_event -> unit) ->
  ?ctx:context ->
  config:config ->
  tsrs:Tsr.t array ->
  ws:int ->
  we:int ->
  emit:(Tgraph.Edge.t array -> Temporal.Interval.t -> unit) ->
  unit ->
  unit
(** Same contract as {!Lfto.run}.

    With one relation and no [trace], the sweep keeps no active list:
    after the same prologue as the general sweep (the ECI start point,
    then the slice), one pass over the start-sorted slice emits the
    edges that start before [ws] and end at or after it, ordered by
    (end, {!Tgraph.Edge.compare_by_start}) as the window transition
    emits its active list, then every in-window edge in slice order,
    each with its own interval as the lifespan. The emission order and
    the [stats] counters at every emit are the general sweep's:
    [scanned] runs through the first in-window edge at the transition,
    through the next batch's first edge when a batch (a run of equal
    starts under [use_lazy], one edge otherwise) is emitted, and over the
    whole slice at the end, so a budget raised from [emit] stops with
    the same counters. delSkip cannot cut a one-relation sweep short.
    Every batch updates [stats] at least once, so deadline checks still
    fire on a long pass. A [trace] keeps the general sweep, whose
    [Inserted]/[Expired] events the one-relation pass does not have.
    Under {!Obs.Sink.null} no span closure is made. *)

val count :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ctx:context ->
  config:config ->
  tsrs:Tsr.t array ->
  ws:int ->
  we:int ->
  max_count:int ->
  unit ->
  int option
(** The number of combinations {!run} would emit for one relation,
    without emitting them: [run]'s prologue (the ECI start point when
    [config.use_eci], then the start-sorted slice up to [we]), then
    [run]'s one-relation pass without [emit], which reads only the
    edges starting before [ws]: the count is those still alive at [ws]
    plus every in-window edge. It runs under the same
    [Tai_probe]/[Tsr_slice]/[Interval_sweep] spans as [run]. [Some n] adds to [stats] what [run] would have:
    [scanned] by the slice length and [enum_steps] by [n]. [None] when
    [n > max_count], with [stats] untouched, so a caller near a budget
    can enumerate instead and stop at the same tuple.
    @raise Invalid_argument unless [tsrs] holds exactly one relation, or
    when [we < ws]. *)
