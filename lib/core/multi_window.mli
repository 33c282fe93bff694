(** Shared evaluation of one pattern over many query windows.

    The paper's introduction observes that evaluating a window query as
    independent per-timestamp (or per-window) queries redoes an enormous
    amount of shared work. This module evaluates the pattern {e once}
    over the hull of all requested windows and distributes each complete
    match to the windows its lifespan intersects — sound because a match
    belongs to window [w] iff its lifespan meets [w], and every such
    match's lifespan meets the hull.

    Sharing wins when windows overlap or sit close together (e.g. a
    sliding-window dashboard); for far-apart sparse windows the hull
    covers dead space and per-window evaluation can win — see the
    [multiwindow] benchmark. *)

val evaluate :
  ?stats:Semantics.Run_stats.t ->
  ?config:Tsrjoin.config ->
  Tai.t ->
  Semantics.Query.t ->
  windows:Temporal.Interval.t list ->
  Semantics.Match_result.t list array
(** [evaluate tai q ~windows] ignores [q]'s own window and returns, for
    each requested window (in order), exactly the matches that
    {!Tsrjoin.run} would produce for that window. Matches spanning
    several windows are shared structurally (not copied).
    @raise Invalid_argument on an empty window list. *)

val sliding :
  ?stats:Semantics.Run_stats.t ->
  ?config:Tsrjoin.config ->
  Tai.t ->
  Semantics.Query.t ->
  width:int ->
  stride:int ->
  over:Temporal.Interval.t ->
  (Temporal.Interval.t * Semantics.Match_result.t list) list
(** Convenience: evaluate over a sliding window of [width] advancing by
    [stride] across [over].
    @raise Invalid_argument unless [width > 0 && stride > 0]. *)
