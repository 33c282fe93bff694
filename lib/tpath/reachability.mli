(** Single-source time-respecting reachability (earliest arrival).

    Dijkstra-style label setting over arrival instants: traversing edge
    [(u, v)] valid on [[ts, te]] from an arrival instant [a] at [u] is
    possible at instant [max a ts] provided that is at most [te].
    Instantaneous traversal; complexity O(|E| log |V|) per source. *)

type result

val earliest_arrival :
  ?window:Temporal.Interval.t -> Tgraph.Graph.t -> src:int -> result
(** Earliest arrival instants from [src], departing at or after the
    window start (default: the graph's whole time domain) and arriving
    at or before the window end. [src] itself has arrival = window
    start.
    @raise Invalid_argument on an out-of-range source. *)

val arrival : result -> int -> int option
(** The earliest arrival instant at a vertex, when reachable. *)

val reachable : result -> int -> bool
val reachable_count : result -> int

val journey_to : result -> int -> Journey.t option
(** An earliest-arrival journey witnessing reachability (path
    reconstruction); [None] for the source itself or unreachable
    vertices. *)

(** {2 The companion queries of the temporal-path literature} *)

val latest_departure :
  ?window:Temporal.Interval.t -> Tgraph.Graph.t -> dst:int -> int array
(** Per vertex, the latest instant one can leave it and still reach
    [dst] by the window end (time-respecting); [min_int] when [dst] is
    unreachable from it. [dst] itself gets the window end. Computed by
    a backward label-setting sweep, the mirror of
    {!earliest_arrival}. *)

val fastest_duration :
  ?window:Temporal.Interval.t -> Tgraph.Graph.t -> src:int -> dst:int -> int option
(** The minimum elapsed time (arrival - departure + 1) of any
    time-respecting journey from [src] to [dst] inside the window,
    where the departure is the traversal instant of the first edge.
    Computed as a profile: one earliest-arrival pass per candidate
    departure (the window-clipped edge end times — a journey's latest
    feasible schedule departs at one of those), so O(T · E log V) with
    [T] distinct candidates. [Some 1] means an instantaneous journey;
    [None] unreachable; [src = dst] gives [Some 1] (the empty journey)
    whenever the window is non-empty. *)
