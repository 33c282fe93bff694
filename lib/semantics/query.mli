(** Temporal-clique subgraph queries.

    A query is a multigraph pattern over query variables — each query
    edge carries a label constraint and a direction — plus a query time
    window. A {e complete match} binds every query edge to a graph edge
    with the same label, endpoint-consistently (homomorphism semantics:
    distinct variables may bind the same vertex; two matches are distinct
    iff they differ on at least one edge binding), such that the
    intersection of the matched intervals is non-empty — it then
    necessarily overlaps the window because each edge must. *)

val any_label : int
(** The wildcard label constraint ([-1]): matches edges of every label.
    Subsumes the unlabeled-pattern setting of the related durable-graph-
    pattern work. *)

type edge = { idx : int; lbl : int; src_var : int; dst_var : int }
(** [idx] is the position in {!edges}; [src_var]/[dst_var] index the
    query variables; [lbl] is a label id or {!any_label}. *)

type t

val make :
  n_vars:int -> edges:(int * int * int) list -> window:Temporal.Interval.t -> t
(** [make ~n_vars ~edges:[(lbl, src_var, dst_var); ...] ~window] with
    [min_duration = 1]; use {!with_min_duration} for durable-match
    queries.
    @raise Invalid_argument on an empty edge list, a variable out of
    range, or a label below {!any_label}. *)

val n_vars : t -> int
val n_edges : t -> int
val edges : t -> edge array
val edge : t -> int -> edge
val window : t -> Temporal.Interval.t
val ws : t -> int
val we : t -> int

val min_duration : t -> int
(** The durability threshold (1 = unconstrained). *)

val with_window : t -> Temporal.Interval.t -> t

val with_min_duration : t -> int -> t
(** Restrict results to {e durable} matches whose lifespan spans at
    least this many timestamps (the duration-constrained variant, cf.
    Semertzidis & Pitoura's durable patterns).
    @raise Invalid_argument when < 1. *)

val adjacent : t -> int -> edge list
(** [adjacent q v] are the query edges incident to variable [v] (a self
    loop appears once). *)

val other_endpoint : edge -> int -> int
(** [other_endpoint e v] is the endpoint of [e] that is not [v]; for a
    self loop it is [v] itself.
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)

val is_connected : t -> bool
(** Whether the pattern (ignoring direction) is connected. *)

val pp : Format.formatter -> t -> unit
