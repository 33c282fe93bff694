(** Complete matches and normalized result sets.

    A match binds query edge [i] to graph edge [edges.(i)]; [life] is the
    non-empty intersection of the matched intervals. Result sets are
    order-insensitive: use {!Result_set} to compare engine outputs. *)

type t = { edges : int array; life : Temporal.Interval.t }

val make : int array -> Temporal.Interval.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_json : Tgraph.Graph.t -> t -> Obs.Json.t
(** The one JSON form of a match, shared by [tcsq query --format json]
    and the wire protocol: edge bindings resolved against the graph,
    e.g.
    {v
{"edges": [{"id": 3, "src": 0, "dst": 4, "label": "a", "ts": 13, "te": 15}],
 "lifespan": {"ts": 15, "te": 15}}
    v} *)

val to_csv : t -> string
(** Terse CSV row: edge ids separated by [;], then lifespan start/end. *)

val csv_header : string
(** Column names for {!to_csv}. *)

val life_of_edges : Tgraph.Graph.t -> int array -> Temporal.Interval.t option
(** Intersection of the intervals of the given graph edges. *)

val verify : Tgraph.Graph.t -> Query.t -> t -> (unit, string) result
(** Checks a claimed match against the full query semantics: labels,
    endpoint consistency, non-empty lifespan equal to the claimed one,
    window overlap. The backbone of cross-engine testing. *)

module Result_set : sig
  type match_t := t
  type t

  val of_list : match_t list -> t
  (** Sorts and de-duplicates. *)

  val cardinality : t -> int
  val to_list : t -> match_t list
  val equal : t -> t -> bool

  val diff_summary : expected:t -> actual:t -> string option
  (** [None] when equal; otherwise a human-readable digest of the first
      few missing/extra matches. *)
end
