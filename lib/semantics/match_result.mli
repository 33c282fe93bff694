(** Complete matches and normalized result sets.

    A match binds query edge [i] to graph edge [edges.(i)]; [life] is the
    non-empty intersection of the matched intervals. Result sets are
    order-insensitive: use {!Result_set} to compare engine outputs. *)

type t = { edges : int array; life : Temporal.Interval.t }

val make : int array -> Temporal.Interval.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val collect : ((t -> unit) -> unit) -> t list
(** [collect run]: the matches [run] hands its emit callback, in the
    order it emits them. Engines stream; this is their list form. *)

val json_writer : Tgraph.Graph.t -> Buffer.t -> t -> unit
(** [json_writer g] is the one JSON encoder of a match, shared by
    [tcsq query --format json] and the wire protocol's result, subscribe
    and delta frames: it appends the match's edge bindings, resolved
    against [g], straight to a buffer, e.g.
    {v
{"edges": [{"id": 3, "src": 0, "dst": 4, "label": "a", "ts": 13, "te": 15}],
 "lifespan": {"ts": 15, "te": 15}}
    v}
    (on one line). The bytes are those {!Obs.Json.to_string} prints for
    the same object. Each label name is escaped once per writer, on its
    first use, so make one writer per frame, not per match. *)

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

val durability : t -> int
(** Lifespan length: what [TOP k] ranks by (Semertzidis & Pitoura's
    "most durable patterns"). *)

(** The one [TOP k] selection: the [k] most durable matches offered,
    longest lifespan first, ties broken by {!compare}. A min-heap keeps
    at most [k] of them; its array grows with the matches kept and is
    never sized from [k]. *)
module Top_k : sig
  type match_t := t
  type t

  val create : int -> t
  (** @raise Invalid_argument when [k < 1]. *)

  val offer : t -> match_t -> unit

  val drain : t -> match_t list
  (** The selection, most durable first; empties it. *)
end
