(** Extended temporal-relational queries.

    An extended query is a core temporal-clique pattern ({!Query.t})
    decorated with:

    - {b antijoin} clauses ([NOT]): for each core match, the union of
      intervals of graph edges matching the clause is {e subtracted}
      from the match lifespan — matched intervals are removed, whole
      matches are only dropped when nothing survives;
    - {b semijoin} clauses ([EXISTS]): the lifespan is {e intersected}
      with the clause's matched union;
    - {b Allen constraints} between core edges ([a BEFORE b], ...):
      whole-match post-filters on the classified relation of the two
      bound graph-edge intervals;
    - an optional {b aggregate}: [COUNT] (presentation only) or [TOP k]
      (deterministic durability top-k selection).

    A clause is a single labeled step whose endpoints are either core
    variables or unconstrained ([Any]); clause matching ignores the
    query window, so the decoration of a match does not depend on the
    window — the property that keeps window-shifting metamorphic
    relations exact.

    The decorated result of a match is its list of {e pieces}: the
    maximal intervals of [(life ∩ ⋂ semi) \ (⋃ anti)], each kept only
    when it lasts [min_duration] and overlaps the window. Pieces are
    always sub-intervals of the core lifespan. *)

type endpoint = Var of int | Any

type clause = { lbl : int; src : endpoint; dst : endpoint }
(** [lbl] is a label id or {!Query.any_label}. *)

type agg = Count | Top of int

type t

val make :
  ?anti:clause list ->
  ?semi:clause list ->
  ?allen:(int * Temporal.Allen.relation * int) list ->
  ?agg:agg ->
  Query.t ->
  t
(** @raise Invalid_argument when a clause endpoint names a variable not
    used by a core edge, a clause label is below {!Query.any_label}, an
    Allen constraint is out of range or relates an edge to itself, or
    [TOP k] has [k < 1]. *)

val plain : Query.t -> t
(** No decorations, no aggregate: exactly the core semantics. *)

val is_plain : t -> bool

val has_decorations : t -> bool
(** Whether any anti/semi clause or Allen constraint is present
    (the aggregate does not count: it is a selection, not a
    per-match decoration). *)

val core : t -> Query.t
val anti : t -> clause list
val semi : t -> clause list
val allen : t -> (int * Temporal.Allen.relation * int) list
val agg : t -> agg option

val with_window : t -> Temporal.Interval.t -> t
val with_min_duration : t -> int -> t
val with_agg : t -> agg option -> t

val with_anti : t -> clause list -> t
val with_semi : t -> clause list -> t
val with_allen : t -> (int * Temporal.Allen.relation * int) list -> t
(** Replace one decoration family, revalidating against the core
    (@raise Invalid_argument as {!make}). Used by the metamorphic
    relations and the shrinker to splice decorations in and out. *)

val map_labels : (int -> int) -> t -> t
(** Applies the map to every core-edge and clause label; the wildcard is
    preserved. *)

val bindings_of : Tgraph.Graph.t -> Query.t -> Match_result.t -> int array
(** The vertex bound to each core variable ([-1] for variables no core
    edge uses). *)

val allen_ok :
  Tgraph.Graph.t ->
  (int * Temporal.Allen.relation * int) list ->
  Match_result.t ->
  bool
(** Whether the match satisfies every constraint, by classifying the
    bound graph-edge intervals. *)

val select : t -> Match_result.t list -> Match_result.t list
(** The aggregate stage of {!run_with} over a list of pieces: [TOP k]
    keeps the durability top-k ({!Match_result.Top_k}); [COUNT] and no
    aggregate pass through. *)

val run_with :
  (Query.t -> limit:int -> emit:(Match_result.t -> unit) -> unit) ->
  Tgraph.Graph.t ->
  ?limit:int ->
  t ->
  emit:(Match_result.t -> unit) ->
  unit
(** [run_with run g eq ~emit], the one extended pipeline: runs the core
    through [run], cuts each match into its pieces, and hands each piece
    to [emit] or, under [TOP k], to a {!Match_result.Top_k} drained into
    [emit] once [run] returns (so nothing is emitted if it raises).
    Without decorations or aggregate, [emit] goes to [run] unchanged.
    [run] must call its [emit] from one thread at a time.

    [run] receives [limit] (default [max_int]) when the core's matches
    are the answers themselves: no anti/semi clause, no Allen
    constraint, no [TOP k] ([COUNT] is presentation only). Otherwise it
    receives [max_int], since every match must reach the pieces or the
    selection. A [run] given [limit] may count the matches past it
    instead of emitting them ({!Tcsq_core.Tsrjoin.run}'s counted tail);
    the caller collects that count. *)
