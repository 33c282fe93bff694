(** Deterministic random inputs for tests, fuzzing and examples:
    uniform random temporal graphs and a pool of query shapes that
    exercises every structural corner of the matcher (shared unbound
    endpoints, repeated labels, self loops, mixed directions,
    disconnected patterns). *)

val random_graph :
  seed:int ->
  n_vertices:int ->
  n_edges:int ->
  n_labels:int ->
  domain:int ->
  max_len:int ->
  unit ->
  Tgraph.Graph.t

val query_pool :
  n_labels:int -> window:Temporal.Interval.t -> Semantics.Query.t list
(** Fifteen query shapes over the first [n_labels] labels, including
    wildcard-labeled patterns. *)

val random_query :
  seed:int ->
  n_labels:int ->
  max_edges:int ->
  window:Temporal.Interval.t ->
  Semantics.Query.t
(** A random pattern: 1..max_edges edges over a random variable set with
    random labels (occasionally the wildcard) and directions; mostly
    connected (each edge prefers an already-used variable), with
    occasional self loops, parallel edges and disconnected components.
    Deterministic in [seed]. *)

(** {2 Graph mutators}

    Deterministic surgery on temporal graphs, used by the conformance
    layer to derive metamorphic follow-up inputs and to shrink failing
    reproducers. Every mutator preserves the label table (label ids keep
    their meaning) and the insertion order of surviving edges, so edge
    ids in the result are dense and order-compatible with the input. *)

val drop_edges :
  Tgraph.Graph.t -> keep:(int -> bool) -> Tgraph.Graph.t * int array
(** Keeps exactly the edges whose old id satisfies [keep]; returns the
    new graph and the new-id-to-old-id map. *)

val shift_time : Tgraph.Graph.t -> delta:int -> Tgraph.Graph.t
(** Translates every edge interval by [delta] timestamps. *)

val reverse_time : Tgraph.Graph.t -> anchor:int -> Tgraph.Graph.t
(** Maps every edge interval [ts, te] to [anchor - te, anchor - ts].
    Callers pick [anchor >= max te] to keep timestamps non-negative. *)

val relabel_edges : Tgraph.Graph.t -> perm:int array -> Tgraph.Graph.t
(** Rewrites every edge label [l] to [perm.(l)]; [perm] must be a
    permutation of the label-id range, so the shared table stays valid. *)

val merge_vertices : Tgraph.Graph.t -> keep:int -> drop:int -> Tgraph.Graph.t
(** Redirects every endpoint equal to [drop] onto [keep]. *)

val clamp_edge_interval :
  Tgraph.Graph.t -> edge:int -> Temporal.Interval.t -> Tgraph.Graph.t
(** Replaces the interval of the one edge id [edge]. *)

(** {2 Query mutators} *)

val map_query_labels :
  Semantics.Query.t -> f:(int -> int) -> Semantics.Query.t
(** Rewrites every real label constraint through [f]; wildcard edges are
    preserved untouched. *)

val restrict_query :
  Semantics.Query.t -> keep:int list -> Semantics.Query.t * int array
(** The sub-pattern made of the given edge indices (deduped, evaluated
    in ascending order), with variables renumbered compactly in order of
    appearance; window and duration floor preserved. The second
    component maps each new edge index to the old one.
    @raise Invalid_argument on an empty or out-of-range [keep]. *)

val query_component : Semantics.Query.t -> int -> int list
(** The edge indices of the connected component (edges sharing an
    endpoint variable, ignoring direction) containing edge [i], sorted
    ascending. *)

(** {2 Extended-query generators}

    Random {!Semantics.Equery.t} values for the differential fuzzer and
    property tests: a random core pattern decorated with antijoin and
    semijoin clauses (endpoints drawn from the core's used variables or
    left unconstrained), an occasional Allen constraint between two core
    edges, and an occasional aggregate. *)

val decorate_query :
  seed:int -> n_labels:int -> Semantics.Query.t -> Semantics.Equery.t
(** Random decorations over an existing core pattern: ~40% of queries
    get at least one [NOT]/[EXISTS] clause, ~30% of multi-edge cores get
    an Allen constraint, ~25% get an aggregate ([TOP k] twice as often
    as [COUNT]). Deterministic in [seed]. *)

val random_equery :
  seed:int ->
  n_labels:int ->
  max_edges:int ->
  window:Temporal.Interval.t ->
  Semantics.Equery.t
(** [decorate_query] over [random_query] (both seeded from [seed]). *)

val equery_gen :
  n_labels:int ->
  max_edges:int ->
  window:Temporal.Interval.t ->
  Random.State.t ->
  Semantics.Equery.t
(** {!random_equery} reading its seed from a [Random.State.t] — the
    shape of a [QCheck.Gen.t], so it plugs directly into QCheck
    properties without this library depending on QCheck. *)

val restrict_equery :
  Semantics.Equery.t -> keep:int list -> Semantics.Equery.t * int array
(** {!restrict_query} lifted to extended queries: the core is
    restricted, clause endpoints whose variable was dropped weaken to
    unconstrained, Allen constraints touching a dropped edge are
    removed, and surviving edge indices are remapped. Used by the
    shrinker so decorations stay meaningful on sub-patterns. *)
