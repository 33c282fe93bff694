(** Temporal Adjacency Indexes (TAIs): the TSR representation of TSRJoin.

    Four tries over the edge table:
    - {b LS}: label → source → edges start-sorted — the run under
      (l, s) {e is} the TSR R(l, s, ANY);
    - {b LD}: label → destination → edges start-sorted — R(l, *, d);
    - {b LSD}: label → source → destination → edges start-sorted —
      R(l, s, d);
    - {b LDS}: trie structure only (its leaf TSRs are recovered through
      LSD, the paper's storage-saving note); its label and destination
      levels are LD's.

    Key levels are sorted integer arrays, so leapfrog binding production
    runs over them directly. When built [~with_eci:true], every TSR of
    LS, LD and LSD carries its early-coverage index (LS-EC, LD-EC,
    LSD-EC), enabling the backward-edge skip of Algorithm 2. *)

type t

val build : ?with_eci:bool -> Tgraph.Graph.t -> t
(** [with_eci] defaults to [true]. *)

val build_time : ?with_eci:bool -> Tgraph.Graph.t -> t * float
(** Timed {!build}, for Table V. *)

val merge : t -> Tgraph.Graph.t -> t
(** [merge tai g'] is the TAI of [g'], where [g'] extends [tai]'s graph
    by appended edges (see {!Tgraph.Graph.append}); it is structurally
    identical to [build g'] and keeps [tai]'s ECI setting. Only the
    appended edges are sorted: each lands in the old trie-ordered edge
    arrays by binary search. Every trie level is walked together with
    the sorted delta in key order; a (label, key) group the delta does
    not touch keeps its old child groupings (offsets moved) and its ECI
    coverage, while touched groups are regrouped and get a fresh
    coverage. LDS comes from the merged LD, and the wildcard key sets
    merge in the delta's sorted keys. {!build} is the same merge into
    the empty TAI. The incremental-maintenance primitive behind
    {!Incremental}.
    @raise Invalid_argument when [g'] does not extend the indexed
    graph. *)

val graph : t -> Tgraph.Graph.t
val has_eci : t -> bool

(** {2 Binding production support (sorted key sets)} *)

val sources : t -> lbl:int -> int array
(** Distinct sources with an out-edge of label [lbl]. Do not mutate. *)

val destinations : t -> lbl:int -> int array
val dsts_of_src : t -> lbl:int -> src:int -> int array
val srcs_of_dst : t -> lbl:int -> dst:int -> int array

val all_sources : t -> int array
(** Distinct sources over every label (the wildcard key set). Computed
    at build time. *)

val all_destinations : t -> int array

(** {2 TSR retrieval} *)

(** All retrieval functions accept {!Semantics.Query.any_label} as
    [lbl]: the result is the (freshly merged, coverage-free) union of
    that endpoint's runs across every label. *)

val tsr_out : t -> lbl:int -> src:int -> Tsr.t
(** R(l, src, ANY) with its LS-EC coverage when present. *)

val tsr_in : t -> lbl:int -> dst:int -> Tsr.t
(** R(l, *, dst). *)

val tsr_between : t -> lbl:int -> src:int -> dst:int -> Tsr.t
(** R(l, src, dst). *)

(** {2 Accounting} *)

val size_words : t -> int
val eci_size_words : t -> int
(** The ECI share of {!size_words}. *)

val eci_n_tuples : t -> int
(** Total coverage tuples across all ECIs (storage-redundancy metric). *)
