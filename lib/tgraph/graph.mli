(** An immutable temporal graph: a dense table of temporal edges plus the
    label table. Vertices are the integers [0 .. n_vertices - 1]; any
    vertex id used by an edge materializes the range up to it.

    Build one with {!Builder}, a generator ({!Generator}), or the CSV
    loader ({!Io}). *)

type t

module Builder : sig
  type graph := t
  type t

  val create : ?labels:Label.t -> unit -> t

  val add_edge : t -> src:int -> dst:int -> lbl:int -> ts:int -> te:int -> int
  (** Adds an edge and returns its id (dense, insertion-ordered).
      @raise Invalid_argument on negative vertices, an unknown label id,
      or [te < ts]. *)

  val add_edge_named :
    t -> src:int -> dst:int -> lbl:string -> ts:int -> te:int -> int
  (** Like {!add_edge}, interning the label string. *)

  val n_edges : t -> int
  val finish : t -> graph
end

val labels : t -> Label.t
val n_vertices : t -> int
val n_edges : t -> int
val n_labels : t -> int

val edge : t -> int -> Edge.t
(** @raise Invalid_argument on an out-of-range edge id. *)

val edges : t -> Edge.t array
(** The edge table, indexed by edge id. Do not mutate. *)

val iter_edges : (Edge.t -> unit) -> t -> unit
val fold_edges : ('a -> Edge.t -> 'a) -> 'a -> t -> 'a

val time_domain : t -> Temporal.Interval.t
(** The smallest interval covering every edge. O(1): kept with the
    graph and extended by {!append}.
    @raise Invalid_argument on an empty graph. *)

(** {2 Per-label statistics}

    Computed when the graph is built and extended by {!append} from the
    new edges only, so the planner's cost model, its temporal histograms
    and the analyzer read them without scanning edges. A label interned
    into the shared table after the graph was built reads as empty, as
    does any id outside the table. *)

val label_count : t -> int -> int
(** Edges carrying the label. *)

val label_span : t -> int -> Temporal.Interval.t option
(** The smallest interval covering the label's edges; [None] when it
    has none. *)

val label_len_sum : t -> int -> int
(** Sum of the label's interval lengths. *)

val label_max_len : t -> int -> int
(** Longest interval length of the label, 0 when it has no edges. *)

val count_starting_before : t -> lbl:int -> int -> int
(** [count_starting_before g ~lbl t] is the number of label-[lbl] edges
    with [ts < t]; O(log n). *)

val count_ending_before : t -> lbl:int -> int -> int
(** Likewise for [te < t]. *)

val window_of_fraction : t -> frac:float -> at:float -> Temporal.Interval.t
(** [window_of_fraction g ~frac ~at] is a query window spanning [frac]
    (in (0, 1]) of the time domain, positioned so that its start sits at
    relative offset [at] (in [0, 1]) of the available slack. Used by the
    workload generator's window-fraction parameter. *)

val prefix : t -> int -> t
(** [prefix g k] is the subgraph of the first [k] edges (by id), with the
    same label table: the paper's network-size subsets (Fig. 12d-e). *)

val of_edge_list : ?labels:Label.t -> (int * int * int * int * int) list -> t
(** [of_edge_list [(src, dst, lbl, ts, te); ...]] is a convenience
    constructor for tests and examples. *)

val append : t -> (int * int * int * int * int) list -> t
(** [append g [(src, dst, lbl, ts, te); ...]] is [g] plus the given
    edges, whose ids continue [g]'s; the label table is shared (labels
    must already be interned).
    @raise Invalid_argument on invalid vertices, labels or intervals. *)

val pp_summary : Format.formatter -> t -> unit
