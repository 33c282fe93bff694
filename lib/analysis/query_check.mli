(** Pass 1: query semantic analysis.

    Structural checks need only the query; graph-dependent checks (label
    vocabulary, window vs. time span, durability vs. edge lengths) need
    an {!env} summarizing the target graph. Build the env once per graph
    and reuse it across queries — it is the only part that scans the
    edge table.

    Codes:
    - [Q000] (Error) query-language syntax or compilation failure
      (emitted by {!Lint}, not here)
    - [Q001] (Error) inverted window, end before start
    - [Q002] (Warning, proves empty) window disjoint from the graph's
      time span
    - [Q003] (Error, proves empty) label id outside the graph's
      vocabulary
    - [Q004] (Warning) orphan variable: not used by any query edge
    - [Q005] (Warning) duplicate query edge (same label, source and
      destination)
    - [Q006] (Warning) disconnected pattern: the result is the cartesian
      product of its components
    - [Q007] (Hint) self-loop query edge: matches only self-loop graph
      edges
    - [Q008] (Warning, proves empty) label interned but matching no
      graph edge
    - [Q009] (Warning, proves empty) graph has no edges
    - [Q010] (Warning, proves empty) LASTING duration exceeds every edge
      interval's length

    Codes [Q011]-[Q014] are emitted by {!Bound}, the constraint
    propagation pass layered on top of this one. The full registry lives
    in ARCHITECTURE.md. *)

type env = {
  n_labels : int;
  label_names : string array;
  label_counts : int array;  (** edges per label *)
  span : Temporal.Interval.t option;  (** [None] on an empty graph *)
  max_edge_len : int;  (** longest edge interval, 0 on an empty graph *)
  label_spans : Temporal.Interval.t option array;
      (** per label, the hull of its edge intervals ([None]: no edges) —
          the initial abstract value of {!Bound}'s propagation *)
  label_max_len : int array;
      (** per label, the longest edge interval (0: no edges) *)
}

val env_of_graph : Tgraph.Graph.t -> env
(** Read from the graph's per-label statistics, O(labels): no edge
    scan. *)

val check : ?env:env -> Semantics.Query.t -> Diagnostic.t list
(** Structural checks, plus the graph-dependent ones when [env] is
    given. Diagnostics come out in code order. *)

val check_raw_window : ws:int -> we:int -> Diagnostic.t list
(** [Q001] on an inverted window. Raw endpoints, because
    {!Temporal.Interval.t} cannot represent an inverted window — use
    this before constructing the interval (e.g. on CLI input). *)
