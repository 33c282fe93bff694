(** The lint driver behind [tcsq lint], the engine's admission check
    and the conformance harness's analyzer cross-check: query semantic
    analysis, then — when the query is error-free — clause checks and
    constraint propagation. Plans are checked where they run, against
    all seven [P001]–[P007] rules of {!Tcsq_core.Plan.validate}; here
    only an explicit pivot order's literal plan is. *)

type target
(** A graph prepared for linting: TAI and query-check env. *)

val target_of_graph : Tgraph.Graph.t -> target
val target_of_tai : Tcsq_core.Tai.t -> target
(** Reuse an existing TAI (e.g. the engine's) instead of rebuilding. *)

val env : target -> Query_check.env
val tai : target -> Tcsq_core.Tai.t

val check_query : target -> Semantics.Query.t -> Diagnostic.t list
(** {!Query_check.check} plus, when it reports no [Error],
    {!Bound.analyze}'s propagation diagnostics. *)

val check_equery : target -> Semantics.Equery.t -> Diagnostic.t list
(** Like {!check_query} over the core pattern, adding {!Ext_check}'s
    clause diagnostics and feeding the Allen constraints into
    {!Bound.analyze}. [check_query q] = [check_equery (Equery.plain q)]. *)

val check_pivot_order : Semantics.Query.t -> int list -> Diagnostic.t list
(** {!Plan_check.check} on the {e literal} plan induced by the pivot
    order ({!Tcsq_core.Plan.of_pivot_order_unchecked}): pivots are taken
    in the given order without the safe planner's bound-first repair, so
    a wrong order surfaces as [P002]/[P004] diagnostics instead of being
    silently fixed. Query diagnostics are {!check_query}'s job. *)

val check_text :
  ?default_window:Temporal.Interval.t ->
  target ->
  string ->
  Semantics.Equery.t option * Diagnostic.t list
(** Parse and compile a query-language string (the full extended
    surface), folding syntax and compilation failures into
    [Q000]/[Q003] diagnostics, then {!check_equery}. The query is
    [None] when it could not be built. *)
