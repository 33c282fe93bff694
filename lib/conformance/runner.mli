(** Engine variants under conformance test, and the per-graph execution
    context they evaluate in.

    A {!ctx} owns at most one prepared {!Workload.Engine.t} and at most
    one in-process query server (both built lazily), so every variant —
    sequential, parallel, wire — runs against identical warm state for a
    given graph. The harness caches one ctx per distinct graph and
    releases them at the end of each iteration. *)

type ctx

val ctx : Tgraph.Graph.t -> ctx

val engine : ctx -> Workload.Engine.t
(** Lazily [Workload.Engine.prepare]d, then memoized. *)

val release : ctx -> unit
(** Stops the wire server, if one was started. Idempotent. *)

exception Eval_failed of string
(** An engine variant failed to produce a result set — an exception out
    of the engine, or a non-[ok] wire response. The harness reports it
    as a conformance failure of that variant. *)

type t = {
  name : string;
  eval : ctx -> Semantics.Equery.t -> Semantics.Match_result.t list;
}
(** Every variant evaluates the full extended surface: the core pattern
    runs through the variant's engine, decorations and aggregates apply
    through {!Semantics.Equery} (TSRJoin variants additionally push the
    Allen constraints into the join). *)

val standard : t list
(** The five engine variants of the differential fuzzer: tsrjoin-basic,
    tsrjoin-opt, binary, hybrid, time. *)

val adaptive : t
(** TSRJoin under [Plan.build_adaptive] (defer ratio 2.0), Allen
    constraints in the engine config. *)

val cached : t
(** [tsrjoin-cached]: the cached-vs-fresh differential. Each query is
    evaluated twice through the ctx's one shared
    {!Workload.Plan_cache}; the variant fails unless a pass was served
    from the cache and both passes agree, and returns the cached-plan
    result set so the harness compares it against the cache-free
    variants. *)

val parallel : domains:int -> t
(** [tsrjoin-parN]: {!Workload.Engine.run_ext} with [~domains:N] on
    the shared {!Exec.Pool}; its emission order is nondeterministic, and
    the harness compares result sets. *)

val wire : t
(** The server wire path: the query is rendered to extended query-language
    text, sent over a Unix-domain socket to an in-process [tcsq serve]
    instance holding the ctx's graph, and the response matches are
    decoded back. A [COUNT] aggregate is stripped before rendering
    (count is presentation-only; the server would echo no matches). *)

val broken : t
(** Fault injection for shrinker and replay tests: tsrjoin-opt with the
    first match deliberately dropped. Only registered under
    [--inject-fault]. *)

val find :
  inject_fault:bool -> string -> (t, string) result
(** Resolves a variant name as recorded in a reproducer ([tsrjoin-parN]
    resolves for any N >= 2; [broken] only when [inject_fault]). *)
