(** Self-contained reproducer files (format [tcsq-repro/v1]).

    A reproducer carries everything needed to re-execute one failed
    conformance check deterministically: the check identity, the query
    in [.tcsq] query-language text (the full extended surface —
    [NOT]/[EXISTS] clauses, [WHERE] Allen constraints, aggregates —
    rendered by [Qlang.render_ext] and parsed back by
    [Qlang.parse_and_compile_ext]), and the graph as CSV edge lines —
    one file a human can read and [tcsq fuzz --replay] can re-run.

    {v
    tcsq-repro/v1
    check: differential
    engine: tsrjoin-opt
    seed: 20260705
    labels: l0,l1,l2
    summary: 2 missing matches
    [query]
    MATCH (x0)-[l0]->(x1) IN [0, 5]
    [graph]
    0,1,l0,0,3
    [end]
    v}

    The [labels:] header pins the full label vocabulary (ids in list
    order), so a query label stays resolvable even when shrinking
    removed its last graph edge. Graph lines use the {!Tgraph.Io} CSV
    field order [src,dst,label,ts,te]. Blank lines and [#] comment
    lines are ignored, including before the magic line, so committed
    reproducers can explain themselves. *)

type t = {
  check : Check.t;
  seed : int option;  (** the fuzz seed that found it, informational *)
  summary : string;  (** first line of the recorded divergence *)
  case : Case.t;
}

val of_string : string -> (t, string) result

val save : t -> string -> unit
val load : string -> (t, string) result
