(** Workload persistence: query sets as text files, one query-language
    statement per line ('#' comments allowed), so generated workloads
    can be shipped, diffed and replayed exactly.

    Queries are rendered with {!Semantics.Qlang.render} and reloaded
    with the parser, preserving edges, windows and duration floors (up
    to variable renumbering, which cannot affect results). *)

val save : Tgraph.Graph.t -> Semantics.Query.t list -> string -> unit

val load : Tgraph.Graph.t -> string -> (Semantics.Query.t list, string) result
(** Fails with a line-numbered message on the first malformed query or
    unknown label. *)

val of_lines : Tgraph.Graph.t -> string list -> (Semantics.Query.t list, string) result
