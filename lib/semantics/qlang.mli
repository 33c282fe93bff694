(** A small textual query language for temporal-clique subgraph queries.

    Grammar (case-insensitive keywords, [#] comments to end of line):

    {v
    query    ::= MATCH chain ("," chain)* clause*
                 (WHERE allen (AND allen)* )?
                 (IN window)? (LASTING INT)? (COUNT | TOP INT)?
    chain    ::= node (edge node)+
    node     ::= "(" IDENT? ")"                  anonymous = fresh variable
    edge     ::= "-[" (ALIAS ":")? label "]->" | "<-[" (ALIAS ":")? label "]-"
    clause   ::= (NOT | EXISTS) cnode cedge cnode
    cnode    ::= "(" IDENT? ")"                  anonymous = unconstrained;
                                                 named = a MATCH variable
    cedge    ::= "-[" label "]->" | "<-[" label "]-"
    allen    ::= ALIAS REL ALIAS                 REL = BEFORE | MEETS | ... |
                                                 FINISHED_BY | AFTER
    label    ::= LABEL | "*"                     "*" = any label
    window   ::= "[" INT "," INT "]"             INT = "-"? digits, in int range
    v}

    [NOT], [EXISTS], [WHERE], [AND], [COUNT], [TOP] and the Allen
    relation names are contextual keywords: they only matter at the
    positions above and stay usable as variable or label names.

    Examples:

    {v
    MATCH (x)-[congested]->(y)-[congested]->(z) IN [1020, 1140]
    MATCH (a)-[follows]->(c), (b)-[follows]->(c) IN [213, 219]
    MATCH (x)-[a]->(y)<-[b]-(z)
    MATCH (x)-[call]->(y) NOT (y)-[reply]->(x) IN [0, 99]
    MATCH (x)-[call]->(y) EXISTS (y)-[*]->() IN [0, 99] LASTING 3
    MATCH (x)-[a: call]->(y)-[b: reply]->(x) WHERE a BEFORE b IN [0, 99]
    MATCH (x)-[call]->(y) IN [0, 99] TOP 5
    v}

    Without an [IN] clause the query window must be supplied at
    {!compile_ext} time (e.g. the graph's whole time domain).

    Parsing is independent of any graph; {!compile_ext} resolves label names
    against a graph's label table. *)

type ast
(** A parsed query: variables, labeled directed edges, optional window. *)

type error = { position : int; message : string }
(** [position] is a 0-based character offset into the input. *)

val parse : string -> (ast, error) result

val n_edges : ast -> int
val n_vars : ast -> int
val var_names : ast -> string array
(** Variable names in binding order (anonymous nodes are ["$0"], ["$1"],
    ...). *)

val window : ast -> (int * int) option

val compile_ext :
  ?default_window:Temporal.Interval.t ->
  Tgraph.Graph.t ->
  ast ->
  (Equery.t, string) result
(** Resolves labels and materializes the {!Equery.t}; a query without
    extended operators compiles to a {!Equery.plain} value. Fails on
    unknown labels, or when no window is available from either the
    [IN] clause or [default_window]. *)

val parse_and_compile :
  ?default_window:Temporal.Interval.t ->
  Tgraph.Graph.t ->
  string ->
  (Query.t, string) result
(** {!parse} then compile to a core {!Query.t}, with positions rendered
    into the message. A query that uses extended operators
    (NOT/EXISTS/WHERE/COUNT/TOP) is an error: use
    {!parse_and_compile_ext}. *)

val parse_and_compile_ext :
  ?default_window:Temporal.Interval.t ->
  Tgraph.Graph.t ->
  string ->
  (Equery.t, string) result

val render : Tgraph.Graph.t -> Query.t -> string
(** A textual form of the query (variables named [x0], [x1], ...;
    consecutive edges that chain naturally are rendered as one chain).
    [parse_and_compile g (render g q)] reproduces [q] up to variable
    renumbering — same edge list modulo variable names, hence exactly
    the same matches. *)

val render_ext : Tgraph.Graph.t -> Equery.t -> string
(** Extended rendering: WHERE-referenced edges get aliases [a0], [a1],
    ... (by edge index), clauses and the aggregate are appended.
    [parse_and_compile_ext g (render_ext g eq)] reproduces [eq] up to
    variable renumbering, like {!render}. For a {!Equery.plain} query
    this is byte-identical to {!render} of its core. *)
