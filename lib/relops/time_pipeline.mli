(** The TIME baseline (T^P, "time then topology"): the temporal
    predicates are solved first by an STI-CP plane sweep over the
    label-filtered edge relations (start-time indexes let the sweep skip
    to the earliest concurrent of the window start); the topological
    predicates are solved by hash-assisted binary joins over the
    temporally-active edge sets as each clique member arrives
    (Fig. 8 right).

    Because the sweep is global — never narrowed by vertex bindings —
    TIME scans every window-overlapping edge of every query label and
    pays hash-table maintenance on all of them: the costs the paper
    attributes to this pipeline. *)

val run :
  ?stats:Semantics.Run_stats.t ->
  Sti_index.t ->
  Semantics.Query.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
