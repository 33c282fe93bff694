type t = {
  graph : Tgraph.Graph.t;
  stis : Temporal.Sti.t array;
  all : Temporal.Sti.t; (* the wildcard relation: every edge *)
}

let empty_sti = Temporal.Sti.build Temporal.Relation.empty

let build graph =
  let n_labels = Tgraph.Graph.n_labels graph in
  let buckets = Array.make (max 1 n_labels) [] in
  let everything = ref [] in
  Tgraph.Graph.iter_edges
    (fun e ->
      let l = Tgraph.Edge.lbl e in
      buckets.(l) <- Tgraph.Edge.to_span e :: buckets.(l);
      everything := Tgraph.Edge.to_span e :: !everything)
    graph;
  let stis =
    Array.map
      (fun items -> Temporal.Sti.build (Temporal.Relation.of_list items))
      buckets
  in
  { graph; stis; all = Temporal.Sti.build (Temporal.Relation.of_list !everything) }

let build_time graph =
  let t0 = Unix.gettimeofday () in
  let idx = build graph in
  (idx, Unix.gettimeofday () -. t0)


let sti t ~lbl =
  if lbl = Semantics.Query.any_label then t.all
  else if lbl < 0 || lbl >= Array.length t.stis then empty_sti
  else t.stis.(lbl)

let edge_of_item t item = Tgraph.Graph.edge t.graph (Temporal.Span_item.id item)

let size_words t =
  Array.fold_left (fun acc sti -> acc + Temporal.Sti.size_words sti) 2 t.stis
  + Temporal.Sti.size_words t.all
