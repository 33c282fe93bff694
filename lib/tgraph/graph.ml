type t = {
  labels : Label.t;
  edges : Edge.t array;
  n_vertices : int;
}

module Builder = struct
  type t = {
    labels : Label.t;
    acc : Edge.t Temporal.Vec.t;
    mutable max_vertex : int;
  }

  let create ?labels () =
    let labels = match labels with Some l -> l | None -> Label.create () in
    { labels; acc = Temporal.Vec.create (); max_vertex = -1 }

  let add_edge b ~src ~dst ~lbl ~ts ~te =
    if src < 0 || dst < 0 then
      invalid_arg
        (Printf.sprintf "Graph.Builder.add_edge: negative vertex (%d, %d)" src
           dst);
    if lbl < 0 || lbl >= Label.count b.labels then
      invalid_arg (Printf.sprintf "Graph.Builder.add_edge: unknown label %d" lbl);
    let ivl = Temporal.Interval.make ts te in
    let id = Temporal.Vec.length b.acc in
    Temporal.Vec.push b.acc (Edge.make ~id ~src ~dst ~lbl ivl);
    b.max_vertex <- max b.max_vertex (max src dst);
    id

  let add_edge_named b ~src ~dst ~lbl ~ts ~te =
    let lbl = Label.intern b.labels lbl in
    add_edge b ~src ~dst ~lbl ~ts ~te

  let n_edges b = Temporal.Vec.length b.acc

  let finish b =
    {
      labels = b.labels;
      edges = Temporal.Vec.to_array b.acc;
      n_vertices = b.max_vertex + 1;
    }
end

let labels g = g.labels
let n_vertices g = g.n_vertices
let n_edges g = Array.length g.edges
let n_labels g = Label.count g.labels

let edge g i =
  if i < 0 || i >= Array.length g.edges then
    invalid_arg (Printf.sprintf "Graph.edge: unknown edge id %d" i);
  g.edges.(i)

let edges g = g.edges
let iter_edges f g = Array.iter f g.edges
let fold_edges f init g = Array.fold_left f init g.edges

let time_domain g =
  if Array.length g.edges = 0 then invalid_arg "Graph.time_domain: empty graph";
  let ts = ref max_int and te = ref min_int in
  Array.iter
    (fun e ->
      ts := min !ts (Edge.ts e);
      te := max !te (Edge.te e))
    g.edges;
  Temporal.Interval.make !ts !te

let window_of_fraction g ~frac ~at =
  if frac <= 0.0 || frac > 1.0 then
    invalid_arg "Graph.window_of_fraction: frac must be in (0, 1]";
  if at < 0.0 || at > 1.0 then
    invalid_arg "Graph.window_of_fraction: at must be in [0, 1]";
  let domain = time_domain g in
  let total = Temporal.Interval.length domain in
  let width = max 1 (int_of_float (Float.round (float_of_int total *. frac))) in
  let slack = total - width in
  let offset = int_of_float (Float.round (float_of_int slack *. at)) in
  let ws = Temporal.Interval.ts domain + offset in
  Temporal.Interval.make ws (ws + width - 1)

let prefix g k =
  if k < 0 || k > Array.length g.edges then
    invalid_arg (Printf.sprintf "Graph.prefix: bad edge count %d" k);
  let edges = Array.sub g.edges 0 k in
  let max_vertex = ref (-1) in
  Array.iter
    (fun e -> max_vertex := max !max_vertex (max (Edge.src e) (Edge.dst e)))
    edges;
  { labels = g.labels; edges; n_vertices = !max_vertex + 1 }

let of_edge_list ?labels l =
  let b = Builder.create ?labels () in
  List.iter
    (fun (src, dst, lbl, ts, te) ->
      (* Materialize label ids 0..lbl on demand so numeric test inputs
         stay terse. *)
      while Label.count (b.Builder.labels) <= lbl do
        ignore (Label.intern b.Builder.labels
                  (Printf.sprintf "l%d" (Label.count b.Builder.labels)))
      done;
      ignore (Builder.add_edge b ~src ~dst ~lbl ~ts ~te))
    l;
  Builder.finish b

let append g l =
  let n = Array.length g.edges in
  let extra =
    List.mapi
      (fun i (src, dst, lbl, ts, te) ->
        if src < 0 || dst < 0 then
          invalid_arg "Graph.append: negative vertex";
        if lbl < 0 || lbl >= Label.count g.labels then
          invalid_arg (Printf.sprintf "Graph.append: unknown label %d" lbl);
        Edge.make ~id:(n + i) ~src ~dst ~lbl (Temporal.Interval.make ts te))
      l
  in
  let edges = Array.append g.edges (Array.of_list extra) in
  let max_vertex = ref (g.n_vertices - 1) in
  List.iter
    (fun e -> max_vertex := max !max_vertex (max (Edge.src e) (Edge.dst e)))
    extra;
  { g with edges; n_vertices = !max_vertex + 1 }

let pp_summary fmt g =
  Format.fprintf fmt "graph{|V|=%d |E|=%d |L|=%d%t}" (n_vertices g) (n_edges g)
    (n_labels g) (fun fmt ->
      if n_edges g > 0 then
        Format.fprintf fmt " domain=%a" Temporal.Interval.pp (time_domain g))
