type t = {
  merge_threshold : int;
  mutable tai : Tai.t; (* indexes [merged] *)
  mutable merged : Tgraph.Graph.t; (* the graph covered by [tai] *)
  mutable buffered : (int * int * int * int * int) list; (* newest first *)
  mutable n_buffered : int;
}

let create ?(merge_threshold = 1024) base =
  if merge_threshold <= 0 then
    invalid_arg "Incremental.create: merge_threshold must be positive";
  {
    merge_threshold;
    tai = Tai.build base;
    merged = base;
    buffered = [];
    n_buffered = 0;
  }

let of_tai ?(merge_threshold = 1024) base tai =
  if merge_threshold <= 0 then
    invalid_arg "Incremental.of_tai: merge_threshold must be positive";
  { merge_threshold; tai; merged = base; buffered = []; n_buffered = 0 }

let materialize t =
  if t.n_buffered > 0 then begin
    let g = Tgraph.Graph.append t.merged (List.rev t.buffered) in
    t.tai <- Tai.merge t.tai g;
    t.merged <- g;
    t.buffered <- [];
    t.n_buffered <- 0
  end

let add_edge t ~src ~dst ~lbl ~ts ~te =
  (* validate eagerly so errors surface at the append site *)
  Result.iter_error
    (fun msg -> invalid_arg ("Incremental.add_edge: " ^ msg))
    (Tgraph.Edge.check ~src ~dst ~ts ~te);
  if lbl < 0 || lbl >= Tgraph.Graph.n_labels t.merged then
    invalid_arg (Printf.sprintf "Incremental.add_edge: unknown label %d" lbl);
  let id = Tgraph.Graph.n_edges t.merged + t.n_buffered in
  t.buffered <- (src, dst, lbl, ts, te) :: t.buffered;
  t.n_buffered <- t.n_buffered + 1;
  if t.n_buffered >= t.merge_threshold then materialize t;
  id

let graph t =
  materialize t;
  t.merged

let tai t =
  materialize t;
  t.tai

let pending t = t.n_buffered
let n_edges t = Tgraph.Graph.n_edges t.merged + t.n_buffered
