open Semantics

type t = {
  edges : int array;
  binds : int array;
  life : Temporal.Interval.t;
}

let initial q =
  {
    edges = Array.make (Query.n_edges q) (-1);
    binds = Array.make (Query.n_vars q) (-1);
    life = Temporal.Interval.make min_int max_int;
  }

let extend q tup ~edge_idx e =
  let qe = Query.edge q edge_idx in
  let src = Tgraph.Edge.src e and dst = Tgraph.Edge.dst e in
  let sb = tup.binds.(qe.Query.src_var) and db = tup.binds.(qe.Query.dst_var) in
  let src_ok = sb = -1 || sb = src in
  let dst_ok = db = -1 || db = dst in
  let loop_ok = qe.Query.src_var <> qe.Query.dst_var || src = dst in
  if src_ok && dst_ok && loop_ok then begin
    let edges = Array.copy tup.edges in
    let binds = Array.copy tup.binds in
    edges.(edge_idx) <- Tgraph.Edge.id e;
    binds.(qe.Query.src_var) <- src;
    binds.(qe.Query.dst_var) <- dst;
    Some { edges; binds; life = tup.life }
  end
  else None

let select_temporal ?(min_len = 1) tup ~ws ~we ~edge =
  match Temporal.Interval.intersect tup.life (Tgraph.Edge.ivl edge) with
  | None -> None
  | Some life ->
      if
        Temporal.Interval.overlaps_window life ~ws ~we
        && Temporal.Interval.length life >= min_len
      then Some { tup with life }
      else None

let is_complete tup = Array.for_all (fun id -> id >= 0) tup.edges

let to_match tup =
  if not (is_complete tup) then invalid_arg "Tuple.to_match: incomplete tuple";
  Match_result.make (Array.copy tup.edges) tup.life
