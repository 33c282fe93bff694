let any_label = -1

type edge = { idx : int; lbl : int; src_var : int; dst_var : int }

type t = {
  n_vars : int;
  edges : edge array;
  window : Temporal.Interval.t;
  min_duration : int;
  adjacency : edge list array;
}

let build_adjacency n_vars edges =
  let adjacency = Array.make n_vars [] in
  Array.iter
    (fun e ->
      adjacency.(e.src_var) <- e :: adjacency.(e.src_var);
      if e.dst_var <> e.src_var then
        adjacency.(e.dst_var) <- e :: adjacency.(e.dst_var))
    edges;
  Array.map List.rev adjacency

let make ~n_vars ~edges ~window =
  let min_duration = 1 in
  if edges = [] then invalid_arg "Query.make: empty edge list";
  if n_vars <= 0 then invalid_arg "Query.make: need at least one variable";
  let edges =
    Array.of_list
      (List.mapi
         (fun idx (lbl, src_var, dst_var) ->
           if lbl < any_label then
             invalid_arg (Printf.sprintf "Query.make: bad label %d" lbl);
           if src_var < 0 || src_var >= n_vars || dst_var < 0
              || dst_var >= n_vars
           then
             invalid_arg
               (Printf.sprintf "Query.make: variable out of range in edge %d"
                  idx);
           { idx; lbl; src_var; dst_var })
         edges)
  in
  { n_vars; edges; window; min_duration; adjacency = build_adjacency n_vars edges }

let n_vars q = q.n_vars
let n_edges q = Array.length q.edges
let edges q = q.edges

let edge q i =
  if i < 0 || i >= Array.length q.edges then
    invalid_arg (Printf.sprintf "Query.edge: bad index %d" i);
  q.edges.(i)

let window q = q.window
let ws q = Temporal.Interval.ts q.window
let we q = Temporal.Interval.te q.window
let min_duration q = q.min_duration
let with_window q window = { q with window }
let with_min_duration q min_duration =
  if min_duration < 1 then
    invalid_arg "Query.with_min_duration: must be >= 1";
  { q with min_duration }

let adjacent q v =
  if v < 0 || v >= q.n_vars then
    invalid_arg (Printf.sprintf "Query.adjacent: bad variable %d" v);
  q.adjacency.(v)

let other_endpoint e v =
  if e.src_var = v then e.dst_var
  else if e.dst_var = v then e.src_var
  else
    invalid_arg
      (Printf.sprintf "Query.other_endpoint: variable %d not on edge %d" v
         e.idx)

let is_connected q =
  let seen = Array.make q.n_vars false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun e -> visit (other_endpoint e v)) q.adjacency.(v)
    end
  in
  visit 0;
  Array.for_all Fun.id seen

let pp fmt q =
  Format.fprintf fmt "@[<hov 2>query(%d vars; window %a;%s" q.n_vars
    Temporal.Interval.pp q.window
    (if q.min_duration > 1 then
       Printf.sprintf " min duration %d;" q.min_duration
     else "");
  Array.iter
    (fun e ->
      Format.fprintf fmt "@ %d:%s(x%d,x%d)" e.idx
        (if e.lbl = any_label then "*" else Printf.sprintf "l%d" e.lbl)
        e.src_var e.dst_var)
    q.edges;
  Format.fprintf fmt ")@]"
