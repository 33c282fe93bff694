open Tgraph

type result = {
  graph : Graph.t;
  src : int;
  window_start : int;
  arrivals : int array; (* max_int = unreachable *)
  via : int array; (* arriving edge id, -1 for src/unreachable *)
}

let earliest_arrival ?window g ~src =
  if src < 0 || src >= Graph.n_vertices g then
    invalid_arg (Printf.sprintf "Reachability.earliest_arrival: vertex %d" src);
  let window =
    match window with
    | Some w -> w
    | None ->
        if Graph.n_edges g = 0 then Temporal.Interval.point 0
        else Graph.time_domain g
  in
  let ws = Temporal.Interval.ts window and we = Temporal.Interval.te window in
  let n = Graph.n_vertices g in
  (* out-adjacency: vertex -> edges, start-sorted is not needed; build
     once per call *)
  let out = Array.make n [] in
  Graph.iter_edges
    (fun e ->
      if Edge.te e >= ws && Edge.ts e <= we then
        out.(Edge.src e) <- e :: out.(Edge.src e))
    g;
  let arrivals = Array.make n max_int in
  let via = Array.make n (-1) in
  let heap =
    Temporal.Min_heap.create
      ~cmp:(fun (a, _) (b, _) -> Int.compare a b)
      ()
  in
  arrivals.(src) <- ws;
  Temporal.Min_heap.push heap (ws, src);
  let rec loop () =
    match Temporal.Min_heap.pop heap with
    | None -> ()
    | Some (at, u) ->
        if at = arrivals.(u) then
          (* settled now: relax out-edges *)
          List.iter
            (fun e ->
              let depart = max at (Edge.ts e) in
              if depart <= Edge.te e && depart <= we then begin
                let v = Edge.dst e in
                if depart < arrivals.(v) then begin
                  arrivals.(v) <- depart;
                  via.(v) <- Edge.id e;
                  Temporal.Min_heap.push heap (depart, v)
                end
              end)
            out.(u);
        loop ()
  in
  loop ();
  { graph = g; src; window_start = ws; arrivals; via }

let arrival r v =
  if v < 0 || v >= Array.length r.arrivals then None
  else if r.arrivals.(v) = max_int then None
  else Some r.arrivals.(v)

let reachable r v = arrival r v <> None

let reachable_count r =
  Array.fold_left (fun acc a -> if a < max_int then acc + 1 else acc) 0 r.arrivals

let journey_to r v =
  if v = r.src || not (reachable r v) then None
  else begin
    let rec backtrack v acc =
      if v = r.src then acc
      else begin
        let id = r.via.(v) in
        assert (id >= 0);
        backtrack (Edge.src (Graph.edge r.graph id)) (id :: acc)
      end
    in
    let edges = backtrack v [] in
    let first = Graph.edge r.graph (List.hd edges) in
    Some
      {
        Journey.edges;
        departure = max r.window_start (Edge.ts first);
        arrival = r.arrivals.(v);
      }
  end

let default_window g window =
  match window with
  | Some w -> w
  | None ->
      if Tgraph.Graph.n_edges g = 0 then Temporal.Interval.point 0
      else Graph.time_domain g

let latest_departure ?window g ~dst =
  if dst < 0 || dst >= Graph.n_vertices g then
    invalid_arg (Printf.sprintf "Reachability.latest_departure: vertex %d" dst);
  let window = default_window g window in
  let ws = Temporal.Interval.ts window and we = Temporal.Interval.te window in
  let n = Graph.n_vertices g in
  let inc = Array.make n [] in
  Graph.iter_edges
    (fun e ->
      if Edge.te e >= ws && Edge.ts e <= we then
        inc.(Edge.dst e) <- e :: inc.(Edge.dst e))
    g;
  let departs = Array.make n min_int in
  (* max-heap via negated keys *)
  let heap =
    Temporal.Min_heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) ()
  in
  departs.(dst) <- we;
  Temporal.Min_heap.push heap (-we, dst);
  let rec loop () =
    match Temporal.Min_heap.pop heap with
    | None -> ()
    | Some (neg_at, v) ->
        let at = -neg_at in
        if at = departs.(v) then
          (* traversing (u, v) at instant t requires t <= departs(v) and
             t inside the edge interval and the window; the latest such
             t is min of the three upper bounds *)
          List.iter
            (fun e ->
              let t = min at (min (Edge.te e) we) in
              if t >= Edge.ts e && t >= ws then begin
                let u = Edge.src e in
                if t > departs.(u) then begin
                  departs.(u) <- t;
                  Temporal.Min_heap.push heap (-t, u)
                end
              end)
            inc.(v);
        loop ()
  in
  loop ();
  departs

let fastest_duration ?window g ~src ~dst =
  if src < 0 || src >= Graph.n_vertices g then
    invalid_arg (Printf.sprintf "Reachability.fastest_duration: vertex %d" src);
  let window = default_window g window in
  let ws = Temporal.Interval.ts window and we = Temporal.Interval.te window in
  if we < ws then None
  else if src = dst then Some 1
  else begin
    (* Candidate departures: pushing any journey to its latest feasible
       schedule, the departure instant equals min over its edges of
       min(te, we) — so trying every window-clipped edge end as a
       departure is exhaustive. Each candidate costs one
       earliest-arrival pass; computed durations never undershoot the
       optimum and meet it at the optimal journey's latest departure. *)
    let departures = Hashtbl.create 16 in
    Graph.iter_edges
      (fun e ->
        if Edge.te e >= ws && Edge.ts e <= we then begin
          let d = min (Edge.te e) we in
          if d >= ws then Hashtbl.replace departures d ()
        end)
      g;
    let best = ref None in
    Hashtbl.iter
      (fun depart () ->
        let r = earliest_arrival ~window:(Temporal.Interval.make depart we) g ~src in
        match arrival r dst with
        | Some arrive ->
            let d = arrive - depart + 1 in
            (match !best with
            | Some b when b <= d -> ()
            | Some _ | None -> best := Some d)
        | None -> ())
      departures;
    !best
  end
