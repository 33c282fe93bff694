open Semantics
module Adjacency = Triejoin.Adjacency
module Slice = Triejoin.Slice

let label_count adj lbl = Slice.length (Adjacency.label_edges adj ~lbl)

let var_order adj q =
  let n = Query.n_vars q in
  let bound = Array.make n false in
  let order = ref [] in
  let degree v = List.length (Query.adjacent q v) in
  let min_label v =
    List.fold_left
      (fun acc (e : Query.edge) -> min acc (label_count adj e.Query.lbl))
      max_int (Query.adjacent q v)
  in
  let connectivity v =
    List.fold_left
      (fun acc (e : Query.edge) ->
        if bound.(Query.other_endpoint e v) then acc + 1 else acc)
      0 (Query.adjacent q v)
  in
  for _ = 1 to n do
    let best = ref (-1) and best_key = ref (min_int, min_int, min_int) in
    for v = 0 to n - 1 do
      if not bound.(v) then begin
        let key = (connectivity v, degree v, -min_label v) in
        if !best < 0 || key > !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    bound.(!best) <- true;
    order := !best :: !order
  done;
  List.rev !order

let run ?stats adj q ~emit =
  let ws = Query.ws q and we = Query.we q in
  let min_duration = Query.min_duration q in
  let tick_intermediate () =
    match stats with Some s -> Run_stats.tick_intermediate s | None -> ()
  in
  let tick_binding () =
    match stats with Some s -> Run_stats.tick_binding s | None -> ()
  in
  let tick_result () =
    match stats with Some s -> Run_stats.tick_result s | None -> ()
  in
  let order = Array.of_list (var_order adj q) in
  let n_vars = Array.length order in
  let bindings = Array.make (Query.n_vars q) (-1) in
  let expanded = Array.make (Query.n_edges q) false in
  let assignment = Array.make (Query.n_edges q) (-1) in
  (* The triejoin phase binds variables and expands multi-edges on
     topology alone — the paper's point is exactly that temporal
     predicates cannot be injected into the TrieJOIN, so the temporal
     selection runs at the top of the plan, over complete topological
     matches. [life] tracks the running intersection for that final
     selection but never prunes the search. *)
  let rec bind_var var_i life =
    if var_i = n_vars then begin
      match life with
      | Some life
        when Temporal.Interval.overlaps_window life ~ws ~we
             && Temporal.Interval.length life >= min_duration ->
          tick_result ();
          emit (Match_result.make (Array.copy assignment) life)
      | Some _ | None -> () (* dropped by the final temporal selection *)
    end
    else begin
      let v = order.(var_i) in
      let adjacent = Query.adjacent q v in
      if adjacent = [] then bind_var (var_i + 1) life
      else begin
        let key_sets =
          List.concat_map
            (fun (e : Query.edge) ->
              if e.Query.src_var = v && e.Query.dst_var = v then
                [
                  Adjacency.sources adj ~lbl:e.Query.lbl;
                  Adjacency.destinations adj ~lbl:e.Query.lbl;
                ]
              else if e.Query.src_var = v then
                if bindings.(e.Query.dst_var) >= 0 then
                  [ Adjacency.src_keys adj ~lbl:e.Query.lbl ~dst:bindings.(e.Query.dst_var) ]
                else [ Adjacency.sources adj ~lbl:e.Query.lbl ]
              else if bindings.(e.Query.src_var) >= 0 then
                [ Adjacency.dst_keys adj ~lbl:e.Query.lbl ~src:bindings.(e.Query.src_var) ]
              else [ Adjacency.destinations adj ~lbl:e.Query.lbl ])
            adjacent
        in
        let iters =
          Array.of_list
            (List.map Triejoin.Key_iter.of_sorted_array_unchecked key_sets)
        in
        let lf = Triejoin.Leapfrog.create iters in
        Triejoin.Leapfrog.iter
          (fun b ->
            tick_binding ();
            tick_intermediate () (* triejoin binding output *);
            bindings.(v) <- b;
            let newly =
              List.filter
                (fun (e : Query.edge) ->
                  (not expanded.(e.Query.idx))
                  && bindings.(e.Query.src_var) >= 0
                  && bindings.(e.Query.dst_var) >= 0)
                adjacent
            in
            List.iter (fun (e : Query.edge) -> expanded.(e.Query.idx) <- true) newly;
            let rec expand todo life =
              match todo with
              | [] -> bind_var (var_i + 1) life
              | (e : Query.edge) :: rest ->
                  let slice =
                    Adjacency.edges_between adj ~lbl:e.Query.lbl
                      ~src:bindings.(e.Query.src_var)
                      ~dst:bindings.(e.Query.dst_var)
                  in
                  Slice.iter
                    (fun ge ->
                      tick_intermediate () (* expansion (join) output *);
                      let life' =
                        match life with
                        | None -> None
                        | Some l -> Temporal.Interval.intersect l (Tgraph.Edge.ivl ge)
                      in
                      assignment.(e.Query.idx) <- Tgraph.Edge.id ge;
                      expand rest life';
                      assignment.(e.Query.idx) <- -1)
                    slice
            in
            expand newly life;
            List.iter (fun (e : Query.edge) -> expanded.(e.Query.idx) <- false) newly;
            bindings.(v) <- -1)
          lf
      end
    end
  in
  bind_var 0 (Some (Temporal.Interval.make min_int max_int))
