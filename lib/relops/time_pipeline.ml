open Semantics
open Tgraph

(* Per-slot expansion orders: starting from the arrival slot, visit the
   remaining slots preferring ones sharing a query variable with the
   already-visited part (so hash lookups stay constrained). *)
let expansion_orders q =
  let k = Query.n_edges q in
  let shares_var covered (e : Query.edge) =
    covered.(e.Query.src_var) || covered.(e.Query.dst_var)
  in
  Array.init k (fun start ->
      let covered = Array.make (Query.n_vars q) false in
      let visit e =
        covered.(e.Query.src_var) <- true;
        covered.(e.Query.dst_var) <- true
      in
      visit (Query.edge q start);
      let remaining = ref (List.filter (fun j -> j <> start) (List.init k Fun.id)) in
      let order = ref [] in
      while !remaining <> [] do
        let connected, rest =
          List.partition (fun j -> shares_var covered (Query.edge q j)) !remaining
        in
        let next = match connected with j :: _ -> j | [] -> List.hd rest in
        visit (Query.edge q next);
        order := next :: !order;
        remaining := List.filter (fun j -> j <> next) !remaining
      done;
      Array.of_list (List.rev !order))

let run ?stats idx q ~emit =
  let ws = Query.ws q and we = Query.we q in
  let min_duration = Query.min_duration q in
  let k = Query.n_edges q in
  let tick_intermediate () =
    match stats with Some s -> Run_stats.tick_intermediate s | None -> ()
  in
  let tick_scanned () =
    match stats with Some s -> Run_stats.tick_scanned s | None -> ()
  in
  let tick_result () =
    match stats with Some s -> Run_stats.tick_result s | None -> ()
  in
  let stis = Array.init k (fun i -> Sti_index.sti idx ~lbl:(Query.edge q i).Query.lbl) in
  let cur = Array.make k 0 and stop = Array.make k 0 in
  Array.iteri
    (fun i sti ->
      let s, e = Temporal.Sti.scan_range sti ~ws ~we in
      cur.(i) <- s;
      stop.(i) <- e)
    stis;
  (* Active edges per slot, plus hash indexes by endpoint. Hash entries
     are validated lazily against the sweep time (te >= t). *)
  let active : Edge.t Temporal.Vec.t array = Array.init k (fun _ -> Temporal.Vec.create ()) in
  let hash_src : (int, Edge.t list ref) Hashtbl.t array =
    Array.init k (fun _ -> Hashtbl.create 64)
  in
  let hash_dst : (int, Edge.t list ref) Hashtbl.t array =
    Array.init k (fun _ -> Hashtbl.create 64)
  in
  let hash_add tbl key e =
    match Hashtbl.find_opt tbl key with
    | Some cell -> cell := e :: !cell
    | None -> Hashtbl.add tbl key (ref [ e ])
  in
  let hash_get tbl key = match Hashtbl.find_opt tbl key with Some c -> !c | None -> [] in
  let orders = expansion_orders q in
  let bindings = Array.make (Query.n_vars q) (-1) in
  let assignment = Array.make k (-1) in
  let arrival_time = ref 0 in
  (* Topological join over the active sets: recursively extend the
     arrived edge along the expansion order, looking candidates up by
     bound endpoint. *)
  let rec extend order pos life =
    if pos = k - 1 then begin
      tick_result ();
      emit (Match_result.make (Array.copy assignment) life)
    end
    else begin
      let j = order.(pos) in
      let qe = Query.edge q j in
      let sb = bindings.(qe.Query.src_var) and db = bindings.(qe.Query.dst_var) in
      let candidates =
        if sb >= 0 then hash_get hash_src.(j) sb
        else if db >= 0 then hash_get hash_dst.(j) db
        else Temporal.Vec.to_list active.(j)
      in
      List.iter
        (fun (e : Edge.t) ->
          if Edge.te e >= !arrival_time then begin
            let src_ok = sb = -1 || sb = Edge.src e in
            let dst_ok = db = -1 || db = Edge.dst e in
            let loop_ok =
              qe.Query.src_var <> qe.Query.dst_var || Edge.src e = Edge.dst e
            in
            if src_ok && dst_ok && loop_ok then
              match Temporal.Interval.intersect life (Edge.ivl e) with
              | None -> ()
              | Some life'
                when Temporal.Interval.length life' < min_duration ->
                  ()
              | Some life' ->
                  tick_intermediate ();
                  let saved_s = bindings.(qe.Query.src_var) in
                  let saved_d = bindings.(qe.Query.dst_var) in
                  bindings.(qe.Query.src_var) <- Edge.src e;
                  bindings.(qe.Query.dst_var) <- Edge.dst e;
                  assignment.(j) <- Edge.id e;
                  extend order (pos + 1) life';
                  assignment.(j) <- -1;
                  bindings.(qe.Query.src_var) <- saved_s;
                  bindings.(qe.Query.dst_var) <- saved_d
          end)
        candidates
    end
  in
  let any_open () =
    let rec go i = i < k && (cur.(i) < stop.(i) || go (i + 1)) in
    go 0
  in
  let item_at i = Temporal.Relation.get (Temporal.Sti.relation stis.(i)) cur.(i) in
  let next_scanner () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if cur.(i) < stop.(i) then
        if
          !best < 0
          || Temporal.Span_item.compare_by_start (item_at i) (item_at !best) < 0
        then best := i
    done;
    !best
  in
  while any_open () do
    let i = next_scanner () in
    let e = Sti_index.edge_of_item idx (item_at i) in
    tick_scanned ();
    if Temporal.Interval.overlaps_window (Edge.ivl e) ~ws ~we then begin
      let t = Edge.ts e in
      arrival_time := t;
      Array.iter
        (fun a -> ignore (Temporal.Vec.remove_prefix (fun e -> Edge.te e < t) a))
        active;
      (* seed the join with the arrived edge in slot i *)
      let qe = Query.edge q i in
      if
        (qe.Query.src_var <> qe.Query.dst_var || Edge.src e = Edge.dst e)
        && Temporal.Interval.length (Edge.ivl e) >= min_duration
      then begin
        bindings.(qe.Query.src_var) <- Edge.src e;
        bindings.(qe.Query.dst_var) <- Edge.dst e;
        assignment.(i) <- Edge.id e;
        extend orders.(i) 0 (Edge.ivl e);
        assignment.(i) <- -1;
        bindings.(qe.Query.src_var) <- -1;
        bindings.(qe.Query.dst_var) <- -1
      end;
      (* insert into the active structures, keeping end-time order for
         prefix expiry *)
      let cmp_end a b =
        let c = Int.compare (Edge.te a) (Edge.te b) in
        if c <> 0 then c else Edge.compare_by_start a b
      in
      Temporal.Vec.insert_sorted ~cmp:cmp_end active.(i) e;
      hash_add hash_src.(i) (Edge.src e) e;
      hash_add hash_dst.(i) (Edge.dst e) e
    end;
    cur.(i) <- cur.(i) + 1
  done
