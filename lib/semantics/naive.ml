exception Done

let evaluate ?(limit = max_int) g q =
  let open Tgraph in
  let n = Query.n_edges q in
  let ws = Query.ws q and we = Query.we q in
  let min_duration = Query.min_duration q in
  (* Candidates per label (and under the wildcard key): edges
     overlapping the query window. *)
  let candidates = Hashtbl.create 8 in
  Graph.iter_edges
    (fun e ->
      if Temporal.Interval.overlaps_window (Edge.ivl e) ~ws ~we then begin
        let add key =
          let cur = try Hashtbl.find candidates key with Not_found -> [] in
          Hashtbl.replace candidates key (e :: cur)
        in
        add (Edge.lbl e);
        add Query.any_label
      end)
    g;
  let bindings = Array.make (Query.n_vars q) (-1) in
  let chosen = Array.make n (-1) in
  let results = ref [] in
  let count = ref 0 in
  let rec step i life =
    if i = n then begin
      results := Match_result.make (Array.copy chosen) life :: !results;
      incr count;
      if !count >= limit then raise Done
    end
    else begin
      let qe = Query.edge q i in
      let cands =
        try Hashtbl.find candidates qe.Query.lbl with Not_found -> []
      in
      List.iter
        (fun e ->
          let src_ok =
            bindings.(qe.Query.src_var) = -1
            || bindings.(qe.Query.src_var) = Edge.src e
          in
          let dst_ok =
            bindings.(qe.Query.dst_var) = -1
            || bindings.(qe.Query.dst_var) = Edge.dst e
          in
          let loop_ok =
            qe.Query.src_var <> qe.Query.dst_var || Edge.src e = Edge.dst e
          in
          if src_ok && dst_ok && loop_ok then
            match Temporal.Interval.intersect life (Edge.ivl e) with
            | None -> ()
            | Some life' when Temporal.Interval.length life' < min_duration ->
                (* lifespans only shrink: no durable completion exists *)
                ()
            | Some life' ->
                let saved_src = bindings.(qe.Query.src_var) in
                let saved_dst = bindings.(qe.Query.dst_var) in
                bindings.(qe.Query.src_var) <- Edge.src e;
                bindings.(qe.Query.dst_var) <- Edge.dst e;
                chosen.(i) <- Edge.id e;
                step (i + 1) life';
                bindings.(qe.Query.src_var) <- saved_src;
                bindings.(qe.Query.dst_var) <- saved_dst;
                chosen.(i) <- -1)
        cands
    end
  in
  (try step 0 (Temporal.Interval.make min_int max_int) with Done -> ());
  !results

let count ?limit g q = List.length (evaluate ?limit g q)

(* ---- extended reference semantics ---- *)

(* The extended oracle enumerates timestamps literally: for every tick of
   a core match's lifespan it rescans the whole edge table per clause and
   asks "is some matching edge alive right now?". Deliberately written
   without Temporal.Ivlset so the interval arithmetic of the optimized
   path is tested against an independent formulation. *)

let clause_alive_at g b (c : Equery.clause) t =
  let open Tgraph in
  let alive = ref false in
  Graph.iter_edges
    (fun e ->
      if
        (not !alive)
        && (c.Equery.lbl = Query.any_label || Edge.lbl e = c.Equery.lbl)
        && (match c.Equery.src with
           | Equery.Any -> true
           | Equery.Var v -> b.(v) = Edge.src e)
        && (match c.Equery.dst with
           | Equery.Any -> true
           | Equery.Var v -> b.(v) = Edge.dst e)
        && Temporal.Interval.contains (Edge.ivl e) t
      then alive := true)
    g;
  !alive

let pieces_of g eq m =
  let q = Equery.core eq in
  if not (Equery.allen_ok g (Equery.allen eq) m) then []
  else begin
    let b = Equery.bindings_of g q m in
    let keep t =
      List.for_all (fun c -> clause_alive_at g b c t) (Equery.semi eq)
      && not (List.exists (fun c -> clause_alive_at g b c t) (Equery.anti eq))
    in
    let life = m.Match_result.life in
    let lo = Temporal.Interval.ts life and hi = Temporal.Interval.te life in
    let d = Query.min_duration q in
    let ws = Query.ws q and we = Query.we q in
    let out = ref [] in
    let run_start = ref None in
    let flush last =
      match !run_start with
      | None -> ()
      | Some s ->
          run_start := None;
          let ivl = Temporal.Interval.make s last in
          if
            Temporal.Interval.length ivl >= d
            && Temporal.Interval.overlaps_window ivl ~ws ~we
          then out := Match_result.make m.Match_result.edges ivl :: !out
    in
    for t = lo to hi do
      if keep t then begin
        if !run_start = None then run_start := Some t
      end
      else flush (t - 1)
    done;
    flush hi;
    List.rev !out
  end

let evaluate_ext g eq =
  let core_results = evaluate g (Equery.core eq) in
  let results =
    if Equery.has_decorations eq then
      List.concat_map (pieces_of g eq) core_results
    else core_results
  in
  Equery.select eq results
