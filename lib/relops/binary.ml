open Semantics
module Adjacency = Triejoin.Adjacency
module Slice = Triejoin.Slice

let label_count adj lbl = Slice.length (Adjacency.label_edges adj ~lbl)

let join_order adj q =
  let n = Query.n_edges q in
  let chosen = Array.make n false in
  let bound = Array.make (Query.n_vars q) false in
  let connectivity (e : Query.edge) =
    (if bound.(e.Query.src_var) then 1 else 0)
    + if bound.(e.Query.dst_var) then 1 else 0
  in
  let pick () =
    let best = ref (-1) and best_key = ref (0, 0) in
    for i = 0 to n - 1 do
      if not chosen.(i) then begin
        let e = Query.edge q i in
        (* maximize connectivity, then minimize label frequency *)
        let key = (connectivity e, -label_count adj e.Query.lbl) in
        if !best < 0 || key > !best_key then begin
          best := i;
          best_key := key
        end
      end
    done;
    !best
  in
  let order = ref [] in
  for _ = 1 to n do
    let i = pick () in
    let e = Query.edge q i in
    chosen.(i) <- true;
    bound.(e.Query.src_var) <- true;
    bound.(e.Query.dst_var) <- true;
    order := i :: !order
  done;
  List.rev !order

let run ?stats adj q ~emit =
  let ws = Query.ws q and we = Query.we q in
  let min_len = Query.min_duration q in
  let tick_intermediate () =
    match stats with Some s -> Run_stats.tick_intermediate s | None -> ()
  in
  let tick_scanned () =
    match stats with Some s -> Run_stats.tick_scanned s | None -> ()
  in
  let tick_result () =
    match stats with Some s -> Run_stats.tick_result s | None -> ()
  in
  match join_order adj q with
  | [] -> ()
  | first :: rest ->
      let scan =
        let qe = Query.edge q first in
        let slice = Adjacency.label_edges adj ~lbl:qe.Query.lbl in
        let seq = Seq.init (Slice.length slice) (Slice.get slice) in
        Volcano.source
          (Seq.filter_map
             (fun e ->
               tick_scanned ();
               match Tuple.extend q (Tuple.initial q) ~edge_idx:first e with
               | None -> None
               | Some t -> (
                   tick_intermediate () (* scan output *);
                   match Tuple.select_temporal ~min_len t ~ws ~we ~edge:e with
                   | Some t ->
                       tick_intermediate () (* selection output *);
                       Some t
                   | None -> None))
             seq)
      in
      let add_join upstream (edge_idx, final) =
        let qe = Query.edge q edge_idx in
        Volcano.flat_map
          (fun tup ->
            let sb = tup.Tuple.binds.(qe.Query.src_var) in
            let db = tup.Tuple.binds.(qe.Query.dst_var) in
            let candidates =
              if sb >= 0 && db >= 0 then
                Adjacency.edges_between adj ~lbl:qe.Query.lbl ~src:sb ~dst:db
              else if sb >= 0 then Adjacency.out_edges adj ~lbl:qe.Query.lbl ~src:sb
              else if db >= 0 then Adjacency.in_edges adj ~lbl:qe.Query.lbl ~dst:db
              else Adjacency.label_edges adj ~lbl:qe.Query.lbl
            in
            Slice.fold
              (fun acc e ->
                tick_scanned ();
                match Tuple.extend q tup ~edge_idx e with
                | None -> acc
                | Some t -> (
                    tick_intermediate () (* join output *);
                    match Tuple.select_temporal ~min_len t ~ws ~we ~edge:e with
                    | None -> acc
                    | Some t ->
                        if not final then tick_intermediate ()
                        (* selection output *);
                        t :: acc))
              [] candidates
            |> List.rev)
          upstream
      in
      let rec build upstream = function
        | [] -> upstream
        | [ last ] -> add_join upstream (last, true)
        | i :: more -> build (add_join upstream (i, false)) more
      in
      let root = if rest = [] then scan else build scan rest in
      Volcano.consume root (fun tup ->
          tick_result ();
          emit (Tuple.to_match tup))
