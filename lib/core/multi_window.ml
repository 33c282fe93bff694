open Semantics

let evaluate ?stats ?config tai q ~windows =
  if windows = [] then invalid_arg "Multi_window.evaluate: no windows";
  let hull =
    List.fold_left Temporal.Interval.span (List.hd windows) windows
  in
  let windows = Array.of_list windows in
  let out = Array.map (fun _ -> ref []) windows in
  let hull_query = Query.with_window q hull in
  Tsrjoin.run ?stats ?config tai hull_query ~emit:(fun m ->
      Array.iteri
        (fun i w ->
          if Temporal.Interval.overlaps m.Match_result.life w then
            out.(i) := m :: !(out.(i)))
        windows);
  Array.map (fun cell -> List.rev !cell) out

let sliding ?stats ?config tai q ~width ~stride ~over =
  if width <= 0 || stride <= 0 then
    invalid_arg "Multi_window.sliding: width and stride must be positive";
  let ws0 = Temporal.Interval.ts over and we0 = Temporal.Interval.te over in
  let rec mk acc ws =
    if ws > we0 then List.rev acc
    else
      mk (Temporal.Interval.make ws (min we0 (ws + width - 1)) :: acc)
        (ws + stride)
  in
  let windows = mk [] ws0 in
  match windows with
  | [] -> []
  | _ ->
      let results = evaluate ?stats ?config tai q ~windows in
      List.mapi (fun i w -> (w, results.(i))) windows
