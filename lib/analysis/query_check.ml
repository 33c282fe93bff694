open Semantics

type env = {
  n_labels : int;
  label_names : string array;
  label_counts : int array;
  span : Temporal.Interval.t option;
  max_edge_len : int;
  label_spans : Temporal.Interval.t option array;
  label_max_len : int array;
}

let env_of_graph g =
  let n_labels = Tgraph.Graph.n_labels g in
  let label_max_len = Array.init n_labels (Tgraph.Graph.label_max_len g) in
  {
    n_labels;
    label_names = Tgraph.Label.names (Tgraph.Graph.labels g);
    label_counts = Array.init n_labels (Tgraph.Graph.label_count g);
    span =
      (if Tgraph.Graph.n_edges g = 0 then None
       else Some (Tgraph.Graph.time_domain g));
    max_edge_len = Array.fold_left Int.max 0 label_max_len;
    label_spans = Array.init n_labels (Tgraph.Graph.label_span g);
    label_max_len;
  }

let check_raw_window ~ws ~we =
  if we < ws then
    [
      Diagnostic.make ~code:"Q001" ~severity:Error ~location:Window
        "window [%d, %d] is inverted: end %d is before start %d" ws we we ws;
    ]
  else []

(* ---- structural checks (query only) ---- *)

let edge_signature (e : Query.edge) = (e.lbl, e.src_var, e.dst_var)

let orphan_vars q =
  let out = ref [] in
  for v = Query.n_vars q - 1 downto 0 do
    if Query.adjacent q v = [] then
      out :=
        Diagnostic.make ~code:"Q004" ~severity:Warning ~location:(Var v)
          "variable x%d is not used by any query edge and never binds" v
        :: !out
  done;
  !out

let duplicate_edges q =
  let edges = Query.edges q in
  let out = ref [] in
  Array.iteri
    (fun j e ->
      (* report each duplicate against its first occurrence *)
      let rec first i =
        if i >= j then None
        else if edge_signature edges.(i) = edge_signature e then Some i
        else first (i + 1)
      in
      match first 0 with
      | Some i ->
          out :=
            Diagnostic.make ~code:"Q005" ~severity:Warning ~location:(Edge j)
              "query edge %d duplicates edge %d (same label and endpoints \
               x%d->x%d); under homomorphism semantics both can bind the \
               same graph edge"
              j i e.src_var e.dst_var
            :: !out
      | None -> ())
    edges;
  List.rev !out

let components q =
  (* connected components over the variables that carry edges *)
  let n = Query.n_vars q in
  let comp = Array.make n (-1) in
  let n_comps = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) = -1 && Query.adjacent q v <> [] then begin
      let id = !n_comps in
      incr n_comps;
      let rec visit v =
        if comp.(v) = -1 then begin
          comp.(v) <- id;
          List.iter
            (fun e -> visit (Query.other_endpoint e v))
            (Query.adjacent q v)
        end
      in
      visit v
    end
  done;
  !n_comps

let disconnected q =
  let n = components q in
  if n > 1 then
    [
      Diagnostic.make ~code:"Q006" ~severity:Warning ~location:Queryloc
        "pattern has %d connected components; the result is their cartesian \
         product"
        n;
    ]
  else []

let self_loops q =
  Array.to_list (Query.edges q)
  |> List.filter_map (fun (e : Query.edge) ->
         if e.src_var = e.dst_var then
           Some
             (Diagnostic.make ~code:"Q007" ~severity:Hint
                ~location:(Edge e.idx)
                "query edge %d is a self loop on x%d; it matches only \
                 self-loop graph edges"
                e.idx e.src_var)
         else None)

(* ---- graph-dependent checks ---- *)

let label_checks env q =
  Array.to_list (Query.edges q)
  |> List.filter_map (fun (e : Query.edge) ->
         if e.lbl = Query.any_label then None
         else if e.lbl >= env.n_labels then
           Some
             (Diagnostic.make ~proves_empty:true ~code:"Q003" ~severity:Error
                ~location:(Edge e.idx)
                "query edge %d uses label %d, outside the graph's vocabulary \
                 of %d labels"
                e.idx e.lbl env.n_labels)
         else if env.label_counts.(e.lbl) = 0 then
           Some
             (Diagnostic.make ~proves_empty:true ~code:"Q008"
                ~severity:Warning ~location:(Edge e.idx)
                "query edge %d requires label %S, which no graph edge \
                 carries"
                e.idx env.label_names.(e.lbl))
         else None)

let window_checks env q =
  match env.span with
  | None ->
      [
        Diagnostic.make ~proves_empty:true ~code:"Q009" ~severity:Warning
          ~location:Queryloc "the graph has no edges; no query can match";
      ]
  | Some span ->
      let w = Query.window q in
      let disjoint =
        if not (Temporal.Interval.overlaps span w) then
          [
            Diagnostic.make ~proves_empty:true ~code:"Q002" ~severity:Warning
              ~location:Window
              "query window %s is disjoint from the graph's time span %s: \
               provably zero matches"
              (Temporal.Interval.to_string w)
              (Temporal.Interval.to_string span);
          ]
        else []
      in
      let durability =
        if Query.min_duration q > env.max_edge_len then
          [
            Diagnostic.make ~proves_empty:true ~code:"Q010" ~severity:Warning
              ~location:Queryloc
              "LASTING %d exceeds the longest edge interval (%d ticks); no \
               match can be that durable"
              (Query.min_duration q) env.max_edge_len;
          ]
        else []
      in
      disjoint @ durability

let check ?env q =
  let structural =
    check_raw_window ~ws:(Query.ws q) ~we:(Query.we q)
    @ orphan_vars q @ duplicate_edges q @ disconnected q @ self_loops q
  in
  let with_env =
    match env with
    | None -> []
    | Some env -> window_checks env q @ label_checks env q
  in
  List.sort
    (fun (a : Diagnostic.t) (b : Diagnostic.t) -> compare a.code b.code)
    (structural @ with_env)
