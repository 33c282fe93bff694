open Semantics
module Plan = Tcsq_core.Plan

type candidate = {
  name : string;
  plan : Plan.t;
  est : Selectivity.t;
  chosen : bool;
  plan_diags : Diagnostic.t list;
}

type t = {
  query : Query.t;
  bound : Bound.result;
  query_diags : Diagnostic.t list;
  candidates : candidate list;
}

let dominance_factor = 4.0

let analyze ?pivot_order target q =
  let env = Lint.env target in
  let tai = Lint.tai target and cost = Lint.cost target in
  let bound = Bound.analyze ~env q in
  let query_diags = Query_check.check ~env q @ bound.Bound.diagnostics in
  let window =
    match bound.Bound.effective with
    | Some w -> w
    | None -> Query.window q
  in
  let raw =
    [
      ("cost-model", Plan.build ~cost tai q);
      ("adaptive", Plan.build_adaptive ~cost tai q);
    ]
    @
    match pivot_order with
    | None -> []
    | Some order -> [ ("pivot-order", Plan.of_pivot_order_unchecked q order) ]
  in
  let scored =
    List.map
      (fun (name, plan) ->
        (name, plan, Selectivity.estimate ~window ~cost tai plan,
         Plan_check.check plan))
      raw
  in
  (* dominance is judged among structurally valid candidates only *)
  let cost_of (_, _, est, ds) =
    if Diagnostic.has_errors ds then infinity
    else est.Selectivity.estimated_intermediate
  in
  let best =
    List.fold_left (fun acc c -> Float.min acc (cost_of c)) infinity scored
  in
  let candidates =
    List.map
      (fun ((name, plan, est, ds) as c) ->
        let my_cost = cost_of c in
        let dominated =
          if
            Float.is_finite my_cost
            && Float.is_finite best
            && my_cost > best *. dominance_factor
            && my_cost > best +. 1.0
          then
            [
              Diagnostic.make ~code:"P008" ~severity:Warning ~location:Planloc
                "plan %s is dominated: estimated %.3g intermediate tuples \
                 vs %.3g for the best candidate (x%.1f)"
                name my_cost best
                (my_cost /. Float.max best 1e-9);
            ]
          else []
        in
        { name; plan; est; chosen = name = "cost-model";
          plan_diags = ds @ dominated })
      scored
  in
  { query = q; bound; query_diags; candidates }

let label_string ~label_names lbl =
  if lbl = Query.any_label then "*"
  else if lbl >= 0 && lbl < Array.length label_names then label_names.(lbl)
  else string_of_int lbl

let best_name t =
  let valid =
    List.filter
      (fun c -> not (Diagnostic.has_errors c.plan_diags))
      t.candidates
  in
  match valid with
  | [] -> None
  | c :: rest ->
      Some
        (List.fold_left
           (fun acc c ->
             if
               c.est.Selectivity.estimated_intermediate
               < acc.est.Selectivity.estimated_intermediate
             then c
             else acc)
           c rest)
          .name

let pp ~label_names fmt t =
  let q = t.query in
  Format.fprintf fmt "@[<v>%a@," Query.pp q;
  (match t.bound.Bound.effective with
  | Some w when not (Temporal.Interval.equal w (Query.window q)) ->
      Format.fprintf fmt "effective window %s (tightened from %s)@,"
        (Temporal.Interval.to_string w)
        (Temporal.Interval.to_string (Query.window q))
  | Some _ ->
      Format.fprintf fmt "effective window %s@,"
        (Temporal.Interval.to_string (Query.window q))
  | None ->
      Format.fprintf fmt "effective window: none (provably empty)@,");
  (match t.query_diags with
  | [] -> Format.fprintf fmt "diagnostics: none@,"
  | ds ->
      Format.fprintf fmt "diagnostics:@,";
      List.iter (fun d -> Format.fprintf fmt "  %a@," Diagnostic.pp d) ds);
  Format.fprintf fmt "edges:@,";
  List.iter
    (fun (ee : Selectivity.edge_estimate) ->
      let e = ee.Selectivity.edge in
      Format.fprintf fmt
        "  e%d %s(x%d,x%d): %.0f labelled edges, %.3g alive in window \
         (fraction %.3g)@,"
        e.Query.idx
        (label_string ~label_names e.Query.lbl)
        e.Query.src_var e.Query.dst_var ee.Selectivity.count
        ee.Selectivity.expected_active ee.Selectivity.window_fraction)
    (match t.candidates with
    | c :: _ -> Array.to_list c.est.Selectivity.edges
    | [] -> []);
  List.iter
    (fun c ->
      Format.fprintf fmt "plan %s%s:@," c.name
        (if c.chosen then " (chosen)" else "");
      Array.iter
        (fun (se : Selectivity.step_estimate) ->
          let st = (Plan.steps c.plan).(se.Selectivity.step_index) in
          let edges =
            String.concat "; "
              (Array.to_list
                 (Array.map
                    (fun (e : Query.edge) ->
                      Printf.sprintf "e%d:%s(x%d,x%d)" e.Query.idx
                        (label_string ~label_names e.Query.lbl)
                        e.Query.src_var e.Query.dst_var)
                    st.Plan.edges))
          in
          match se.Selectivity.candidates with
          | Some cands ->
              Format.fprintf fmt
                "  %d: pivot x%d (leapfrog, %d candidates) matches [%s] \
                 fanout=%.3g cumulative=%.3g@,"
                se.Selectivity.step_index se.Selectivity.pivot cands edges
                se.Selectivity.fanout se.Selectivity.cumulative
          | None ->
              Format.fprintf fmt
                "  %d: pivot x%d matches [%s] fanout=%.3g cumulative=%.3g@,"
                se.Selectivity.step_index se.Selectivity.pivot edges
                se.Selectivity.fanout se.Selectivity.cumulative)
        c.est.Selectivity.steps;
      Format.fprintf fmt
        "  estimated results %.3g, intermediate tuples %.3g@,"
        c.est.Selectivity.estimated_results
        c.est.Selectivity.estimated_intermediate;
      List.iter (fun d -> Format.fprintf fmt "  %a@," Diagnostic.pp d)
        c.plan_diags)
    t.candidates;
  (match best_name t with
  | Some name ->
      Format.fprintf fmt
        "ranking: %s has the lowest estimated intermediate total%s" name
        (if name = "cost-model" then " — the planner's choice stands"
         else " — the executed cost-model plan is outranked")
  | None -> Format.fprintf fmt "ranking: no structurally valid candidate");
  Format.fprintf fmt "@]"

(* ---- EXPLAIN ANALYZE: per-level estimated vs measured ---- *)

let misestimation_threshold = 16.0

let misestimation_factor est actual =
  let e = Float.max est 1.0 and a = Float.max actual 1.0 in
  Float.max e a /. Float.min e a

type level_row = {
  level : int;
  pivot : int;
  est_cumulative : float;
  actual : int;
  factor : float;  (* symmetric: >= 1, direction read off est vs actual *)
}

type replan = {
  pivots : int list;  (* calibrated plan's pivot order *)
  changed : bool;  (* differs from the executed plan's order *)
}

type analyzed = {
  executed : string;  (* candidate name that ran *)
  rows : level_row list;
  exec_stats : Run_stats.t;
  analyze_diags : Diagnostic.t list;  (* P009 + P010 *)
  replan : replan option;  (* calibrated re-plan, when P009 fired *)
}

(* Execute the chosen candidate's plan — the same plan the static table
   above estimated, over the same effective window — and line the
   measured per-level intermediate counters up against the estimates.
   [None] when propagation proved the window empty: there is nothing to
   execute and nothing to learn. *)
let run_analyze target t =
  match t.bound.Bound.effective with
  | None -> None
  | Some w -> (
      match List.find_opt (fun c -> c.chosen) t.candidates with
      | None -> None
      | Some chosen ->
          let q = Query.with_window t.query w in
          let stats = Run_stats.create () in
          Tcsq_core.Tsrjoin.run ~stats ~plan:chosen.plan (Lint.tai target) q
            ~emit:(fun _ -> ());
          let actuals = Run_stats.levels stats in
          let actual_at i =
            if i < Array.length actuals then actuals.(i) else 0
          in
          let rows =
            Array.to_list
              (Array.map
                 (fun (se : Selectivity.step_estimate) ->
                   let level = se.Selectivity.step_index in
                   let actual = actual_at level in
                   {
                     level;
                     pivot = se.Selectivity.pivot;
                     est_cumulative = se.Selectivity.cumulative;
                     actual;
                     factor = misestimation_factor se.Selectivity.cumulative
                         (float_of_int actual);
                   })
                 chosen.est.Selectivity.steps)
          in
          let p009 =
            List.filter_map
              (fun r ->
                if r.factor > misestimation_threshold then
                  Some
                    (Diagnostic.make ~code:"P009" ~severity:Warning
                       ~location:(Step r.level)
                       "cost model off by x%.1f at level %d: estimated %.3g \
                        intermediate tuples, measured %d"
                       r.factor r.level r.est_cumulative r.actual)
                else None)
              rows
          in
          (* any P009 triggers a calibrated re-plan: the measured levels
             become per-edge correction factors and the planner runs
             again — exactly what the server's plan cache does after
             repeated misestimation, shown here without a server *)
          let replan =
            if p009 = [] then None
            else
              let est_levels =
                Array.map
                  (fun (se : Selectivity.step_estimate) ->
                    int_of_float (Float.round se.Selectivity.cumulative))
                  chosen.est.Selectivity.steps
              in
              let edge_scale =
                Plan.calibration chosen.plan ~est_levels ~levels:actuals
              in
              let plan' =
                Plan.build ~cost:(Lint.cost target) ~edge_scale
                  (Lint.tai target) q
              in
              let pivots p =
                Array.to_list
                  (Array.map (fun s -> s.Plan.pivot) (Plan.steps p))
              in
              let old_order = pivots chosen.plan in
              let new_order = pivots plan' in
              Some { pivots = new_order; changed = new_order <> old_order }
          in
          let p010 =
            match replan with
            | None -> []
            | Some r ->
                [
                  Diagnostic.make ~code:"P010" ~severity:Hint
                    ~location:Planloc
                    "re-planned from feedback: calibrated pivot order [%s] \
                     %s the executed order"
                    (String.concat "; "
                       (List.map (fun v -> "x" ^ string_of_int v) r.pivots))
                    (if r.changed then "replaces" else "confirms");
                ]
          in
          Some { executed = chosen.name; rows; exec_stats = stats;
                 analyze_diags = p009 @ p010; replan })

let pp_analyzed fmt a =
  Format.fprintf fmt "@[<v>analyze (%s plan executed):@," a.executed;
  Format.fprintf fmt "  level  pivot  estimated     actual  factor@,";
  List.iter
    (fun r ->
      let direction =
        if r.actual > int_of_float (Float.round r.est_cumulative) then "under"
        else if int_of_float (Float.round r.est_cumulative) > r.actual then
          "over"
        else "exact"
      in
      Format.fprintf fmt "  %-5d  x%-4d  %-12.4g  %-6d  x%.1f %s@," r.level
        r.pivot r.est_cumulative r.actual r.factor direction)
    a.rows;
  let est_total =
    List.fold_left (fun acc r -> acc +. r.est_cumulative) 0.0 a.rows
  in
  Format.fprintf fmt
    "  totals: estimated %.4g intermediate, measured %d; results %d@,"
    est_total a.exec_stats.Run_stats.intermediate
    a.exec_stats.Run_stats.results;
  (match a.analyze_diags with
  | [] -> Format.fprintf fmt "  misestimation: all levels within x%.0f"
            misestimation_threshold
  | ds ->
      Format.fprintf fmt "  misestimation:@,";
      List.iteri
        (fun i d ->
          if i > 0 then Format.fprintf fmt "@,";
          Format.fprintf fmt "    %a" Diagnostic.pp d)
        ds);
  (match a.replan with
  | None -> ()
  | Some r ->
      Format.fprintf fmt "@,  re-plan: calibrated pivot order [%s] (%s)"
        (String.concat "; "
           (List.map (fun v -> "x" ^ string_of_int v) r.pivots))
        (if r.changed then "order changed" else "order unchanged"));
  Format.fprintf fmt "@]"

module J = Obs.Json

let g6 f = J.Sig (6, f)

let analyzed_to_json a =
  let s = a.exec_stats in
  J.Obj
    [
      ("executed", J.String a.executed);
      ( "levels",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("level", J.Int r.level);
                   ("pivot", J.Int r.pivot);
                   ("estimated", g6 r.est_cumulative);
                   ("actual", J.Int r.actual);
                   ("factor", g6 r.factor);
                 ])
             a.rows) );
      ( "stats",
        J.Obj
          [
            ("results", J.Int s.Run_stats.results);
            ("intermediate", J.Int s.Run_stats.intermediate);
            ("scanned", J.Int s.Run_stats.scanned);
            ("bindings", J.Int s.Run_stats.bindings);
            ("seeks", J.Int s.Run_stats.seeks);
          ] );
      ("diagnostics", Diagnostic.list_to_json a.analyze_diags);
      ( "replan",
        match a.replan with
        | None -> J.Null
        | Some r ->
            J.Obj
              [
                ("pivots", J.List (List.map (fun v -> J.Int v) r.pivots));
                ("changed", J.Bool r.changed);
              ] );
    ]

let est_to_json (est : Selectivity.t) =
  J.Obj
    [
      ( "window",
        J.Obj
          [ ("ws", J.Int est.Selectivity.ws); ("we", J.Int est.Selectivity.we) ]
      );
      ("estimated_results", g6 est.Selectivity.estimated_results);
      ("estimated_intermediate", g6 est.Selectivity.estimated_intermediate);
      ( "steps",
        J.List
          (Array.to_list
             (Array.map
                (fun (se : Selectivity.step_estimate) ->
                  J.Obj
                    ([
                       ("index", J.Int se.Selectivity.step_index);
                       ("pivot", J.Int se.Selectivity.pivot);
                       ("root", J.Bool se.Selectivity.root);
                       ("n_edges", J.Int se.Selectivity.n_edges);
                     ]
                    @ (match se.Selectivity.candidates with
                      | Some c -> [ ("candidates", J.Int c) ]
                      | None -> [])
                    @ [
                        ("fanout", g6 se.Selectivity.fanout);
                        ("cumulative", g6 se.Selectivity.cumulative);
                      ]))
                est.Selectivity.steps)) );
    ]

let to_json ?analyzed ~label_names t =
  let q = t.query in
  let interval_json w =
    J.Obj
      [
        ("ws", J.Int (Temporal.Interval.ts w));
        ("we", J.Int (Temporal.Interval.te w));
      ]
  in
  J.Obj
    [
      ("schema", J.String "tcsq-explain/v1");
      ("query", J.String (Format.asprintf "%a" Query.pp q));
      ("window", interval_json (Query.window q));
      ( "effective_window",
        match t.bound.Bound.effective with
        | Some w -> interval_json w
        | None -> J.Null );
      ("unsat", J.Bool t.bound.Bound.unsat);
      ("diagnostics", Diagnostic.list_to_json t.query_diags);
      ( "edges",
        J.List
          (match t.candidates with
          | [] -> []
          | c :: _ ->
              Array.to_list
                (Array.map
                   (fun (ee : Selectivity.edge_estimate) ->
                     let e = ee.Selectivity.edge in
                     J.Obj
                       [
                         ("edge", J.Int e.Query.idx);
                         ( "label",
                           J.String (label_string ~label_names e.Query.lbl) );
                         ("count", g6 ee.Selectivity.count);
                         ("window_fraction", g6 ee.Selectivity.window_fraction);
                         ("expected_active", g6 ee.Selectivity.expected_active);
                       ])
                   c.est.Selectivity.edges)) );
      ( "plans",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.String c.name);
                   ("chosen", J.Bool c.chosen);
                   ("estimate", est_to_json c.est);
                   ("diagnostics", Diagnostic.list_to_json c.plan_diags);
                 ])
             t.candidates) );
      ( "analyze",
        match analyzed with
        | None -> J.Null
        | Some a -> analyzed_to_json a );
    ]
