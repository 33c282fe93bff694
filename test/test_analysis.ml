(* The static analyzer: table-driven diagnostics cases per code,
   hand-corrupted plans per plan code, planner conformance, the engine's
   checked execution path, and property tests tying analyzer verdicts to
   ground truth (clean queries run, provably-empty queries have zero
   naive matches). *)

open Semantics
open Analysis

let window a b = Temporal.Interval.make a b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* labels l0, l1 with edges; span [0, 20] *)
let small_graph () =
  Tgraph.Graph.of_edge_list
    [ (0, 1, 0, 0, 10); (1, 2, 1, 5, 15); (2, 0, 0, 10, 20) ]

let q ?(n_vars = 3) ?(w = window 0 20) edges = Query.make ~n_vars ~edges ~window:w

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let find code ds =
  match List.find_opt (fun d -> d.Diagnostic.code = code) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "expected diagnostic %s, got [%s]" code
        (String.concat "; " (codes ds))

let check_with g query = Query_check.check ~env:(Query_check.env_of_graph g) query

(* ---------- query diagnostics, one case per code ---------- *)

let test_q001_inverted_window () =
  let ds = Query_check.check_raw_window ~ws:10 ~we:5 in
  let d = find "Q001" ds in
  Alcotest.check Alcotest.bool "error" true (d.Diagnostic.severity = Error);
  Alcotest.check Alcotest.bool "at window" true (d.Diagnostic.location = Window);
  Alcotest.(check (list string))
    "clean when ordered" []
    (codes (Query_check.check_raw_window ~ws:5 ~we:10))

let test_q002_disjoint_window () =
  let g = small_graph () in
  let query = q ~w:(window 100 200) [ (0, 0, 1); (1, 1, 2) ] in
  let d = find "Q002" (check_with g query) in
  Alcotest.check Alcotest.bool "warning" true (d.Diagnostic.severity = Warning);
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q003_unknown_label () =
  let g = small_graph () in
  let query = q [ (5, 0, 1) ] in
  let d = find "Q003" (check_with g query) in
  Alcotest.check Alcotest.bool "error" true (d.Diagnostic.severity = Error);
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.check Alcotest.bool "names the edge" true
    (d.Diagnostic.location = Edge 0);
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q004_orphan_variable () =
  let g = small_graph () in
  let query = q ~n_vars:4 [ (0, 0, 1); (1, 1, 2) ] in
  let d = find "Q004" (check_with g query) in
  Alcotest.check Alcotest.bool "names x3" true (d.Diagnostic.location = Var 3)

let test_q005_duplicate_edge () =
  let g = small_graph () in
  let query = q [ (0, 0, 1); (0, 0, 1) ] in
  let d = find "Q005" (check_with g query) in
  Alcotest.check Alcotest.bool "second edge blamed" true
    (d.Diagnostic.location = Edge 1)

let test_q006_disconnected () =
  let g = small_graph () in
  let query = q ~n_vars:4 [ (0, 0, 1); (1, 2, 3) ] in
  ignore (find "Q006" (check_with g query));
  (* connected pattern: no Q006 *)
  let connected = q [ (0, 0, 1); (1, 1, 2) ] in
  Alcotest.check Alcotest.bool "connected is clean" false
    (List.mem "Q006" (codes (check_with g connected)))

let test_q007_self_loop () =
  let g = small_graph () in
  let query = q [ (0, 0, 0) ] in
  let d = find "Q007" (check_with g query) in
  Alcotest.check Alcotest.bool "hint" true (d.Diagnostic.severity = Hint)

let test_q008_label_without_edges () =
  let labels = Tgraph.Label.of_names [| "a"; "b" |] in
  let g =
    Tgraph.Graph.of_edge_list ~labels [ (0, 1, 0, 0, 10); (1, 2, 0, 5, 15) ]
  in
  let query = q [ (1, 0, 1) ] in
  let d = find "Q008" (check_with g query) in
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q009_empty_graph () =
  let labels = Tgraph.Label.of_names [| "a" |] in
  let g = Tgraph.Graph.of_edge_list ~labels [] in
  let query = q [ (0, 0, 1) ] in
  let d = find "Q009" (check_with g query) in
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q010_undurable () =
  let g = small_graph () in
  (* longest edge interval is 11 ticks *)
  let query = Query.with_min_duration (q [ (0, 0, 1) ]) 50 in
  let d = find "Q010" (check_with g query) in
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query);
  let fine = Query.with_min_duration (q [ (0, 0, 1) ]) 3 in
  Alcotest.check Alcotest.bool "modest LASTING is clean" false
    (List.mem "Q010" (codes (check_with g fine)))

(* ---------- plan diagnostics, hand-corrupted plans ---------- *)

let chain_query () = q [ (0, 0, 1); (1, 1, 2) ]

let step pivot edges produce_binding =
  { Tcsq_core.Plan.pivot; edges = Array.of_list edges; produce_binding }

(* each corrupted plan must also be refused where plans are enforced:
   by [Plan.validate] and by the executor's guard *)
let plan_codes query steps =
  let plan = Tcsq_core.Plan.of_steps_unchecked query (Array.of_list steps) in
  (match Tcsq_core.Plan.validate plan with
  | Ok () -> Alcotest.fail "Plan.validate accepted a corrupted plan"
  | Error _ -> ());
  (match
     Tcsq_core.Tsrjoin.run ~plan (Tcsq_core.Tai.build (small_graph ())) query
       ~emit:(fun _ -> ())
   with
  | () -> Alcotest.fail "Tsrjoin.run executed a corrupted plan"
  | exception Invalid_argument _ -> ());
  codes (Plan_check.check plan)

let test_p001_empty_step () =
  let query = chain_query () in
  let cs =
    plan_codes query
      [ step 1 [ Query.edge query 0; Query.edge query 1 ] true; step 2 [] false ]
  in
  Alcotest.check Alcotest.bool "P001" true (List.mem "P001" cs)

let test_p002_unbound_pivot () =
  let query = chain_query () in
  let cs =
    plan_codes query
      [ step 0 [ Query.edge query 0 ] true; step 2 [ Query.edge query 1 ] false ]
  in
  Alcotest.check Alcotest.bool "P002" true (List.mem "P002" cs)

let test_p003_rebound_root () =
  let query = chain_query () in
  let cs =
    plan_codes query
      [ step 0 [ Query.edge query 0 ] true; step 1 [ Query.edge query 1 ] true ]
  in
  Alcotest.check Alcotest.bool "P003" true (List.mem "P003" cs)

let test_p004_unmatched_edge () =
  let query = chain_query () in
  let cs = plan_codes query [ step 0 [ Query.edge query 0 ] true ] in
  Alcotest.check Alcotest.bool "P004" true (List.mem "P004" cs)

let test_p005_rematched_edge () =
  let query = chain_query () in
  let cs =
    plan_codes query
      [
        step 1 [ Query.edge query 0; Query.edge query 1 ] true;
        step 1 [ Query.edge query 0 ] false;
      ]
  in
  Alcotest.check Alcotest.bool "P005" true (List.mem "P005" cs)

let test_p006_nonincident_edge () =
  let query = chain_query () in
  let cs =
    plan_codes query
      [ step 0 [ Query.edge query 0; Query.edge query 1 ] true ]
  in
  Alcotest.check Alcotest.bool "P006" true (List.mem "P006" cs)

let test_p007_edge_table_mismatch () =
  let query = chain_query () in
  let forged = { (Query.edge query 0) with Query.lbl = 9 } in
  let cs =
    plan_codes query
      [ step 0 [ forged ] true; step 1 [ Query.edge query 1 ] false ]
  in
  Alcotest.check Alcotest.bool "P007" true (List.mem "P007" cs)

(* ---------- bound propagation (Q011-Q014) ---------- *)

let bound_with g query = Bound.analyze ~env:(Query_check.env_of_graph g) query

let test_q011_q012_disjoint_labels () =
  (* label l0 only alive in [0, 5], label l1 only in [50, 60]: no
     instant can lie in a joint clique lifespan, so propagation empties
     both pattern edges even though each overlaps the window *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (1, 2, 1, 50, 60) ] in
  let query = q ~w:(window 0 100) [ (0, 0, 1); (1, 1, 2) ] in
  let r = bound_with g query in
  Alcotest.check Alcotest.bool "unsat" true r.Bound.unsat;
  Alcotest.check Alcotest.bool "no effective window" true
    (r.Bound.effective = None);
  let d11 = find "Q011" r.Bound.diagnostics in
  Alcotest.check Alcotest.bool "Q011 warning" true
    (d11.Diagnostic.severity = Warning);
  Alcotest.check Alcotest.bool "Q011 proves empty" true
    d11.Diagnostic.proves_empty;
  let d12 = find "Q012" r.Bound.diagnostics in
  Alcotest.check Alcotest.bool "Allen witness names the other span" true
    (contains ~sub:"span" d12.Diagnostic.message);
  Alcotest.check Alcotest.bool "never error severity" false
    (Diagnostic.has_errors r.Bound.diagnostics);
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q013_lasting_vs_label () =
  (* label l0 sustains 11 ticks, label l1 at most 3: LASTING 5 passes
     the graph-wide Q010 check but provably kills l1's edge *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 10); (1, 2, 1, 4, 6) ] in
  let query =
    Query.with_min_duration (q ~w:(window 0 20) [ (0, 0, 1); (1, 1, 2) ]) 5
  in
  Alcotest.check Alcotest.bool "no Q010" false
    (List.mem "Q010" (codes (check_with g query)));
  let r = bound_with g query in
  Alcotest.check Alcotest.bool "unsat" true r.Bound.unsat;
  let d = find "Q013" r.Bound.diagnostics in
  Alcotest.check Alcotest.bool "blames the short label's edge" true
    (d.Diagnostic.location = Edge 1);
  Alcotest.(check int) "naive agrees" 0 (Naive.count g query)

let test_q014_window_tightening () =
  (* label l0 is only alive in [40, 60]; the query window [0, 100] must
     tighten to exactly that span without changing the result set *)
  let g =
    Tgraph.Graph.of_edge_list
      [ (0, 1, 0, 40, 45); (1, 2, 0, 50, 60); (0, 1, 1, 0, 100) ]
  in
  let query = q ~w:(window 0 100) [ (0, 0, 1) ] in
  let r = bound_with g query in
  Alcotest.check Alcotest.bool "satisfiable" false r.Bound.unsat;
  (match r.Bound.effective with
  | Some w' ->
      Alcotest.check Alcotest.bool "effective [40, 60]" true
        (Temporal.Interval.equal w' (window 40 60))
  | None -> Alcotest.fail "no effective window");
  ignore (find "Q014" r.Bound.diagnostics);
  let env = Query_check.env_of_graph g in
  let q' = Bound.tighten ~env query in
  Alcotest.check Alcotest.bool "window replaced" true
    (Temporal.Interval.equal (Query.window q') (window 40 60));
  Alcotest.(check int) "tighten preserves results" (Naive.count g query)
    (Naive.count g q');
  (* already-tight windows are left alone, with no Q014 *)
  let tight = q ~w:(window 40 60) [ (0, 0, 1) ] in
  Alcotest.check Alcotest.bool "identity on a tight window" true
    (Temporal.Interval.equal
       (Query.window (Bound.tighten ~env tight))
       (window 40 60));
  Alcotest.check Alcotest.bool "no Q014 on a tight window" false
    (List.mem "Q014" (codes (bound_with g tight).Bound.diagnostics))

(* ---------- extended-operator diagnostics (Q015-Q017) ---------- *)

let test_q015_infeasible_allen () =
  (* label l0 only alive in [50, 60], label l1 only in [0, 5]: a0
     BEFORE a1 is already ruled out on the initial label-span boxes *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 50, 60); (1, 2, 1, 0, 5) ] in
  let query = q ~w:(window 0 100) [ (0, 0, 1); (1, 1, 2) ] in
  let env = Query_check.env_of_graph g in
  let allen = [ (0, Temporal.Allen.Before, 1) ] in
  let r = Bound.analyze ~allen ~env query in
  let d = find "Q015" r.Bound.diagnostics in
  Alcotest.check Alcotest.bool "warning" true (d.Diagnostic.severity = Warning);
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.check Alcotest.bool "names both labels" true
    (contains ~sub:"l0" d.Diagnostic.message
    && contains ~sub:"l1" d.Diagnostic.message);
  Alcotest.(check int) "naive agrees" 0
    (List.length (Naive.evaluate_ext g (Equery.make ~allen query)));
  (* the other direction is box-feasible and draws no Q015 *)
  let r' = Bound.analyze ~allen:[ (1, Temporal.Allen.Before, 0) ] ~env query in
  Alcotest.check Alcotest.bool "feasible direction clean" false
    (List.mem "Q015" (codes r'.Bound.diagnostics))

let test_q016_q017_clause_labels () =
  (* label b is in the vocabulary but has zero edges: an EXISTS witness
     on it proves the query empty, a NOT clause on it is a no-op *)
  let g =
    Tgraph.Graph.of_edge_list
      ~labels:(Tgraph.Label.of_names [| "a"; "b" |])
      [ (0, 1, 0, 0, 10); (1, 2, 0, 5, 15) ]
  in
  let env = Query_check.env_of_graph g in
  let query = q ~n_vars:2 ~w:(window 0 20) [ (0, 0, 1) ] in
  let ghost = { Equery.lbl = 1; src = Equery.Var 0; dst = Equery.Any } in
  let semi_q = Equery.make ~semi:[ ghost ] query in
  let d = find "Q016" (Ext_check.check ~env semi_q) in
  Alcotest.check Alcotest.bool "warning" true (d.Diagnostic.severity = Warning);
  Alcotest.check Alcotest.bool "proves empty" true d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees: no witness, no match" 0
    (List.length (Naive.evaluate_ext g semi_q));
  let anti_q = Equery.make ~anti:[ ghost ] query in
  let d = find "Q017" (Ext_check.check ~env anti_q) in
  Alcotest.check Alcotest.bool "hint" true (d.Diagnostic.severity = Hint);
  Alcotest.check Alcotest.bool "does not prove empty" false
    d.Diagnostic.proves_empty;
  Alcotest.(check int) "naive agrees: the antijoin is a no-op"
    (List.length (Naive.evaluate_ext g (Equery.plain query)))
    (List.length (Naive.evaluate_ext g anti_q));
  Alcotest.(check (list string))
    "clauses on a live label draw nothing" []
    (codes
       (Ext_check.check ~env
          (Equery.make ~anti:[ { ghost with Equery.lbl = 0 } ] query)))

(* ---------- selectivity estimates + est_intermediate counter ---------- *)

let test_selectivity_estimate_shape () =
  let g =
    Testkit.random_graph ~seed:7 ~n_vertices:6 ~n_edges:60 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let tai = Tcsq_core.Tai.build g in
  let cost = Tcsq_core.Plan.cost_model tai in
  let query = q ~w:(window 0 39) [ (0, 0, 1); (1, 1, 2) ] in
  let plan = Tcsq_core.Plan.build ~cost tai query in
  let est = Selectivity.estimate ~cost tai plan in
  Alcotest.(check int) "one estimate per pattern edge" 2
    (Array.length est.Selectivity.edges);
  Alcotest.check Alcotest.bool "has step estimates" true
    (Array.length est.Selectivity.steps > 0);
  let first = est.Selectivity.steps.(0) in
  Alcotest.check Alcotest.bool "root step counts leapfrog candidates" true
    (first.Selectivity.root && first.Selectivity.candidates <> None);
  Alcotest.check Alcotest.bool "results within intermediate total" true
    (est.Selectivity.estimated_results
    <= est.Selectivity.estimated_intermediate +. 1e-9);
  Alcotest.check Alcotest.bool "counter is a non-negative int" true
    (Selectivity.intermediate_counter est >= 0)

let test_engine_records_estimate () =
  let g = small_graph () in
  let engine = Workload.Engine.prepare g in
  let query = q [ (0, 0, 1); (1, 1, 2) ] in
  let run () =
    let stats = Run_stats.create () in
    ignore (Workload.Engine.count ~stats engine Workload.Engine.Tsrjoin query);
    stats
  in
  let s1 = run () and s2 = run () in
  Alcotest.check Alcotest.bool "estimate recorded" true
    (s1.Run_stats.est_intermediate > 0);
  Alcotest.(check int) "deterministic across runs"
    s1.Run_stats.est_intermediate s2.Run_stats.est_intermediate;
  (* merge sums the counter like every other one *)
  let merged = Run_stats.create () in
  Run_stats.merge_into merged s1;
  Run_stats.merge_into merged s2;
  Alcotest.(check int) "merge sums"
    (2 * s1.Run_stats.est_intermediate)
    merged.Run_stats.est_intermediate

(* ---------- explain reports ---------- *)

let test_explain_candidates_and_json () =
  let g = small_graph () in
  let target = Lint.target_of_graph g in
  let query = q [ (0, 0, 1); (1, 1, 2) ] in
  let t = Explain.analyze ~pivot_order:[ 0; 1; 2 ] target query in
  Alcotest.(check (list string))
    "candidates in order"
    [ "cost-model"; "adaptive"; "pivot-order" ]
    (List.map (fun c -> c.Explain.name) t.Explain.candidates);
  Alcotest.(check int) "exactly one chosen" 1
    (List.length
       (List.filter (fun c -> c.Explain.chosen) t.Explain.candidates));
  let label_names = Tgraph.Label.names (Tgraph.Graph.labels g) in
  let txt = Format.asprintf "%a" (Explain.pp ~label_names) t in
  List.iter
    (fun sub -> Alcotest.check Alcotest.bool sub true (contains ~sub txt))
    [ "plan cost-model (chosen)"; "ranking:"; "effective window" ];
  let js = Obs.Json.to_string (Explain.to_json ~label_names t) in
  List.iter
    (fun sub -> Alcotest.check Alcotest.bool sub true (contains ~sub js))
    [
      "\"schema\": \"tcsq-explain/v1\""; "\"plans\"";
      "\"estimated_intermediate\"";
    ]

let test_explain_p008_dominated_plan () =
  (* pivoting the leaf of a star first explodes the first TSRJoin level;
     the report must flag the literal plan as dominated *)
  let g =
    Testkit.random_graph ~seed:11 ~n_vertices:60 ~n_edges:400 ~n_labels:2
      ~domain:40 ~max_len:5 ()
  in
  let target = Lint.target_of_graph g in
  let query = q ~w:(window 0 39) [ (0, 0, 1); (1, 0, 2) ] in
  let t = Explain.analyze ~pivot_order:[ 1; 0; 2 ] target query in
  let po =
    List.find (fun c -> c.Explain.name = "pivot-order") t.Explain.candidates
  in
  (if not (List.mem "P008" (codes po.Explain.plan_diags)) then
     let show c =
       Printf.sprintf "%s=%g" c.Explain.name
         c.Explain.est.Selectivity.estimated_intermediate
     in
     Alcotest.failf "no P008: %s"
       (String.concat " " (List.map show t.Explain.candidates)));
  Alcotest.check Alcotest.bool "dominated plan is not chosen" false
    po.Explain.chosen

(* ---------- planner conformance + pivot-order regression ---------- *)

let test_planners_produce_clean_plans () =
  let g =
    Testkit.random_graph ~seed:7 ~n_vertices:6 ~n_edges:60 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let tai = Tcsq_core.Tai.build g in
  let cost = Tcsq_core.Plan.cost_model tai in
  List.iter
    (fun query ->
      let plans =
        [
          ("build", Tcsq_core.Plan.build ~cost tai query);
          ("adaptive", Tcsq_core.Plan.build_adaptive ~cost tai query);
          ( "pivot order",
            Tcsq_core.Plan.of_pivot_order query
              (List.init (Query.n_vars query) Fun.id) );
        ]
      in
      List.iter
        (fun (name, plan) ->
          (match Plan_check.check plan with
          | [] -> ()
          | ds ->
              Alcotest.failf "%s: unexpected diagnostics [%s]" name
                (String.concat "; " (codes ds)));
          match Tcsq_core.Plan.validate plan with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: validate rejected: %s" name msg)
        plans;
      (* literal pivot orders are often invalid: [validate] and
         [Plan_check] must agree on every one *)
      let n = Query.n_vars query in
      List.iter
        (fun order ->
          let plan = Tcsq_core.Plan.of_pivot_order_unchecked query order in
          Alcotest.(check bool)
            "validate = Ok iff Plan_check is clean"
            (Plan_check.check plan = [])
            (Tcsq_core.Plan.validate plan = Ok ()))
        [ List.init n Fun.id; List.init n (fun v -> n - 1 - v); [ n - 1 ];
          [ 0; n - 1 ] ])
    (Testkit.query_pool ~n_labels:3 ~window:(window 0 39))

let test_corrupted_pivot_order_rejected () =
  let query = chain_query () in
  (* order [0] leaves e1 unmatched; order [0; 2] uses x2 unbound *)
  let p1 = Tcsq_core.Plan.of_pivot_order_unchecked query [ 0 ] in
  let d = find "P004" (Plan_check.check p1) in
  Alcotest.check Alcotest.bool "names the edge" true
    (d.Diagnostic.location = Edge 1);
  (match Tcsq_core.Plan.validate p1 with
  | Ok () -> Alcotest.fail "validate accepted an incomplete plan"
  | Error msg ->
      Alcotest.check Alcotest.bool "useful message" true
        (String.length msg > 0));
  let p2 = Tcsq_core.Plan.of_pivot_order_unchecked query [ 0; 2 ] in
  let d = find "P002" (Plan_check.check p2) in
  Alcotest.check Alcotest.bool "names pivot x2" true
    (d.Diagnostic.location = Step 1
    && contains ~sub:"pivot x2" d.Diagnostic.message)

(* ---------- engine checked execution ---------- *)

(* the checked flow the server runs: lint, reject on errors, execute
   nothing when the query is provably empty, else run it tightened *)
let run_served engine m query ~emit =
  let eq = Equery.plain query in
  let ds = Workload.Engine.analyze_ext engine m eq in
  if Diagnostic.has_errors ds then Error ds
  else begin
    if not (Diagnostic.proves_empty ds) then
      Workload.Engine.run_ext engine m
        (Workload.Engine.tighten_ext engine eq)
        ~emit;
    Ok ds
  end

let count_served engine m query =
  let n = ref 0 in
  run_served engine m query ~emit:(fun _ -> incr n)
  |> Result.map (fun ds -> (!n, ds))

let test_engine_rejects_errors () =
  let engine = Workload.Engine.prepare (small_graph ()) in
  let bad = q [ (7, 0, 1) ] in
  Array.iter
    (fun m ->
      match count_served engine m bad with
      | Ok _ ->
          Alcotest.failf "%s executed an error-level query"
            (Workload.Engine.method_name m)
      | Error ds ->
          Alcotest.check Alcotest.bool "has errors" true
            (Diagnostic.has_errors ds))
    Workload.Engine.all_methods

let test_engine_short_circuits_empty () =
  let g = small_graph () in
  let engine = Workload.Engine.prepare g in
  let futile = q ~w:(window 500 600) [ (0, 0, 1) ] in
  match count_served engine Workload.Engine.Tsrjoin futile with
  | Error ds ->
      Alcotest.failf "rejected a warning-level query: %s"
        (String.concat "; " (codes ds))
  | Ok (n, ds) ->
      Alcotest.(check int) "zero matches" 0 n;
      Alcotest.check Alcotest.bool "flagged provably empty" true
        (Diagnostic.proves_empty ds)

let test_engine_runs_clean_queries () =
  let g = small_graph () in
  let engine = Workload.Engine.prepare g in
  let query = q [ (0, 0, 1); (1, 1, 2) ] in
  let ms = ref [] in
  match
    run_served engine Workload.Engine.Tsrjoin query ~emit:(fun m ->
        ms := m :: !ms)
  with
  | Error ds -> Alcotest.failf "rejected: %s" (String.concat "; " (codes ds))
  | Ok _ ->
      Test_util.check_same_results ~msg:"checked = naive"
        (Naive.evaluate g query) !ms

(* ---------- rendering ---------- *)

let test_exit_codes_and_json () =
  let e = Diagnostic.make ~code:"Q003" ~severity:Error ~location:(Edge 2) "boom" in
  let w = Diagnostic.make ~code:"Q006" ~severity:Warning ~location:Queryloc "meh" in
  let h = Diagnostic.make ~code:"Q007" ~severity:Hint ~location:(Edge 0) "fyi" in
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "hints" 0 (Diagnostic.exit_code [ h ]);
  Alcotest.(check int) "warnings" 1 (Diagnostic.exit_code [ h; w ]);
  Alcotest.(check int) "errors" 2 (Diagnostic.exit_code [ w; e ]);
  let js = Obs.Json.to_string (Diagnostic.to_json e) in
  List.iter
    (fun sub ->
      Alcotest.check Alcotest.bool sub true (contains ~sub js))
    [ "\"code\": \"Q003\""; "\"severity\": \"error\""; "\"kind\": \"edge\"";
      "\"index\": 2" ];
  Alcotest.(check string) "pp" "error[Q003] at edge 2: boom"
    (Diagnostic.to_string e)

(* ---------- properties ---------- *)

let prop_clean_queries_run_and_empty_verdicts_hold =
  QCheck.Test.make ~name:"analyzer verdicts agree with execution" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 30))
    (fun (seed, ws) ->
      let g =
        Testkit.random_graph ~seed ~n_vertices:5 ~n_edges:40 ~n_labels:3
          ~domain:40 ~max_len:8 ()
      in
      let engine = Workload.Engine.prepare g in
      let env = Query_check.env_of_graph g in
      let w = window ws (ws + 6) in
      let queries =
        Testkit.query_pool ~n_labels:3 ~window:w
        @ List.init 3 (fun j ->
              Testkit.random_query ~seed:(seed * 31 + j) ~n_labels:3
                ~max_edges:4 ~window:w)
      in
      List.for_all
        (fun query ->
          let ds = Query_check.check ~env query in
          if Diagnostic.has_errors ds then
            QCheck.Test.fail_reportf
              "analyzer errored on a generated query: %s"
              (String.concat "; " (codes ds));
          let naive = Naive.count g query in
          if Diagnostic.proves_empty ds && naive <> 0 then
            QCheck.Test.fail_reportf
              "proves-empty verdict vs %d naive matches" naive;
          (* clean or warning-level queries must execute, and agree *)
          match count_served engine Workload.Engine.Tsrjoin query with
          | Ok (n, _) -> n = naive
          | Error ds ->
              QCheck.Test.fail_reportf "rejected: %s"
                (String.concat "; " (codes ds)))
        queries)

let prop_query_gen_output_is_analyzer_clean =
  QCheck.Test.make ~name:"Query_gen output is analyzer-clean and runs"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g =
        Testkit.random_graph ~seed ~n_vertices:8 ~n_edges:120 ~n_labels:4
          ~domain:60 ~max_len:12 ()
      in
      let engine = Workload.Engine.prepare g in
      let cfg =
        {
          (Workload.Query_gen.default ~shape:(Pattern.Star 2)) with
          Workload.Query_gen.n_queries = 5;
          seed;
          max_attempts = 200;
        }
      in
      List.for_all
        (fun info ->
          let query = info.Workload.Query_gen.query in
          let ds =
            Workload.Engine.analyze_ext engine Workload.Engine.Tsrjoin
              (Equery.plain query)
          in
          (not (Diagnostic.has_errors ds))
          && (not (Diagnostic.proves_empty ds))
          &&
          match count_served engine Workload.Engine.Tsrjoin query with
          | Ok (n, _) -> n = info.Workload.Query_gen.result_size
          | Error _ -> false)
        (Workload.Query_gen.generate engine cfg))

let () =
  Alcotest.run "analysis"
    [
      ( "query diagnostics",
        [
          Alcotest.test_case "Q001 inverted window" `Quick test_q001_inverted_window;
          Alcotest.test_case "Q002 disjoint window" `Quick test_q002_disjoint_window;
          Alcotest.test_case "Q003 unknown label" `Quick test_q003_unknown_label;
          Alcotest.test_case "Q004 orphan variable" `Quick test_q004_orphan_variable;
          Alcotest.test_case "Q005 duplicate edge" `Quick test_q005_duplicate_edge;
          Alcotest.test_case "Q006 disconnected" `Quick test_q006_disconnected;
          Alcotest.test_case "Q007 self loop" `Quick test_q007_self_loop;
          Alcotest.test_case "Q008 label without edges" `Quick test_q008_label_without_edges;
          Alcotest.test_case "Q009 empty graph" `Quick test_q009_empty_graph;
          Alcotest.test_case "Q010 undurable LASTING" `Quick test_q010_undurable;
        ] );
      ( "bound propagation",
        [
          Alcotest.test_case "Q011/Q012 disjoint labels" `Quick
            test_q011_q012_disjoint_labels;
          Alcotest.test_case "Q013 LASTING vs label span" `Quick
            test_q013_lasting_vs_label;
          Alcotest.test_case "Q014 window tightening" `Quick
            test_q014_window_tightening;
        ] );
      ( "extended diagnostics",
        [
          Alcotest.test_case "Q015 infeasible Allen constraint" `Quick
            test_q015_infeasible_allen;
          Alcotest.test_case "Q016/Q017 clause labels without edges" `Quick
            test_q016_q017_clause_labels;
        ] );
      ( "selectivity",
        [
          Alcotest.test_case "estimate shape" `Quick
            test_selectivity_estimate_shape;
          Alcotest.test_case "engine records est_intermediate" `Quick
            test_engine_records_estimate;
        ] );
      ( "explain",
        [
          Alcotest.test_case "candidates, report, JSON" `Quick
            test_explain_candidates_and_json;
          Alcotest.test_case "P008 dominated plan" `Quick
            test_explain_p008_dominated_plan;
        ] );
      ( "plan diagnostics",
        [
          Alcotest.test_case "P001 empty step" `Quick test_p001_empty_step;
          Alcotest.test_case "P002 unbound pivot" `Quick test_p002_unbound_pivot;
          Alcotest.test_case "P003 rebound root" `Quick test_p003_rebound_root;
          Alcotest.test_case "P004 unmatched edge" `Quick test_p004_unmatched_edge;
          Alcotest.test_case "P005 rematched edge" `Quick test_p005_rematched_edge;
          Alcotest.test_case "P006 non-incident edge" `Quick test_p006_nonincident_edge;
          Alcotest.test_case "P007 edge table mismatch" `Quick test_p007_edge_table_mismatch;
        ] );
      ( "planners",
        [
          Alcotest.test_case "all planners produce clean plans" `Quick
            test_planners_produce_clean_plans;
          Alcotest.test_case "corrupted pivot order rejected" `Quick
            test_corrupted_pivot_order_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rejects error-level queries" `Quick
            test_engine_rejects_errors;
          Alcotest.test_case "short-circuits provably-empty" `Quick
            test_engine_short_circuits_empty;
          Alcotest.test_case "runs clean queries" `Quick
            test_engine_runs_clean_queries;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "exit codes and JSON" `Quick
            test_exit_codes_and_json;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_clean_queries_run_and_empty_verdicts_hold;
          QCheck_alcotest.to_alcotest prop_query_gen_output_is_analyzer_clean;
        ] );
    ]
