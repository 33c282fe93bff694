(* Tests for the planner's cost model: the window selectivity (the exact
   share of a label's edges alive in the query window, read from the
   graph's sorted per-label starts and ends), and that the planner and
   [Plan.estimate] rank roots alike. The shape of [Plan.estimate] is
   checked in test_analysis, next to the engine's est_intermediate. *)

open Tgraph
open Tcsq_core

let graph () =
  (* label 0: ten edges bursty in [0, 9]; label 1: two long edges over
     the whole domain [0, 99] *)
  let edges =
    List.init 10 (fun i -> (0, 1, 0, i, i))
    @ [ (0, 1, 1, 0, 99); (1, 0, 1, 0, 99) ]
  in
  Graph.of_edge_list edges

let sel tai lbl ws we = Plan.window_selectivity tai lbl ~ws ~we
let any = Semantics.Query.any_label

let test_bursty_vs_flat () =
  let tai = Tai.build (graph ()) in
  let check = Alcotest.(check (float 1e-12)) in
  (* the burst label is fully alive in [0, 9] and dead in [50, 59] *)
  check "burst early" 1.0 (sel tai 0 0 9);
  check "burst dead late" 1e-9 (sel tai 0 50 59);
  check "point window holds one burst edge" 0.1 (sel tai 0 4 4);
  (* the long label is alive everywhere *)
  check "long label alive late" 1.0 (sel tai 1 50 59)

let test_selectivity_bounds () =
  let tai = Tai.build (graph ()) in
  let s_early = sel tai 0 0 4 and s_late = sel tai 0 50 59 in
  Alcotest.(check bool) "in (0, 1]" true (s_early > 0.0 && s_early <= 1.0);
  Alcotest.(check bool) "ordering" true (s_early > s_late);
  Alcotest.(check bool) "unknown label" true (sel tai 9 0 9 <= 1e-8);
  Alcotest.(check (float 1e-12)) "wildcard is the max over labels" 1.0
    (sel tai any 50 59)

let test_empty_graph () =
  let tai = Tai.build (Graph.Builder.finish (Graph.Builder.create ())) in
  Alcotest.(check (float 0.0)) "floor" 1e-9 (sel tai 0 0 10);
  Alcotest.(check (float 0.0)) "wildcard floor" 1e-9 (sel tai any 0 10)

let test_degenerate_windows () =
  let tai = Tai.build (graph ()) in
  Alcotest.(check (float 0.0)) "inverted window" 1e-9 (sel tai 0 9 0);
  Alcotest.(check (float 0.0)) "beyond the domain" 1e-9 (sel tai 1 1000 2000);
  Alcotest.(check (float 0.0)) "window to max_int" 1.0 (sel tai 1 50 max_int);
  Alcotest.(check (float 0.0)) "window from min_int" 1.0 (sel tai 0 min_int 9)

let prop_window_monotone =
  QCheck.Test.make ~name:"wider windows never lose active mass" ~count:200
    QCheck.(triple (int_range 0 5000) (int_range 0 80) (int_range 0 15))
    (fun (seed, ws, width) ->
      let tai =
        Tai.build
          (Test_util.random_graph ~seed ~n_vertices:6 ~n_edges:60 ~n_labels:3
             ~domain:100 ~max_len:20 ())
      in
      sel tai 0 ws (ws + width + 20) >= sel tai 0 ws (ws + width))

let prop_full_window_counts_all =
  QCheck.Test.make ~name:"domain-wide window ≈ label count or more" ~count:100
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:6 ~n_edges:60 ~n_labels:2
          ~domain:50 ~max_len:10 ()
      in
      Graph.label_count g 0 = 0
      ||
      let domain = Graph.time_domain g in
      sel (Tai.build g) 0 (Temporal.Interval.ts domain)
        (Temporal.Interval.te domain)
      = 1.0)

(* Random edges over three labels, a quarter of them running to
   [max_int]. *)
let random_edges rng =
  List.init (Random.State.int rng 40) (fun _ ->
      let ts = 1 + Random.State.int rng 60 in
      let te =
        if Random.State.int rng 4 = 0 then max_int
        else ts + Random.State.int rng 15
      in
      (Random.State.int rng 5, Random.State.int rng 5, Random.State.int rng 3,
       ts, te))

let prop_exact_count =
  QCheck.Test.make ~name:"window selectivity x label count = naive count"
    ~count:300
    QCheck.(triple (int_range 0 5000) (int_range (-10) 90) (int_range (-5) 40))
    (fun (seed, ws, width) ->
      let rng = Random.State.make [| seed; 41 |] in
      let edges = random_edges rng in
      let labels = Label.of_names [| "l0"; "l1"; "l2" |] in
      let g = Graph.of_edge_list ~labels edges in
      let tai = Tai.build g in
      let we = if Random.State.int rng 5 = 0 then max_int else ws + width in
      let expected l =
        let n = List.length (List.filter (fun (_, _, l', _, _) -> l' = l) edges) in
        let alive =
          List.length
            (List.filter
               (fun (_, _, l', ts, te) -> l' = l && ts <= we && te >= ws)
               edges)
        in
        if n = 0 || alive = 0 || we < ws then 1e-9
        else float_of_int alive /. float_of_int n
      in
      let same a b = Float.abs (a -. b) < 1e-12 in
      List.for_all (fun l -> same (sel tai l ws we) (expected l)) [ 0; 1; 2 ]
      && same (sel tai any ws we)
           (List.fold_left Float.max 1e-9 (List.map expected [ 0; 1; 2 ])))

(* ---- the planner and the estimator are one model ---- *)

(* The planner scores roots by a log-space sum and the estimator by a
   product; both read the same per-edge factors, so the root the planner
   picks first has the smallest first-step cumulative of all roots. *)
let prop_planner_root_is_cheapest =
  QCheck.Test.make
    ~name:"planner's first root has the smallest estimated first step"
    ~count:300
    QCheck.(triple (int_range 0 5000) (int_range 0 60) (int_range 0 40))
    (fun (seed, ws, width) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:7 ~n_edges:90 ~n_labels:3
          ~domain:80 ~max_len:15 ()
      in
      let tai = Tai.build g in
      let q =
        Testkit.random_query ~seed ~n_labels:3 ~max_edges:4
          ~window:(Temporal.Interval.make ws (ws + width))
      in
      let first_cumulative p = (Plan.estimate tai p).Plan.steps.(0).Plan.cumulative in
      let roots =
        List.filter
          (fun v -> Semantics.Query.adjacent q v <> [])
          (List.init (Semantics.Query.n_vars q) Fun.id)
      in
      let best =
        List.fold_left
          (fun acc v ->
            Float.min acc (first_cumulative (Plan.of_pivot_order q [ v ])))
          infinity roots
      in
      first_cumulative (Plan.build tai q) <= best *. (1.0 +. 1e-9))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "cost_model"
    [
      ( "basics",
        [
          Alcotest.test_case "bursty vs flat labels" `Quick test_bursty_vs_flat;
          Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "degenerate windows" `Quick test_degenerate_windows;
        ] );
      qsuite "properties"
        [
          prop_window_monotone;
          prop_full_window_counts_all;
          prop_exact_count;
          prop_planner_root_is_cheapest;
        ];
    ]
