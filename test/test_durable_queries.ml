(* Tests for duration-constrained (durable) matching: the min_duration
   predicate pushed down into every engine. *)

open Semantics

let window a b = Temporal.Interval.make a b

let test_query_accessors () =
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 9) in
  Alcotest.(check int) "default" 1 (Query.min_duration q);
  let q5 = Query.with_min_duration q 5 in
  Alcotest.(check int) "set" 5 (Query.min_duration q5);
  Alcotest.(check int) "original untouched" 1 (Query.min_duration q);
  Alcotest.check_raises "zero rejected" (Invalid_argument "") (fun () ->
      try ignore (Query.with_min_duration q 0)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_small_example () =
  (* two 2-star matches: one alive [3,5] (3 ticks), one [8,8] (1 tick) *)
  let g =
    Tgraph.Graph.of_edge_list
      [ (0, 1, 0, 0, 5); (0, 2, 1, 3, 8); (0, 3, 0, 8, 8) ]
  in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 0 9)
  in
  let counts d =
    Naive.count g (Query.with_min_duration q d)
  in
  Alcotest.(check int) "d=1 keeps both" 2 (counts 1);
  Alcotest.(check int) "d=2 keeps the long one" 1 (counts 2);
  Alcotest.(check int) "d=3 keeps the long one" 1 (counts 3);
  Alcotest.(check int) "d=4 keeps none" 0 (counts 4)

let test_all_engines_respect_duration () =
  let g =
    Test_util.random_graph ~seed:71 ~n_vertices:6 ~n_edges:90 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let engine = Workload.Engine.prepare g in
  List.iter
    (fun d ->
      List.iteri
        (fun qi q0 ->
          let q = Query.with_min_duration q0 d in
          let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
          Array.iter
            (fun m ->
              let actual =
                Match_result.Result_set.of_list
                  (Test_util.run engine m q)
              in
              match
                Match_result.Result_set.diff_summary ~expected ~actual
              with
              | None -> ()
              | Some diff ->
                  Alcotest.failf "d=%d, query %d, %s: %s" d qi
                    (Workload.Engine.method_name m)
                    diff)
            Workload.Engine.all_methods)
        (Test_util.query_pool ~n_labels:3 ~window:(window 8 30)))
    [ 2; 4; 8 ]

let test_duration_equals_post_filter () =
  let g =
    Test_util.random_graph ~seed:72 ~n_vertices:5 ~n_edges:70 ~n_labels:2
      ~domain:35 ~max_len:12 ()
  in
  let tai = Tcsq_core.Tai.build g in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 5 30)
  in
  let all = Tcsq_core.Tsrjoin.evaluate tai q in
  List.iter
    (fun d ->
      let expected =
        List.filter
          (fun m -> Temporal.Interval.length m.Match_result.life >= d)
          all
      in
      Test_util.check_same_results
        ~msg:(Printf.sprintf "d = %d equals post-filter" d)
        expected
        (Tcsq_core.Tsrjoin.evaluate tai (Query.with_min_duration q d)))
    [ 1; 2; 3; 5; 10 ]

let test_pushdown_prunes_work () =
  (* on long-interval data a high duration floor should cut the explored
     partials, not just the output *)
  let g =
    Test_util.random_graph ~seed:73 ~n_vertices:6 ~n_edges:150 ~n_labels:2
      ~domain:60 ~max_len:20 ()
  in
  let tai = Tcsq_core.Tai.build g in
  let q =
    Query.make ~n_vars:4
      ~edges:[ (0, 0, 1); (1, 1, 2); (0, 2, 3) ]
      ~window:(window 0 59)
  in
  let intermediates d =
    let stats = Run_stats.create () in
    ignore
      (Tcsq_core.Tsrjoin.count ~stats tai (Query.with_min_duration q d));
    stats.Run_stats.intermediate
  in
  let unconstrained = intermediates 1 in
  let constrained = intermediates 15 in
  Alcotest.(check bool)
    (Printf.sprintf "pruned (%d <= %d)" constrained unconstrained)
    true
    (constrained <= unconstrained)

let test_qlang_lasting () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 9) ] in
  let q =
    Result.get_ok
      (Qlang.parse_and_compile g "MATCH (x)-[l0]->(y) IN [0, 9] LASTING 5")
  in
  Alcotest.(check int) "lasting parsed" 5 (Query.min_duration q);
  (* render keeps it *)
  let text = Qlang.render g q in
  Alcotest.(check bool) "rendered" true
    (String.length text >= 9
    && Result.get_ok (Qlang.parse_and_compile g text)
       |> Query.min_duration = 5);
  (* bad durations rejected *)
  (match Qlang.parse "MATCH (x)-[a]->(y) IN [0, 9] LASTING 0" with
  | Ok _ -> Alcotest.fail "LASTING 0 should fail"
  | Error _ -> ());
  match Qlang.parse "MATCH (x)-[a]->(y) LASTING" with
  | Ok _ -> Alcotest.fail "missing duration should fail"
  | Error _ -> ()

let test_verify_checks_duration () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 2) ] in
  let q =
    Query.with_min_duration
      (Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 9))
      5
  in
  let m = Match_result.make [| 0 |] (window 0 2) in
  Alcotest.(check bool) "too short rejected" true
    (Result.is_error (Match_result.verify g q m))

let prop_engines_agree_durable =
  QCheck.Test.make ~name:"all engines agree under duration floors" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 1 10))
    (fun (seed, d) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:45 ~n_labels:3
          ~domain:25 ~max_len:8 ()
      in
      let engine = Workload.Engine.prepare g in
      List.for_all
        (fun q0 ->
          let q = Query.with_min_duration q0 d in
          let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
          Array.for_all
            (fun m ->
              Match_result.Result_set.equal expected
                (Match_result.Result_set.of_list
                   (Test_util.run engine m q)))
            Workload.Engine.all_methods)
        (Test_util.query_pool ~n_labels:3 ~window:(window 4 18)))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "durable_queries"
    [
      ( "semantics",
        [
          Alcotest.test_case "query accessors" `Quick test_query_accessors;
          Alcotest.test_case "small example" `Quick test_small_example;
          Alcotest.test_case "equals post-filter" `Quick test_duration_equals_post_filter;
          Alcotest.test_case "verify checks duration" `Quick test_verify_checks_duration;
        ] );
      ( "engines",
        [
          Alcotest.test_case "all engines respect the floor" `Quick
            test_all_engines_respect_duration;
          Alcotest.test_case "push-down prunes" `Quick test_pushdown_prunes_work;
        ] );
      ("qlang", [ Alcotest.test_case "LASTING clause" `Quick test_qlang_lasting ]);
      qsuite "properties" [ prop_engines_agree_durable ];
    ]
