(* Cross-engine equivalence: BINARY, HYBRID, TIME and TSRJoin must all
   compute exactly the oracle's result set, on the full query pool and
   on randomized graphs. Also unit tests for the Volcano framework and
   the per-pipeline plumbing. *)

open Semantics

let window a b = Temporal.Interval.make a b

(* ---------- Volcano ---------- *)

let tuple_of_int q i =
  (* fake tuples distinguished by a bound vertex *)
  let t = Relops.Tuple.initial q in
  t.Relops.Tuple.binds.(0) <- i;
  t

let test_volcano_batches () =
  let q = Query.make ~n_vars:1 ~edges:[ (0, 0, 0) ] ~window:(window 0 1) in
  let n = (3 * Relops.Volcano.batch_size) + 17 in
  let op =
    Relops.Volcano.source (Seq.init n (tuple_of_int q))
  in
  let seen = ref 0 and max_batch = ref 0 in
  let rec drain () =
    match Relops.Volcano.next op with
    | None -> ()
    | Some batch ->
        max_batch := max !max_batch (Array.length batch);
        seen := !seen + Array.length batch;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all tuples delivered" n !seen;
  Alcotest.(check int) "batches capped at 1024" Relops.Volcano.batch_size !max_batch

let test_volcano_flat_map () =
  let q = Query.make ~n_vars:1 ~edges:[ (0, 0, 0) ] ~window:(window 0 1) in
  let op =
    Relops.Volcano.source (Seq.init 100 (tuple_of_int q))
    |> Relops.Volcano.flat_map (fun t -> [ t; t; t ])
  in
  Alcotest.(check int) "3x fanout" 300 (Relops.Volcano.count op);
  let op2 =
    Relops.Volcano.source (Seq.init 100 (tuple_of_int q))
    |> Relops.Volcano.filter_map (fun t ->
           if t.Relops.Tuple.binds.(0) mod 2 = 0 then Some t else None)
  in
  Alcotest.(check int) "filter" 50 (Relops.Volcano.count op2)

(* ---------- Tuple ---------- *)

let test_tuple_extend () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (1, 2, 0, 2, 8) ] in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (0, 1, 2) ] ~window:(window 0 9)
  in
  let t0 = Relops.Tuple.initial q in
  let t1 =
    Option.get (Relops.Tuple.extend q t0 ~edge_idx:0 (Tgraph.Graph.edge g 0))
  in
  Alcotest.(check int) "binds x0" 0 t1.Relops.Tuple.binds.(0);
  Alcotest.(check int) "binds x1" 1 t1.Relops.Tuple.binds.(1);
  Alcotest.(check bool) "incomplete" false (Relops.Tuple.is_complete t1);
  (* edge 1 goes 1->2, consistent with x1 = 1 *)
  let t2 =
    Option.get (Relops.Tuple.extend q t1 ~edge_idx:1 (Tgraph.Graph.edge g 1))
  in
  Alcotest.(check bool) "complete" true (Relops.Tuple.is_complete t2);
  (* inconsistent binding rejected: edge 0 as query edge 1 needs src = 1 *)
  Alcotest.(check bool) "conflict rejected" true
    (Relops.Tuple.extend q t1 ~edge_idx:1 (Tgraph.Graph.edge g 0) = None);
  (* temporal selection *)
  let sel =
    Relops.Tuple.select_temporal t2 ~ws:0 ~we:9 ~edge:(Tgraph.Graph.edge g 1)
  in
  (match sel with
  | Some t ->
      Alcotest.(check int) "life start" 2 (Temporal.Interval.ts t.Relops.Tuple.life)
  | None -> Alcotest.fail "selection dropped a valid tuple");
  Alcotest.(check bool) "window miss dropped" true
    (Relops.Tuple.select_temporal t2 ~ws:20 ~we:30 ~edge:(Tgraph.Graph.edge g 1)
    = None)

(* ---------- join orders ---------- *)

let test_binary_join_order_connected () =
  let g =
    Test_util.random_graph ~seed:3 ~n_vertices:8 ~n_edges:100 ~n_labels:4
      ~domain:50 ~max_len:10 ()
  in
  let adj = Triejoin.Adjacency.build g in
  let q =
    Pattern.instantiate (Pattern.Chain 4) ~labels:[| 0; 1; 2; 3 |]
      ~window:(window 0 49)
  in
  let order = Relops.Binary.join_order adj q in
  Alcotest.(check int) "covers all edges" 4 (List.length (List.sort_uniq compare order));
  (* each subsequent edge touches an already-bound variable *)
  let bound = Array.make (Query.n_vars q) false in
  List.iteri
    (fun i idx ->
      let e = Query.edge q idx in
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "edge %d connected" i)
          true
          (bound.(e.Query.src_var) || bound.(e.Query.dst_var));
      bound.(e.Query.src_var) <- true;
      bound.(e.Query.dst_var) <- true)
    order

let test_hybrid_var_order () =
  let g =
    Test_util.random_graph ~seed:4 ~n_vertices:8 ~n_edges:100 ~n_labels:4
      ~domain:50 ~max_len:10 ()
  in
  let adj = Triejoin.Adjacency.build g in
  let q =
    Pattern.instantiate (Pattern.Star 3) ~labels:[| 0; 1; 2 |] ~window:(window 0 49)
  in
  let order = Relops.Hybrid.var_order adj q in
  Alcotest.(check int) "all vars" 4 (List.length order);
  Alcotest.(check int) "center first" 0 (List.hd order)

(* ---------- the big one: 4 engines vs oracle ---------- *)

let check_all_engines ~msg g queries =
  let engine = Workload.Engine.prepare g in
  List.iteri
    (fun qi q ->
      let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
      Array.iter
        (fun m ->
          let actual =
            Match_result.Result_set.of_list (Test_util.run engine m q)
          in
          match Match_result.Result_set.diff_summary ~expected ~actual with
          | None -> ()
          | Some diff ->
              Alcotest.failf "%s: query %d, %s: %s" msg qi
                (Workload.Engine.method_name m)
                diff)
        Workload.Engine.all_methods)
    queries

let test_engines_query_pool () =
  let g =
    Test_util.random_graph ~seed:21 ~n_vertices:6 ~n_edges:90 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  check_all_engines ~msg:"pool"
    g
    (List.map Fun.id (Test_util.query_pool ~n_labels:3 ~window:(window 8 30)))

let test_engines_short_intervals () =
  let g =
    Test_util.random_graph ~seed:22 ~n_vertices:8 ~n_edges:120 ~n_labels:2
      ~domain:60 ~max_len:2 ()
  in
  check_all_engines ~msg:"short intervals" g
    (Test_util.query_pool ~n_labels:2 ~window:(window 10 45))

let test_engines_full_domain_window () =
  let g =
    Test_util.random_graph ~seed:23 ~n_vertices:5 ~n_edges:70 ~n_labels:3
      ~domain:30 ~max_len:30 ()
  in
  check_all_engines ~msg:"full window" g
    (Test_util.query_pool ~n_labels:3 ~window:(window 0 29))

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines = oracle on random graphs" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:45 ~n_labels:3
          ~domain:25 ~max_len:8 ()
      in
      let engine = Workload.Engine.prepare g in
      let queries = Test_util.query_pool ~n_labels:3 ~window:(window 4 18) in
      List.for_all
        (fun q ->
          let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
          Array.for_all
            (fun m ->
              Match_result.Result_set.equal expected
                (Match_result.Result_set.of_list
                   (Test_util.run engine m q)))
            Workload.Engine.all_methods)
        queries)

(* ---------- budgets and accounting ---------- *)

let test_budget_truncation () =
  let g =
    Test_util.random_graph ~seed:24 ~n_vertices:4 ~n_edges:80 ~n_labels:1
      ~domain:20 ~max_len:20 ()
  in
  let engine = Workload.Engine.prepare g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 19) in
  let limits = { Run_stats.max_results = 3; max_intermediate = 1_000_000 } in
  let m = Workload.Runner.run_method ~limits engine Workload.Engine.Tsrjoin [ q ] in
  Alcotest.(check int) "one truncated query" 1 m.Workload.Runner.n_truncated

let test_index_sizes_positive () =
  let g =
    Test_util.random_graph ~seed:25 ~n_vertices:10 ~n_edges:200 ~n_labels:4
      ~domain:100 ~max_len:20 ()
  in
  let engine = Workload.Engine.prepare g in
  Array.iter
    (fun m ->
      Alcotest.(check bool)
        (Workload.Engine.method_name m ^ " index size positive")
        true
        (Workload.Engine.index_size_words engine m > 0))
    Workload.Engine.all_methods;
  (* TSRJoin's richer index costs more than the others, as in Table IV *)
  Alcotest.(check bool) "tsrjoin largest" true
    (Workload.Engine.index_size_words engine Workload.Engine.Tsrjoin
    >= Workload.Engine.index_size_words engine Workload.Engine.Binary)

let test_query_gen_respects_m () =
  let g =
    Test_util.random_graph ~seed:26 ~n_vertices:8 ~n_edges:150 ~n_labels:4
      ~domain:60 ~max_len:15 ()
  in
  let engine = Workload.Engine.prepare g in
  let cfg =
    {
      Workload.Query_gen.n_queries = 10;
      window_frac = 0.3;
      shape = Pattern.Star 2;
      max_results = 50;
      seed = 5;
      max_attempts = 3000;
    }
  in
  let infos = Workload.Query_gen.generate engine cfg in
  Alcotest.(check bool) "generated some" true (infos <> []);
  List.iter
    (fun info ->
      let n = info.Workload.Query_gen.result_size in
      Alcotest.(check bool) "within [1, M]" true (n >= 1 && n <= 50);
      (* the recorded size is the true size *)
      Alcotest.(check int) "size exact" n
        (Naive.count g info.Workload.Query_gen.query))
    infos

let test_query_gen_deterministic () =
  let g =
    Test_util.random_graph ~seed:27 ~n_vertices:8 ~n_edges:120 ~n_labels:4
      ~domain:60 ~max_len:15 ()
  in
  let engine = Workload.Engine.prepare g in
  let cfg =
    {
      Workload.Query_gen.n_queries = 5;
      window_frac = 0.2;
      shape = Pattern.Chain 2;
      max_results = 100;
      seed = 9;
      max_attempts = 2000;
    }
  in
  let a = Workload.Query_gen.generate engine cfg in
  let b = Workload.Query_gen.generate engine cfg in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check int) "same sizes" x.Workload.Query_gen.result_size
        y.Workload.Query_gen.result_size)
    a b

let prop_engines_agree_random_structure =
  QCheck.Test.make ~name:"all engines = oracle on random query structures"
    ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (gseed, qseed) ->
      let g =
        Test_util.random_graph ~seed:gseed ~n_vertices:5 ~n_edges:40
          ~n_labels:3 ~domain:25 ~max_len:8 ()
      in
      let engine = Workload.Engine.prepare g in
      let q =
        Testkit.random_query ~seed:qseed ~n_labels:3 ~max_edges:4
          ~window:(window 4 18)
      in
      let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
      Array.for_all
        (fun m ->
          Match_result.Result_set.equal expected
            (Match_result.Result_set.of_list
               (Test_util.run engine m q)))
        Workload.Engine.all_methods)

let test_suite_roundtrip () =
  let g =
    Test_util.random_graph ~seed:28 ~n_vertices:8 ~n_edges:150 ~n_labels:4
      ~domain:60 ~max_len:15 ()
  in
  let engine = Workload.Engine.prepare g in
  let cfg =
    {
      Workload.Query_gen.n_queries = 6;
      window_frac = 0.2;
      shape = Pattern.Star 2;
      max_results = 10_000;
      seed = 12;
      max_attempts = 2000;
    }
  in
  let queries =
    List.map (fun i -> i.Workload.Query_gen.query)
      (Workload.Query_gen.generate engine cfg)
    @ [
        Query.with_min_duration
          (Query.make ~n_vars:3
             ~edges:[ (0, 0, 1); (1, 1, 2) ]
             ~window:(window 5 40))
          4;
      ]
  in
  let path = Filename.temp_file "tcsq_suite" ".queries" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Suite.save g queries path;
      match Workload.Suite.load g path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok reloaded ->
          Alcotest.(check int) "count" (List.length queries) (List.length reloaded);
          List.iteri
            (fun i (orig, re) ->
              Test_util.check_same_results
                ~msg:(Printf.sprintf "suite query %d" i)
                (Test_util.run engine Workload.Engine.Tsrjoin orig)
                (Test_util.run engine Workload.Engine.Tsrjoin re))
            (List.combine queries reloaded));
  (* malformed lines are reported with positions *)
  match Workload.Suite.of_lines g [ "MATCH (x)-[zzz]->(y) IN [0, 5]" ] with
  | Ok _ -> Alcotest.fail "expected unknown-label failure"
  | Error e ->
      Alcotest.(check bool) "line number in message" true
        (String.length e > 5 && String.sub e 0 5 = "line ")

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "baselines"
    [
      ( "volcano",
        [
          Alcotest.test_case "batch sizes" `Quick test_volcano_batches;
          Alcotest.test_case "flat_map / filter" `Quick test_volcano_flat_map;
        ] );
      ("tuple", [ Alcotest.test_case "extend / select" `Quick test_tuple_extend ]);
      ( "orders",
        [
          Alcotest.test_case "binary connected order" `Quick test_binary_join_order_connected;
          Alcotest.test_case "hybrid var order" `Quick test_hybrid_var_order;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "query pool" `Quick test_engines_query_pool;
          Alcotest.test_case "short intervals" `Quick test_engines_short_intervals;
          Alcotest.test_case "full-domain window" `Quick test_engines_full_domain_window;
        ] );
      ( "workload",
        [
          Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
          Alcotest.test_case "index sizes" `Quick test_index_sizes_positive;
          Alcotest.test_case "generator respects M" `Quick test_query_gen_respects_m;
          Alcotest.test_case "generator deterministic" `Quick test_query_gen_deterministic;
          Alcotest.test_case "suite save/load roundtrip" `Quick test_suite_roundtrip;
        ] );
      qsuite "properties"
        [ prop_engines_agree; prop_engines_agree_random_structure ];
    ]
