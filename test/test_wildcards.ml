(* Dedicated wildcard-label coverage: the any-label constraint composed
   with every engine, duration floors, multi-window evaluation, parallel
   execution and top-k. *)

open Semantics
open Tcsq_core

let window a b = Temporal.Interval.make a b
let any = Query.any_label

let graph () =
  Test_util.random_graph ~seed:131 ~n_vertices:6 ~n_edges:90 ~n_labels:3
    ~domain:40 ~max_len:10 ()

let wildcard_queries w =
  [
    (* single wildcard edge *)
    Query.make ~n_vars:2 ~edges:[ (any, 0, 1) ] ~window:w;
    (* wildcard star mixed with a labeled edge *)
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (any, 0, 2) ] ~window:w;
    (* fully unlabeled triangle (durable-pattern setting) *)
    Query.make ~n_vars:3 ~edges:[ (any, 0, 1); (any, 1, 2); (any, 2, 0) ] ~window:w;
    (* wildcard with bound endpoints on both sides (between-TSR path) *)
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 1, 2); (any, 0, 1) ] ~window:w;
    (* wildcard self loop *)
    Query.make ~n_vars:2 ~edges:[ (any, 0, 0); (0, 0, 1) ] ~window:w;
    (* wildcard chain *)
    Query.make ~n_vars:4 ~edges:[ (any, 0, 1); (any, 1, 2); (any, 2, 3) ] ~window:w;
  ]

let test_all_engines () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  List.iteri
    (fun qi q ->
      let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
      Alcotest.(check bool)
        (Printf.sprintf "query %d has matches" qi)
        true
        (qi > 3 || Match_result.Result_set.cardinality expected > 0);
      Array.iter
        (fun m ->
          let actual =
            Match_result.Result_set.of_list (Test_util.run engine m q)
          in
          match Match_result.Result_set.diff_summary ~expected ~actual with
          | None -> ()
          | Some diff ->
              Alcotest.failf "query %d, %s: %s" qi
                (Workload.Engine.method_name m)
                diff)
        Workload.Engine.all_methods)
    (wildcard_queries (window 5 30))

let test_wildcard_equals_label_union () =
  (* a single wildcard edge matches exactly the union over per-label
     queries *)
  let g = graph () in
  let tai = Tai.build g in
  let w = window 5 30 in
  let wild =
    Tsrjoin.evaluate tai (Query.make ~n_vars:2 ~edges:[ (any, 0, 1) ] ~window:w)
  in
  let by_label =
    List.concat_map
      (fun lbl ->
        Tsrjoin.evaluate tai
          (Query.make ~n_vars:2 ~edges:[ (lbl, 0, 1) ] ~window:w))
      [ 0; 1; 2 ]
  in
  Test_util.check_same_results ~msg:"wildcard = union over labels" by_label wild

let test_wildcard_durable () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  let q =
    Query.with_min_duration
      (Query.make ~n_vars:3 ~edges:[ (any, 0, 1); (any, 0, 2) ] ~window:(window 5 30))
      4
  in
  let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
  Array.iter
    (fun m ->
      Alcotest.(check bool)
        (Workload.Engine.method_name m)
        true
        (Match_result.Result_set.equal expected
           (Match_result.Result_set.of_list (Test_util.run engine m q))))
    Workload.Engine.all_methods

let test_wildcard_parallel_and_topk () =
  let g = graph () in
  let tai = Tai.build g in
  let q =
    Query.make ~n_vars:3 ~edges:[ (any, 0, 1); (any, 1, 2) ] ~window:(window 5 30)
  in
  let sequential = Tsrjoin.evaluate tai q in
  Test_util.check_same_results ~msg:"parallel wildcard" sequential
    (Match_result.collect (fun emit ->
         Exec.Parallel.run ~domains:3 tai q ~emit));
  (* the selection fed from the parallel driver's serialized emit *)
  let top = Match_result.Top_k.create 5 in
  Exec.Parallel.run ~domains:3 tai q ~emit:(Match_result.Top_k.offer top);
  Alcotest.(check int) "top-k size" (min 5 (List.length sequential))
    (List.length (Match_result.Top_k.drain top))

let test_wildcard_multi_window () =
  let g = graph () in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (any, 0, 1) ] ~window:(window 0 0) in
  let windows = [ window 0 9; window 10 25; window 5 35 ] in
  let shared = Multi_window.evaluate tai q ~windows in
  List.iteri
    (fun i w ->
      Test_util.check_same_results
        ~msg:(Printf.sprintf "window %d" i)
        (Tsrjoin.evaluate tai (Query.with_window q w))
        shared.(i))
    windows

let prop_wildcard_engines_agree =
  QCheck.Test.make ~name:"wildcard queries agree across engines" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:45 ~n_labels:3
          ~domain:25 ~max_len:8 ()
      in
      let engine = Workload.Engine.prepare g in
      List.for_all
        (fun q ->
          let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
          Array.for_all
            (fun m ->
              Match_result.Result_set.equal expected
                (Match_result.Result_set.of_list
                   (Test_util.run engine m q)))
            Workload.Engine.all_methods)
        (wildcard_queries (window 4 18)))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "wildcards"
    [
      ( "engines",
        [
          Alcotest.test_case "all engines vs oracle" `Quick test_all_engines;
          Alcotest.test_case "wildcard = label union" `Quick
            test_wildcard_equals_label_union;
          Alcotest.test_case "durable wildcard" `Quick test_wildcard_durable;
          Alcotest.test_case "parallel + top-k" `Quick test_wildcard_parallel_and_topk;
          Alcotest.test_case "multi-window" `Quick test_wildcard_multi_window;
        ] );
      qsuite "properties" [ prop_wildcard_engines_agree ];
    ]
