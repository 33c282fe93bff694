(* Tests for the extension features: the adaptive (deferring) planner
   and top-k durable matches. *)

open Semantics
open Tcsq_core

let window a b = Temporal.Interval.make a b

(* ---------- adaptive planner ---------- *)

let test_adaptive_valid_and_equivalent () =
  let g =
    Test_util.random_graph ~seed:31 ~n_vertices:6 ~n_edges:90 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let tai = Tai.build g in
  List.iteri
    (fun i q ->
      let plan = Plan.build_adaptive tai q in
      (match Plan.validate plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "query %d: invalid adaptive plan: %s" i e);
      let expected =
        Match_result.Result_set.of_list (Tsrjoin.evaluate tai q)
      in
      let actual =
        Match_result.Result_set.of_list (Tsrjoin.evaluate ~plan tai q)
      in
      match Match_result.Result_set.diff_summary ~expected ~actual with
      | None -> ()
      | Some diff -> Alcotest.failf "query %d: adaptive differs: %s" i diff)
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 30))

let test_adaptive_defers_skewed_edge () =
  (* A 2-star whose second label is enormously more frequent: the
     adaptive plan should split the star into two steps. *)
  let b = Tgraph.Graph.Builder.create () in
  let edge src dst lbl ts te =
    ignore (Tgraph.Graph.Builder.add_edge_named b ~src ~dst ~lbl ~ts ~te)
  in
  (* rare label "r": a couple of edges; frequent label "f": many *)
  edge 0 1 "r" 0 5;
  edge 2 1 "r" 4 9;
  for i = 0 to 199 do
    edge (i mod 5) ((i + 1) mod 7) "f" (i mod 50) ((i mod 50) + 3)
  done;
  let g = Tgraph.Graph.Builder.finish b in
  let r = Option.get (Tgraph.Label.find (Tgraph.Graph.labels g) "r") in
  let f = Option.get (Tgraph.Label.find (Tgraph.Graph.labels g) "f") in
  let tai = Tai.build g in
  (* chain x0 -r-> x1 -f-> x2: pivot x1 would normally match both at
     once *)
  let q =
    Query.make ~n_vars:3 ~edges:[ (r, 0, 1); (f, 1, 2) ] ~window:(window 0 49)
  in
  let adaptive = Plan.build_adaptive ~defer_ratio:2.0 tai q in
  Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate adaptive));
  Alcotest.(check bool)
    "more steps than the greedy plan" true
    (Array.length (Plan.steps adaptive) >= 2);
  (* results unchanged *)
  let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
  let actual =
    Match_result.Result_set.of_list (Tsrjoin.evaluate ~plan:adaptive tai q)
  in
  Alcotest.(check bool) "same results" true
    (Match_result.Result_set.equal expected actual)

let test_adaptive_rejects_bad_ratio () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 9) in
  Alcotest.check_raises "ratio < 1" (Invalid_argument "") (fun () ->
      try ignore (Plan.build_adaptive ~defer_ratio:0.5 tai q)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_adaptive_equivalent =
  QCheck.Test.make ~name:"adaptive plans compute the same results" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 10 80))
    (fun (seed, ratio10) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:50 ~n_labels:3
          ~domain:30 ~max_len:8 ()
      in
      let tai = Tai.build g in
      let defer_ratio = float_of_int ratio10 /. 10.0 in
      List.for_all
        (fun q ->
          let plan = Plan.build_adaptive ~defer_ratio tai q in
          Result.is_ok (Plan.validate plan)
          && Match_result.Result_set.equal
               (Match_result.Result_set.of_list (Naive.evaluate g q))
               (Match_result.Result_set.of_list (Tsrjoin.evaluate ~plan tai q)))
        (Test_util.query_pool ~n_labels:3 ~window:(window 5 22)))

(* ---------- top-k durable matches ---------- *)

let top_k tai q k =
  let top = Match_result.Top_k.create k in
  Tsrjoin.run tai q ~emit:(Match_result.Top_k.offer top);
  Match_result.Top_k.drain top

let top_k_by_sorting tai q k =
  Tsrjoin.evaluate tai q
  |> List.sort (fun a b ->
         let c =
           Int.compare (Match_result.durability b) (Match_result.durability a)
         in
         if c <> 0 then c else Match_result.compare a b)
  |> List.filteri (fun i _ -> i < k)

let test_top_k_matches_sorting () =
  let g =
    Test_util.random_graph ~seed:33 ~n_vertices:6 ~n_edges:90 ~n_labels:3
      ~domain:40 ~max_len:12 ()
  in
  let tai = Tai.build g in
  List.iteri
    (fun i q ->
      List.iter
        (fun k ->
          let expected = top_k_by_sorting tai q k in
          let actual = top_k tai q k in
          if
            not
              (List.equal
                 (fun a b -> Match_result.compare a b = 0)
                 expected actual)
          then
            Alcotest.failf "query %d, k = %d: top-k mismatch (%d vs %d items)" i
              k (List.length expected) (List.length actual))
        [ 1; 2; 3; 10; 1000; max_int ])
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 30))

let test_top_k_ordering () =
  let g =
    Test_util.random_graph ~seed:34 ~n_vertices:5 ~n_edges:70 ~n_labels:2
      ~domain:30 ~max_len:10 ()
  in
  let tai = Tai.build g in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 0 29)
  in
  let top = top_k tai q 5 in
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        let da = Match_result.durability a and db = Match_result.durability b in
        (da > db || (da = db && Match_result.compare a b < 0))
        && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check int) "five kept" 5 (List.length top);
  Alcotest.(check bool) "sorted by durability, then match order" true
    (non_increasing top);
  (* the drain empties the selection *)
  let sel = Match_result.Top_k.create 2 in
  List.iter (Match_result.Top_k.offer sel) top;
  Alcotest.(check int) "first drain" 2 (List.length (Match_result.Top_k.drain sel));
  Alcotest.(check int) "second drain" 0 (List.length (Match_result.Top_k.drain sel))

let test_top_k_validation () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (2, 3, 0, 1, 2) ] in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 9) in
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "k = %d" k)
        (Invalid_argument "Match_result.Top_k.create: need k >= 1")
        (fun () -> ignore (Match_result.Top_k.create k)))
    [ 0; -1; min_int ];
  (* storage follows the matches kept, not k: a huge k keeps everything *)
  Alcotest.(check (list int)) "huge k = every match, most durable first"
    [ 6; 2 ]
    (List.map Match_result.durability (top_k tai q (max_int - 1)))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "extensions"
    [
      ( "adaptive-plan",
        [
          Alcotest.test_case "valid + equivalent on pool" `Quick
            test_adaptive_valid_and_equivalent;
          Alcotest.test_case "defers the skewed edge" `Quick
            test_adaptive_defers_skewed_edge;
          Alcotest.test_case "rejects ratio < 1" `Quick test_adaptive_rejects_bad_ratio;
        ] );
      ( "durable-top-k",
        [
          Alcotest.test_case "equals sort-based top-k" `Quick test_top_k_matches_sorting;
          Alcotest.test_case "ordering" `Quick test_top_k_ordering;
          Alcotest.test_case "validation" `Quick test_top_k_validation;
        ] );
      qsuite "properties" [ prop_adaptive_equivalent ];
    ]
