(* Tests for Multi_window shared evaluation and the Analytics
   aggregations. *)

open Semantics
open Tcsq_core

let window a b = Temporal.Interval.make a b
let mk edges a b = Match_result.make edges (window a b)

(* ---------- Analytics ---------- *)

let matches () =
  [ mk [| 0 |] 0 9; mk [| 1 |] 5 14; mk [| 2 |] 20 20 ]

let test_histogram () =
  let hist =
    Analytics.lifespan_histogram ~n_buckets:3 ~over:(window 0 29) (matches ())
  in
  Alcotest.(check int) "buckets" 3 (Array.length hist);
  let counts = Array.map snd hist in
  (* buckets [0,9] [10,19] [20,29]: first has m0+m1, second m1, third m2 *)
  Alcotest.(check (array int)) "counts" [| 2; 1; 1 |] counts;
  let bucket0, _ = hist.(0) in
  Alcotest.(check int) "bucket bounds" 9 (Temporal.Interval.te bucket0)

let test_active_at () =
  let ms = matches () in
  Alcotest.(check int) "at 7" 2 (Analytics.active_at ms ~t:7);
  Alcotest.(check int) "at 12" 1 (Analytics.active_at ms ~t:12);
  Alcotest.(check int) "at 15" 0 (Analytics.active_at ms ~t:15)

let test_peak () =
  (match Analytics.peak ~n_buckets:3 ~over:(window 0 29) (matches ()) with
  | Some (bucket, count) ->
      Alcotest.(check int) "peak count" 2 count;
      Alcotest.(check int) "peak bucket start" 0 (Temporal.Interval.ts bucket)
  | None -> Alcotest.fail "expected a peak");
  Alcotest.(check bool) "no peak on empty" true
    (Analytics.peak ~over:(window 0 9) [] = None)

let test_durability_summary () =
  match Analytics.durability_summary (matches ()) with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check int) "count" 3 s.Analytics.count;
      Alcotest.(check int) "min" 1 s.Analytics.min_len;
      Alcotest.(check int) "max" 10 s.Analytics.max_len;
      Alcotest.(check int) "median" 10 s.Analytics.median_len;
      Alcotest.(check bool) "mean" true (abs_float (s.Analytics.mean_len -. 7.0) < 1e-9)

(* ---------- Multi_window ---------- *)

let test_multi_window_equals_independent () =
  let g =
    Test_util.random_graph ~seed:61 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:50 ~max_len:12 ()
  in
  let tai = Tai.build g in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 0 0)
  in
  let windows = [ window 0 9; window 5 14; window 30 49; window 0 49 ] in
  let shared = Multi_window.evaluate tai q ~windows in
  List.iteri
    (fun i w ->
      let independent =
        Match_result.Result_set.of_list
          (Tsrjoin.evaluate tai (Query.with_window q w))
      in
      let from_shared = Match_result.Result_set.of_list shared.(i) in
      match
        Match_result.Result_set.diff_summary ~expected:independent
          ~actual:from_shared
      with
      | None -> ()
      | Some diff ->
          Alcotest.failf "window %d (%s): %s" i (Temporal.Interval.to_string w)
            diff)
    windows

let test_multi_window_validation () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 5) in
  Alcotest.check_raises "no windows" (Invalid_argument "") (fun () ->
      try ignore (Multi_window.evaluate tai q ~windows:[])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_sliding () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (0, 1, 0, 12, 18) ] in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 0) in
  let slices =
    Multi_window.sliding tai q ~width:10 ~stride:10 ~over:(window 0 19)
  in
  Alcotest.(check int) "two slices" 2 (List.length slices);
  let counts = List.map (fun (_, ms) -> List.length ms) slices in
  Alcotest.(check (list int)) "per-slice matches" [ 1; 1 ] counts;
  Alcotest.check_raises "bad stride" (Invalid_argument "") (fun () ->
      try ignore (Multi_window.sliding tai q ~width:5 ~stride:0 ~over:(window 0 9))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_multi_window_equals_independent =
  QCheck.Test.make ~name:"multi-window = independent evaluation" ~count:40
    QCheck.(pair (int_range 0 10_000) (list_of_size (QCheck.Gen.int_range 1 5) (int_range 0 40)))
    (fun (seed, starts) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:40 ~n_labels:2
          ~domain:50 ~max_len:10 ()
      in
      let tai = Tai.build g in
      let q =
        Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 1, 2) ] ~window:(window 0 0)
      in
      let windows = List.map (fun s -> window s (s + 8)) starts in
      let shared = Multi_window.evaluate tai q ~windows in
      List.for_all2
        (fun w shared_ms ->
          Match_result.Result_set.equal
            (Match_result.Result_set.of_list
               (Tsrjoin.evaluate tai (Query.with_window q w)))
            (Match_result.Result_set.of_list shared_ms))
        windows (Array.to_list shared))

let () =
  Alcotest.run "analytics"
    [
      ( "analytics",
        [
          Alcotest.test_case "lifespan histogram" `Quick test_histogram;
          Alcotest.test_case "active_at" `Quick test_active_at;
          Alcotest.test_case "peak" `Quick test_peak;
          Alcotest.test_case "durability summary" `Quick test_durability_summary;
        ] );
      ( "multi_window",
        [
          Alcotest.test_case "equals independent" `Quick
            test_multi_window_equals_independent;
          Alcotest.test_case "validation" `Quick test_multi_window_validation;
          Alcotest.test_case "sliding" `Quick test_sliding;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_multi_window_equals_independent ] );
    ]
