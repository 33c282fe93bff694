(* End-to-end tests of the TSRJoin engine: TAI/ECI indexes, planner, and
   the full operator cross-checked against the naive oracle on the query
   pool and randomized graphs. *)

open Tcsq_core
open Semantics

let window a b = Temporal.Interval.make a b

(* ---------- TAI ---------- *)

let tai_graph () =
  Tgraph.Graph.of_edge_list
    [
      (0, 1, 0, 0, 5);
      (0, 1, 0, 3, 8);
      (0, 2, 0, 1, 2);
      (1, 2, 1, 4, 9);
      (2, 1, 0, 7, 7);
    ]

let test_tai_tsrs () =
  let tai = Tai.build (tai_graph ()) in
  let ids tsr = List.map Tgraph.Edge.id (Tsr.to_list tsr) in
  Alcotest.(check (list int)) "out(0, v0)" [ 0; 2; 1 ]
    (ids (Tai.tsr_out tai ~lbl:0 ~src:0));
  Alcotest.(check (list int)) "in(0, v1)" [ 0; 1; 4 ]
    (ids (Tai.tsr_in tai ~lbl:0 ~dst:1));
  Alcotest.(check (list int)) "between(0, v0, v1)" [ 0; 1 ]
    (ids (Tai.tsr_between tai ~lbl:0 ~src:0 ~dst:1));
  Alcotest.(check (list int)) "missing" [] (ids (Tai.tsr_out tai ~lbl:5 ~src:0));
  (* TSRs are start-sorted *)
  let tsr = Tai.tsr_out tai ~lbl:0 ~src:0 in
  let sorted = ref true in
  for i = 1 to Tsr.length tsr - 1 do
    if Tgraph.Edge.ts (Tsr.get tsr (i - 1)) > Tgraph.Edge.ts (Tsr.get tsr i) then
      sorted := false
  done;
  Alcotest.(check bool) "start-sorted" true !sorted

let test_tai_keys () =
  let tai = Tai.build (tai_graph ()) in
  Alcotest.(check (list int)) "sources(0)" [ 0; 2 ]
    (Array.to_list (Tai.sources tai ~lbl:0));
  Alcotest.(check (list int)) "destinations(0)" [ 1; 2 ]
    (Array.to_list (Tai.destinations tai ~lbl:0));
  Alcotest.(check (list int)) "dsts_of_src" [ 1; 2 ]
    (Array.to_list (Tai.dsts_of_src tai ~lbl:0 ~src:0));
  Alcotest.(check (list int)) "srcs_of_dst" [ 0; 2 ]
    (Array.to_list (Tai.srcs_of_dst tai ~lbl:0 ~dst:1))

let test_tai_eci () =
  let with_eci = Tai.build ~with_eci:true (tai_graph ()) in
  let without = Tai.build ~with_eci:false (tai_graph ()) in
  Alcotest.(check bool) "has eci" true (Tai.has_eci with_eci);
  Alcotest.(check bool) "no eci" false (Tai.has_eci without);
  Alcotest.(check bool) "eci adds storage" true
    (Tai.size_words with_eci > Tai.size_words without);
  Alcotest.(check int) "eci share" (Tai.size_words with_eci - Tai.size_words without)
    (Tai.eci_size_words with_eci);
  let tsr = Tai.tsr_out with_eci ~lbl:0 ~src:0 in
  Alcotest.(check bool) "coverage attached" true (Tsr.coverage tsr <> None);
  Alcotest.(check bool) "coverage absent" true
    (Tsr.coverage (Tai.tsr_out without ~lbl:0 ~src:0) = None);
  (* coverage of R(0, v0, ANY): intervals [0,5] [1,2] [3,8]: eC = 0 on
     [0,5] (edge 0 alive), then 3 on [6,8] (only [3,8] alive) *)
  (match Tsr.get_coverage_tuple tsr 4 with
  | Some tup ->
      Alcotest.(check int) "ec" 0 tup.Temporal.Coverage.ec;
      Alcotest.(check int) "ce" 5 tup.Temporal.Coverage.ce
  | None -> Alcotest.fail "coverage lookup failed");
  match Tsr.get_coverage_tuple tsr 6 with
  | Some tup -> Alcotest.(check int) "ec at 6" 3 tup.Temporal.Coverage.ec
  | None -> Alcotest.fail "coverage lookup failed at 6"

(* ---------- Plan ---------- *)

let test_plan_star_center_first () =
  (* On a graph where label-0/1/2 edges are plentiful, the 3-star plan
     must be a single TSRJoin step at the center. *)
  let g =
    Test_util.random_graph ~seed:1 ~n_vertices:8 ~n_edges:120 ~n_labels:3
      ~domain:50 ~max_len:10 ()
  in
  let tai = Tai.build g in
  let q =
    Pattern.instantiate (Pattern.Star 3) ~labels:[| 0; 1; 2 |]
      ~window:(window 0 49)
  in
  let plan = Plan.build tai q in
  Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate plan));
  Alcotest.(check int) "one step" 1 (Array.length (Plan.steps plan));
  Alcotest.(check int) "pivot is center" 0 (Plan.steps plan).(0).Plan.pivot;
  Alcotest.(check bool) "root leapfrogs" true
    (Plan.steps plan).(0).Plan.produce_binding

let test_plan_validate_rejects () =
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 1, 2) ] ~window:(window 0 9)
  in
  (* pivot order starting at var 2, then 0 would leave var 0 unbound at
     its step... of_pivot_order guards with fallbacks, so instead check
     validate on a handcrafted broken plan via of_pivot_order soundness *)
  let plan = Plan.of_pivot_order q [ 1 ] in
  Alcotest.(check bool) "fallback covers all edges" true
    (Result.is_ok (Plan.validate plan));
  let covered =
    Array.fold_left
      (fun acc step -> acc + Array.length step.Plan.edges)
      0 (Plan.steps plan)
  in
  Alcotest.(check int) "both edges matched" 2 covered

let test_plan_chain_orders () =
  let g =
    Test_util.random_graph ~seed:2 ~n_vertices:8 ~n_edges:100 ~n_labels:4
      ~domain:50 ~max_len:10 ()
  in
  let tai = Tai.build g in
  let q =
    Pattern.instantiate (Pattern.Chain 4) ~labels:[| 0; 1; 2; 3 |]
      ~window:(window 0 49)
  in
  let plan = Plan.build tai q in
  Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate plan));
  (* all steps after the first extend bound pivots *)
  Array.iteri
    (fun i step ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "step %d extends" i)
          false step.Plan.produce_binding)
    (Plan.steps plan)

(* ---------- TSRJoin vs oracle ---------- *)

let engine_configs =
  [
    ("basic", Tsrjoin.basic_config);
    ("opt-none", { Tsrjoin.default_config with mode = Tsrjoin.Optimized Lfto_opt.all_off });
    ("opt-all", Tsrjoin.default_config);
  ]

let check_engine_matches_oracle ~msg g q =
  let expected = Naive.evaluate g q in
  let tai = Tai.build g in
  List.iter
    (fun (name, config) ->
      let actual = Tsrjoin.evaluate ~config tai q in
      (* every produced match passes the verifier *)
      List.iter
        (fun m ->
          match Match_result.verify g q m with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s/%s: invalid match: %s" msg name e)
        actual;
      Test_util.check_same_results ~msg:(msg ^ "/" ^ name) expected actual)
    engine_configs

let test_engine_query_pool () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  List.iteri
    (fun i q -> check_engine_matches_oracle ~msg:(Printf.sprintf "pool query %d" i) g q)
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 30))

let test_engine_narrow_window () =
  let g =
    Test_util.random_graph ~seed:12 ~n_vertices:5 ~n_edges:60 ~n_labels:2
      ~domain:40 ~max_len:12 ()
  in
  List.iteri
    (fun i q ->
      check_engine_matches_oracle ~msg:(Printf.sprintf "narrow %d" i) g q)
    (Test_util.query_pool ~n_labels:2 ~window:(window 20 21))

let test_engine_empty_graph_label () =
  (* query label that does not exist in the graph *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let q = Query.make ~n_vars:2 ~edges:[ (3, 0, 1) ] ~window:(window 0 9) in
  let tai = Tai.build g in
  Alcotest.(check int) "no matches" 0 (Tsrjoin.count tai q)

let test_engine_respects_limits () =
  let g =
    Test_util.random_graph ~seed:13 ~n_vertices:4 ~n_edges:60 ~n_labels:1
      ~domain:20 ~max_len:20 ()
  in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 19) in
  let stats =
    Run_stats.create ~limits:{ Run_stats.max_results = 5; max_intermediate = max_int } ()
  in
  (try ignore (Tsrjoin.count ~stats tai q) with Run_stats.Limit_exceeded _ -> ());
  Alcotest.(check bool) "stopped at limit" true (stats.Run_stats.results <= 6)

let test_engine_lifespan_full_intersection () =
  (* lifespans may extend beyond the query window (paper example:
     (e4, e8, e12) has lifespan [15,15] for window [10,20], but a pair
     overlapping on [5,15] keeps the full [5,15] even for window
     [10,20]) *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 5, 15); (0, 2, 1, 5, 18) ] in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 10 20)
  in
  let tai = Tai.build g in
  match Tsrjoin.evaluate tai q with
  | [ m ] ->
      Alcotest.(check int) "life start" 5 (Temporal.Interval.ts m.Match_result.life);
      Alcotest.(check int) "life end" 15 (Temporal.Interval.te m.Match_result.life)
  | ms -> Alcotest.failf "expected 1 match, got %d" (List.length ms)

let test_engine_intermediate_counted () =
  let g =
    Test_util.random_graph ~seed:14 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let tai = Tai.build g in
  let q =
    Pattern.instantiate (Pattern.Chain 3) ~labels:[| 0; 1; 2 |] ~window:(window 0 39)
  in
  let stats = Run_stats.create () in
  let n = Tsrjoin.count ~stats tai q in
  Alcotest.(check bool) "intermediate >= results" true
    (stats.Run_stats.intermediate >= n);
  Alcotest.(check int) "results counted" n stats.Run_stats.results

(* ---------- randomized equivalence ---------- *)

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"TSRJoin = oracle on random graphs" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:50 ~n_labels:3
          ~domain:30 ~max_len:8 ()
      in
      let tai = Tai.build g in
      let queries = Test_util.query_pool ~n_labels:3 ~window:(window 5 22) in
      List.for_all
        (fun q ->
          let expected =
            Match_result.Result_set.of_list (Naive.evaluate g q)
          in
          List.for_all
            (fun (_, config) ->
              Match_result.Result_set.equal expected
                (Match_result.Result_set.of_list (Tsrjoin.evaluate ~config tai q)))
            engine_configs)
        queries)

let prop_engine_window_sweep =
  QCheck.Test.make ~name:"TSRJoin = oracle across windows" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 29))
    (fun (seed, ws) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:4 ~n_edges:40 ~n_labels:2
          ~domain:30 ~max_len:6 ()
      in
      let tai = Tai.build g in
      let q =
        Query.make ~n_vars:3
          ~edges:[ (0, 0, 1); (1, 1, 2) ]
          ~window:(window ws (ws + 5))
      in
      Match_result.Result_set.equal
        (Match_result.Result_set.of_list (Naive.evaluate g q))
        (Match_result.Result_set.of_list (Tsrjoin.evaluate tai q)))

(* ---------- counted tail = enumerated tail ---------- *)

(* A graph whose sources and targets are skewed towards vertex 0 (cubed
   uniform draws), with self loops, shared start times and a few
   intervals far longer than the rest. *)
let skewed_graph rs =
  let n_vertices = 2 + Random.State.int rs 6 in
  let vertex () =
    let u = Random.State.float rs 1.0 in
    min (n_vertices - 1) (int_of_float (float_of_int n_vertices *. u *. u *. u))
  in
  let edge _ =
    let src = vertex () in
    let dst = if Random.State.int rs 8 = 0 then src else vertex () in
    let ts = 2 * Random.State.int rs 15 in
    let len =
      if Random.State.int rs 10 = 0 then Random.State.int rs 30
      else Random.State.int rs 5
    in
    (src, dst, Random.State.int rs 3, ts, ts + len)
  in
  Tgraph.Graph.of_edge_list (List.init (10 + Random.State.int rs 60) edge)

let shuffle rs l =
  List.map (fun x -> (Random.State.bits rs, x)) l
  |> List.sort compare |> List.map snd

(* one run: its matches in emission order, the matches counted instead,
   the exception it ended with and its stats *)
let run_counted ~config ~plan ~limits ~limit tai q =
  let stats = Run_stats.create ~limits () in
  let counted = ref 0 in
  let emitted = ref [] in
  let ended =
    match
      Tsrjoin.run ~stats ~config ~plan ~limit ~counted tai q ~emit:(fun m ->
          emitted := m :: !emitted)
    with
    | () -> None
    | exception Run_stats.Limit_exceeded why -> Some why
  in
  (List.rev !emitted, !counted, ended, stats)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let prop_counted_tail =
  QCheck.Test.make ~name:"counted tail = enumerated tail" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let g = skewed_graph rs in
      let tai = Tai.build g in
      let ws = Random.State.int rs 30 in
      let q =
        Testkit.random_query ~seed ~n_labels:3 ~max_edges:4
          ~window:(window ws (ws + Random.State.int rs 30))
      in
      let q =
        if Random.State.int rs 6 = 0 then
          Query.with_min_duration q (2 + Random.State.int rs 3)
        else q
      in
      let plan =
        Plan.of_pivot_order q (shuffle rs (List.init (Query.n_vars q) Fun.id))
      in
      let config =
        match Random.State.int rs 6 with
        | 0 -> Tsrjoin.basic_config
        | 1 ->
            let flag () = Random.State.bool rs in
            {
              Tsrjoin.default_config with
              mode =
                Tsrjoin.Optimized
                  {
                    Lfto_opt.use_eci = flag ();
                    use_del_skip = flag ();
                    use_lazy = flag ();
                  };
            }
        | _ -> Tsrjoin.default_config
      in
      let budget () =
        if Random.State.bool rs then max_int else Random.State.int rs 60
      in
      let limits =
        if Random.State.bool rs then Run_stats.no_limits
        else { Run_stats.max_results = budget (); max_intermediate = budget () }
      in
      let limit =
        match Random.State.int rs 7 with
        | 0 | 1 -> 0
        | 2 | 3 -> 1
        | 4 | 5 -> Random.State.int rs 20
        | _ -> max_int
      in
      let full, full_counted, full_end, full_stats =
        run_counted ~config ~plan ~limits ~limit:max_int tai q
      in
      let part, part_counted, part_end, part_stats =
        run_counted ~config ~plan ~limits ~limit tai q
      in
      let total = List.length full in
      let shown = min limit total in
      let fail fmt =
        QCheck.Test.fail_reportf ("seed %d, limit %d: " ^^ fmt) seed limit
      in
      if full_counted <> 0 then fail "counted %d at limit max_int" full_counted
      else if List.length part + part_counted <> total then
        fail "total %d + %d, enumerated %d" (List.length part) part_counted
          total
      else if part_end <> full_end then fail "different ending"
      else if take shown part <> take shown full then
        fail "first %d matches differ" shown
      else if
        Run_stats.counters part_stats <> Run_stats.counters full_stats
        || Run_stats.levels part_stats <> Run_stats.levels full_stats
      then
        fail "stats %s, enumerated %s"
          (Format.asprintf "%a" Run_stats.pp part_stats)
          (Format.asprintf "%a" Run_stats.pp full_stats)
      else if full_end = None && total <> List.length (Naive.evaluate g q) then
        fail "total %d, oracle %d" total (List.length (Naive.evaluate g q))
      else true)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tsrjoin"
    [
      ( "tai",
        [
          Alcotest.test_case "tsr retrieval" `Quick test_tai_tsrs;
          Alcotest.test_case "key sets" `Quick test_tai_keys;
          Alcotest.test_case "eci" `Quick test_tai_eci;
        ] );
      ( "plan",
        [
          Alcotest.test_case "star center first" `Quick test_plan_star_center_first;
          Alcotest.test_case "pivot-order fallback" `Quick test_plan_validate_rejects;
          Alcotest.test_case "chain extends bound pivots" `Quick test_plan_chain_orders;
        ] );
      ( "engine",
        [
          Alcotest.test_case "query pool vs oracle" `Quick test_engine_query_pool;
          Alcotest.test_case "narrow window vs oracle" `Quick test_engine_narrow_window;
          Alcotest.test_case "unknown label" `Quick test_engine_empty_graph_label;
          Alcotest.test_case "limits respected" `Quick test_engine_respects_limits;
          Alcotest.test_case "full-intersection lifespan" `Quick
            test_engine_lifespan_full_intersection;
          Alcotest.test_case "intermediate counters" `Quick test_engine_intermediate_counted;
        ] );
      qsuite "properties"
        [ prop_engine_matches_oracle; prop_engine_window_sweep; prop_counted_tail ];
    ]
