(* The plan cache's own contract: LRU bound, capacity-0 passthrough,
   generation invalidation, window-length bucketing of the key,
   poisoning/replan flow, counter exactness under concurrent domains,
   and the headline safety property — a cached plan never changes the
   result set (QCheck differential against a cache-free engine). *)

open Semantics
module Plan_cache = Workload.Plan_cache

let window = Temporal.Interval.make 0 63

let graph () =
  Test_util.random_graph ~seed:97 ~n_vertices:8 ~n_edges:120 ~n_labels:4
    ~domain:48 ~max_len:12 ()

let engine = lazy (Workload.Engine.prepare (graph ()))

(* distinct single-edge shapes: label l keys apart from label l' *)
let q_label l =
  Query.make ~n_vars:2 ~edges:[ (l, 0, 1) ] ~window

let plan_for q =
  Tcsq_core.Plan.build (Workload.Engine.tai (Lazy.force engine)) q

let store_q cache q =
  Plan_cache.store cache q ~plan:(plan_for q) ~est_intermediate:10
    ~est_levels:[| 10 |]

let is_hit = function Plan_cache.Hit _ -> true | _ -> false
let is_miss = function Plan_cache.Miss -> true | _ -> false
let is_replan = function Plan_cache.Replan _ -> true | _ -> false

(* ---- LRU eviction order ---- *)

let test_lru_eviction () =
  let cache = Plan_cache.create ~capacity:2 () in
  let a = q_label 0 and b = q_label 1 and c = q_label 2 in
  store_q cache a;
  store_q cache b;
  (* touching [a] makes [b] the least recently used *)
  Alcotest.(check bool) "a hits" true (is_hit (Plan_cache.lookup cache a));
  store_q cache c;
  Alcotest.(check int) "bounded" 2 (Plan_cache.length cache);
  Alcotest.(check bool) "b was evicted" true
    (is_miss (Plan_cache.lookup cache b));
  Alcotest.(check bool) "a survived" true
    (is_hit (Plan_cache.lookup cache a));
  Alcotest.(check bool) "c survived" true
    (is_hit (Plan_cache.lookup cache c));
  let cs = Plan_cache.counters cache in
  Alcotest.(check int) "one eviction" 1 cs.Plan_cache.evictions;
  Alcotest.(check int) "hits counted" 3 cs.Plan_cache.hits;
  Alcotest.(check int) "misses counted" 1 cs.Plan_cache.misses

(* ---- capacity 0 is a passthrough ---- *)

let test_capacity_zero () =
  let cache = Plan_cache.create ~capacity:0 () in
  let q = q_label 0 in
  store_q cache q;
  Alcotest.(check int) "nothing stored" 0 (Plan_cache.length cache);
  Alcotest.(check bool) "always a miss" true
    (is_miss (Plan_cache.lookup cache q));
  let cs = Plan_cache.counters cache in
  Alcotest.(check int) "miss counted" 1 cs.Plan_cache.misses;
  Alcotest.(check int) "no hit" 0 cs.Plan_cache.hits

(* ---- generation invalidation drops everything ---- *)

let test_generation_invalidation () =
  let cache = Plan_cache.create () in
  store_q cache (q_label 0);
  store_q cache (q_label 1);
  let g0 = Plan_cache.generation cache in
  Plan_cache.bump_generation cache;
  Alcotest.(check int) "generation bumped" (g0 + 1)
    (Plan_cache.generation cache);
  Alcotest.(check int) "empty" 0 (Plan_cache.length cache);
  Alcotest.(check int) "invalidation counter" 2
    (Plan_cache.counters cache).Plan_cache.invalidations;
  Alcotest.(check bool) "entries gone" true
    (is_miss (Plan_cache.lookup cache (q_label 0)))

(* ---- window-length bucketing of the key ---- *)

let q_window_len len =
  Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ]
    ~window:(Temporal.Interval.make 0 (len - 1))

let test_window_buckets () =
  (* 2^k and 2^k + 1 always land in different buckets... *)
  List.iter
    (fun k ->
      let len = 1 lsl k in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d <> bucket %d" len (len + 1))
        true
        (Plan_cache.window_bucket len <> Plan_cache.window_bucket (len + 1)))
    [ 1; 2; 3; 4; 5; 10 ];
  (* ...so the cached entry for a 2^k-length window never serves the
     2^k + 1 query, while same-bucket lengths share it *)
  let cache = Plan_cache.create () in
  store_q cache (q_window_len 8);
  Alcotest.(check bool) "len 9 keys apart" true
    (is_miss (Plan_cache.lookup cache (q_window_len 9)));
  Alcotest.(check bool) "len 7 shares the 5..8 bucket" true
    (is_hit (Plan_cache.lookup cache (q_window_len 7)));
  Alcotest.(check string) "canonical plan forms differ"
    (Fingerprint.canonical_plan (q_window_len 8))
    (Fingerprint.canonical_plan (q_window_len 7));
  Alcotest.(check bool) "canonical plan form splits at 9" true
    (Fingerprint.canonical_plan (q_window_len 8)
    <> Fingerprint.canonical_plan (q_window_len 9))

(* ---- poisoning / replan flow ---- *)

let test_replan_flow () =
  let cache = Plan_cache.create () in
  let q = q_label 0 in
  store_q cache q;
  (* est 10 vs measured 1000: x100 misestimation, twice in a row *)
  Plan_cache.feedback cache q ~levels:[| 1000 |];
  Alcotest.(check bool) "one strike keeps serving" true
    (is_hit (Plan_cache.lookup cache q));
  Plan_cache.feedback cache q ~levels:[| 1000 |];
  let v = Plan_cache.lookup cache q in
  Alcotest.(check bool) "second strike poisons" true (is_replan v);
  (match v with
  | Plan_cache.Replan { edge_scale } ->
      (* the calibration factors carry the observed blow-up upward *)
      Array.iter
        (fun e -> Alcotest.(check bool) "scale > 1" true (edge_scale e > 1.0))
        (Query.edges q)
  | _ -> ());
  Alcotest.(check int) "replan counted" 1
    (Plan_cache.counters cache).Plan_cache.replans;
  (* re-storing clears the poison and an accurate run keeps it clear *)
  store_q cache q;
  Plan_cache.feedback cache q ~levels:[| 10 |];
  Plan_cache.feedback cache q ~levels:[| 1000 |];
  Alcotest.(check bool) "poison cleared by store + accurate run" true
    (is_hit (Plan_cache.lookup cache q))

(* a re-planned entry keeps its calibration: its stored estimates are
   the static ones, so the same misestimation must not poison it again *)
let test_replan_once_then_hits () =
  let cache = Plan_cache.create () in
  let q = q_label 0 in
  store_q cache q;
  Plan_cache.feedback cache q ~levels:[| 1000 |];
  Plan_cache.feedback cache q ~levels:[| 1000 |];
  Alcotest.(check bool) "misestimated shape re-plans" true
    (is_replan (Plan_cache.lookup cache q));
  store_q cache q;
  for run = 1 to 6 do
    Plan_cache.feedback cache q ~levels:[| 1000 |];
    Alcotest.(check bool) (Printf.sprintf "run %d after the re-plan hits" run) true
      (is_hit (Plan_cache.lookup cache q))
  done;
  Alcotest.(check int) "one re-plan" 1 (Plan_cache.counters cache).Plan_cache.replans;
  (* a new generation drops the calibrated entry with everything else *)
  Plan_cache.bump_generation cache;
  Alcotest.(check bool) "gone after the generation bump" true
    (is_miss (Plan_cache.lookup cache q))

(* the same through the engine: the cost model ignores LASTING, so a
   wildcard 2-chain with a duration floor is estimated at 189 partial
   matches at level 1 where 1 survives. The first two runs are the two
   strikes, the third re-plans, and the calibrated entry serves every
   run after that. *)
let test_engine_replans_once () =
  let e = Lazy.force engine in
  let cache = Plan_cache.create () in
  let q =
    Query.with_min_duration
      (Query.make ~n_vars:3
         ~edges:[ (Query.any_label, 0, 1); (Query.any_label, 1, 2) ]
         ~window)
      12
  in
  let sources =
    List.init 8 (fun _ ->
        let src = ref None in
        ignore
          (Test_util.run ~plan_cache:cache ~plan_source:src e
             Workload.Engine.Tsrjoin q);
        Option.get !src)
  in
  Alcotest.(check (list string)) "fresh, cached, re-planned, then cached"
    ("fresh" :: "cached" :: "replanned" :: List.init 5 (fun _ -> "cached"))
    (List.map Plan_cache.source_name sources)

(* ---- concurrent counter exactness ---- *)

let test_concurrent_counters () =
  let cache = Plan_cache.create () in
  let hot = q_label 0 in
  store_q cache hot;
  let per_domain = 500 in
  let worker lbl () =
    let cold = q_label lbl in
    for _ = 1 to per_domain do
      ignore (Plan_cache.lookup cache hot);
      (* never stored: a guaranteed miss, from every domain *)
      ignore (Plan_cache.lookup cache cold)
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (10 + i))) in
  List.iter Domain.join domains;
  let cs = Plan_cache.counters cache in
  Alcotest.(check int) "hits exact" (4 * per_domain) cs.Plan_cache.hits;
  Alcotest.(check int) "misses exact" (4 * per_domain) cs.Plan_cache.misses;
  Alcotest.(check int) "no spurious replans" 0 cs.Plan_cache.replans

(* ---- cached-vs-fresh differential (the safety property) ---- *)

let prop_cached_equals_fresh =
  let g = graph () in
  let e = Workload.Engine.prepare g in
  let cache = Plan_cache.create () in
  QCheck.Test.make ~name:"cached plan never changes the result set"
    ~count:100
    (QCheck.make
       ~print:(fun seed ->
         Format.asprintf "%a" Query.pp
           (Testkit.random_query ~seed ~n_labels:4 ~max_edges:3 ~window))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let q = Testkit.random_query ~seed ~n_labels:4 ~max_edges:3 ~window in
      let fresh = Test_util.run e Workload.Engine.Tsrjoin q in
      (* twice through the shared cache: miss-then-store, then hit *)
      let c1 =
        Test_util.run ~plan_cache:cache e Workload.Engine.Tsrjoin q
      in
      let c2 =
        Test_util.run ~plan_cache:cache e Workload.Engine.Tsrjoin q
      in
      (* set equality: a plan transferred from an equivalence-class
         sibling may enumerate the same matches in a different order *)
      let sort = List.sort Match_result.compare in
      let eq a b =
        List.length a = List.length b
        && List.for_all2 Match_result.equal (sort a) (sort b)
      in
      eq fresh c1 && eq fresh c2)

(* after an append-style graph change the caller bumps the generation:
   stale plans must all drop, and the refreshed engine agrees with a
   cache-free one on the new graph *)
let test_invalidation_after_ingest () =
  let g = graph () in
  let e = Workload.Engine.prepare g in
  let cache = Plan_cache.create () in
  let qs = List.init 4 (fun l -> q_label l) in
  List.iter
    (fun q ->
      ignore
        (Test_util.run ~plan_cache:cache e Workload.Engine.Tsrjoin
           q))
    qs;
  Alcotest.(check int) "entries cached" 4 (Plan_cache.length cache);
  let g' =
    Tgraph.Graph.append g
      [ (0, 1, 0, 40, 45); (2, 3, 1, 41, 46); (4, 5, 2, 42, 47) ]
  in
  let e' = Workload.Engine.prepare g' in
  Plan_cache.bump_generation cache;
  Alcotest.(check int) "all entries dropped" 0 (Plan_cache.length cache);
  let before = (Plan_cache.counters cache).Plan_cache.misses in
  List.iter
    (fun q ->
      let fresh = Test_util.run e' Workload.Engine.Tsrjoin q in
      let cached =
        Test_util.run ~plan_cache:cache e' Workload.Engine.Tsrjoin
          q
      in
      let sort = List.sort Match_result.compare in
      Alcotest.(check bool) "post-ingest results agree" true
        (List.length fresh = List.length cached
        && List.for_all2 Match_result.equal (sort fresh) (sort cached)))
    qs;
  Alcotest.(check int) "every post-ingest first run re-planned"
    (before + 4)
    (Plan_cache.counters cache).Plan_cache.misses

let () =
  Alcotest.run "plan_cache"
    [
      ( "unit",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "capacity 0 passthrough" `Quick
            test_capacity_zero;
          Alcotest.test_case "generation invalidation" `Quick
            test_generation_invalidation;
          Alcotest.test_case "window-length buckets" `Quick
            test_window_buckets;
          Alcotest.test_case "poisoning and replan" `Quick test_replan_flow;
          Alcotest.test_case "re-plans once, then hits" `Quick
            test_replan_once_then_hits;
          Alcotest.test_case "engine re-plans a shape once" `Quick
            test_engine_replans_once;
          Alcotest.test_case "concurrent counter exactness" `Quick
            test_concurrent_counters;
          Alcotest.test_case "invalidation after ingest" `Quick
            test_invalidation_after_ingest;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_cached_equals_fresh ]
      );
    ]
