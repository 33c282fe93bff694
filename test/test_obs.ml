(* Observability layer tests: differential traced-vs-untraced runs over
   every engine method, sink/trace unit behavior under a fake clock,
   Chrome trace export validity, the histogram's quantile error bound
   (QCheck, against the exact percentile estimator), and the percentile
   estimator's edge cases. *)

open Semantics

let window a b = Temporal.Interval.make a b
let live_sink () = Obs.Sink.create ~clock:Unix.gettimeofday ()

let test_graph () =
  Test_util.random_graph ~seed:41 ~n_vertices:6 ~n_edges:90 ~n_labels:3
    ~domain:40 ~max_len:10 ()

(* ---------- differential: instrumentation never changes results ---------- *)

let test_traced_equals_untraced () =
  let engine = Workload.Engine.prepare (test_graph ()) in
  let queries = Test_util.query_pool ~n_labels:3 ~window:(window 8 30) in
  Array.iter
    (fun m ->
      List.iteri
        (fun qi q ->
          let untraced = Test_util.run engine m q in
          let traced =
            Test_util.run ~obs:(live_sink ()) engine m q
          in
          Test_util.check_same_results
            ~msg:
              (Printf.sprintf "traced %s, query %d"
                 (Workload.Engine.method_name m) qi)
            untraced traced)
        queries)
    Workload.Engine.all_methods;
  (* a limit-100 run past which TSRJoin counts the last level: traced
     and untraced, it ships the same matches, counts the same tail and
     ticks the same counters, and the counted calls open the same TAI
     probe, slice and sweep spans as enumerating ones *)
  let g =
    Test_util.random_graph ~seed:43 ~n_vertices:6 ~n_edges:400 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let engine = Workload.Engine.prepare g in
  let q =
    Query.make ~n_vars:4
      ~edges:
        [
          (Query.any_label, 0, 1); (Query.any_label, 1, 2); (Query.any_label, 2, 3);
        ]
      ~window:(window 8 30)
  in
  let run ?obs limit =
    let stats = Run_stats.create () in
    let counted = ref 0 in
    let ms =
      Match_result.collect (fun emit ->
          Workload.Engine.run_ext ?obs ~stats ~limit ~counted engine
            Workload.Engine.Tsrjoin (Equery.plain q) ~emit)
    in
    (ms, !counted, Run_stats.counters stats, Run_stats.levels stats)
  in
  let untraced = run 100 in
  let obs = live_sink () in
  let traced = run ~obs 100 in
  let ms, counted, _, _ = untraced in
  Alcotest.(check bool)
    (Printf.sprintf "tail counted past 100 (%d shipped, %d counted)"
       (List.length ms) counted)
    true (counted > 0);
  Alcotest.(check bool) "traced = untraced at limit 100" true (traced = untraced);
  let enumerating = live_sink () in
  ignore (run ~obs:enumerating max_int);
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (Obs.Phase.name phase ^ " spans, counted vs enumerated")
        (Obs.Sink.count enumerating phase)
        (Obs.Sink.count obs phase))
    Obs.Phase.[ Tai_probe; Tsr_slice; Interval_sweep ]

let stats_fields s =
  Run_stats.
    [
      s.results; s.intermediate; s.scanned; s.bindings; s.enum_steps; s.seeks;
    ]

let test_sink_never_drifts_counters () =
  (* the same run with no sink, the null sink, and a live sink must tick
     the Run_stats counters identically *)
  let engine = Workload.Engine.prepare (test_graph ()) in
  let queries = Test_util.query_pool ~n_labels:3 ~window:(window 8 30) in
  Array.iter
    (fun m ->
      List.iteri
        (fun qi q ->
          let counters obs =
            let stats = Run_stats.create () in
            Workload.Engine.run_ext ?obs ~stats engine m (Equery.plain q)
              ~emit:(fun _ -> ());
            stats_fields stats
          in
          let plain = counters None in
          let name = Workload.Engine.method_name m in
          Alcotest.(check (list int))
            (Printf.sprintf "null sink, %s, query %d" name qi)
            plain
            (counters (Some Obs.Sink.null));
          Alcotest.(check (list int))
            (Printf.sprintf "live sink, %s, query %d" name qi)
            plain
            (counters (Some (live_sink ()))))
        queries)
    Workload.Engine.all_methods

(* ---------- trace export: valid JSON, phase coverage, wall-clock ---------- *)

let test_trace_export () =
  let engine = Workload.Engine.prepare (test_graph ()) in
  let queries = Test_util.query_pool ~n_labels:3 ~window:(window 8 30) in
  let obs = live_sink () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun q ->
      Workload.Engine.run_ext ~obs engine Workload.Engine.Tsrjoin
        (Equery.plain q) ~emit:(fun _ -> ()))
    queries;
  let wall = Unix.gettimeofday () -. t0 in
  (* the exported document is valid JSON with the trace/v1 shape *)
  let doc = Obs.Trace.to_chrome_json obs in
  (match Tcsq_server.Json.parse doc with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok j -> (
      Alcotest.(check (option string))
        "schema" (Some "trace/v1")
        (Tcsq_server.Json.mem_string "schema" j);
      match Tcsq_server.Json.mem_list "traceEvents" j with
      | None -> Alcotest.fail "trace has no traceEvents"
      | Some evs ->
          (* metadata event + one complete event per buffered span *)
          Alcotest.(check int)
            "event count"
            (Obs.Sink.n_events obs + 1)
            (List.length evs)));
  (* a TSRJoin run exercises at least 5 distinct phases *)
  let rows = Obs.Trace.summary obs in
  Alcotest.(check bool)
    (Printf.sprintf "trace covers >= 5 phases (saw %d)" (List.length rows))
    true
    (List.length rows >= 5);
  List.iter
    (fun (r : Obs.Trace.row) ->
      if r.Obs.Trace.self_s > r.Obs.Trace.total_s +. 1e-9 then
        Alcotest.failf "self > total for %s" (Obs.Phase.name r.Obs.Trace.phase))
    rows;
  (* the top span covers the run: its total is within 10% of the
     wall-clock spent in the loop (which adds only loop overhead) *)
  let run_total = Obs.Sink.total obs Obs.Phase.Run in
  Alcotest.(check bool)
    (Printf.sprintf "run span (%.6fs) within 10%% of wall clock (%.6fs)"
       run_total wall)
    true
    (run_total <= wall +. 1e-9 && run_total >= 0.9 *. wall)

(* ---------- sink unit behavior (fake clock) ---------- *)

let test_null_sink_is_noop () =
  Alcotest.(check bool) "disabled" false (Obs.Sink.enabled Obs.Sink.null);
  Alcotest.(check int) "span is exactly f ()" 41
    (Obs.Sink.span Obs.Sink.null Obs.Phase.Run (fun () -> 41));
  Obs.Sink.incr Obs.Sink.null Obs.Phase.Leapfrog_seek;
  Obs.Sink.record_span Obs.Sink.null Obs.Phase.Request ~t0:0.0;
  Alcotest.(check int) "no counts" 0
    (Obs.Sink.count Obs.Sink.null Obs.Phase.Leapfrog_seek);
  Alcotest.(check int) "no events" 0 (Obs.Sink.n_events Obs.Sink.null);
  Alcotest.(check (float 0.0)) "clock never read" 0.0
    (Obs.Sink.now Obs.Sink.null)

let test_sink_fake_clock () =
  let t = ref 100.0 in
  let obs = Obs.Sink.create ~clock:(fun () -> !t) () in
  Obs.Sink.span obs Obs.Phase.Run (fun () ->
      t := !t +. 1.0;
      Obs.Sink.span obs Obs.Phase.Tai_probe (fun () -> t := !t +. 0.25));
  Alcotest.(check int) "run count" 1 (Obs.Sink.count obs Obs.Phase.Run);
  Alcotest.(check (float 1e-9)) "run total inclusive" 1.25
    (Obs.Sink.total obs Obs.Phase.Run);
  Alcotest.(check (float 1e-9)) "probe total" 0.25
    (Obs.Sink.total obs Obs.Phase.Tai_probe);
  (* spans are recorded even when the body raises *)
  (try
     Obs.Sink.span obs Obs.Phase.Parse (fun () ->
         t := !t +. 0.5;
         failwith "abort")
   with Failure _ -> ());
  Alcotest.(check int) "raised span counted" 1
    (Obs.Sink.count obs Obs.Phase.Parse);
  Alcotest.(check (float 1e-9)) "raised span timed" 0.5
    (Obs.Sink.total obs Obs.Phase.Parse);
  (* cross-scope spans via now/record_span *)
  let t0 = Obs.Sink.now obs in
  t := !t +. 2.0;
  Obs.Sink.record_span obs Obs.Phase.Request ~t0;
  Alcotest.(check (float 1e-9)) "record_span" 2.0
    (Obs.Sink.total obs Obs.Phase.Request);
  (* count-only ticks: no event, no time *)
  Obs.Sink.incr obs Obs.Phase.Leapfrog_seek;
  Obs.Sink.incr obs Obs.Phase.Leapfrog_seek;
  Alcotest.(check int) "incr ticks" 2
    (Obs.Sink.count obs Obs.Phase.Leapfrog_seek);
  Alcotest.(check (float 0.0)) "incr adds no time" 0.0
    (Obs.Sink.total obs Obs.Phase.Leapfrog_seek);
  Alcotest.(check int) "4 buffered events" 4 (Obs.Sink.n_events obs);
  (* self time: the nested probe is subtracted from the run's self *)
  let row phase =
    match
      List.find_opt
        (fun (r : Obs.Trace.row) -> r.Obs.Trace.phase = phase)
        (Obs.Trace.summary obs)
    with
    | Some r -> r
    | None -> Alcotest.failf "no summary row for %s" (Obs.Phase.name phase)
  in
  Alcotest.(check (float 1e-9)) "run self excludes child" 1.0
    (row Obs.Phase.Run).Obs.Trace.self_s;
  Alcotest.(check (float 1e-9)) "leaf self = total" 0.25
    (row Obs.Phase.Tai_probe).Obs.Trace.self_s;
  Alcotest.(check (float 1e-9)) "root = sum of top-level spans" 3.75
    (Obs.Trace.root_seconds obs)

(* bench records write "phases" in [Phase.all] order, whatever the
   measured times: two sinks that rank the same phases oppositely by
   self time give one key order *)
let test_measurement_phase_order () =
  let sink ~probe ~slice =
    let t = ref 0.0 in
    let obs = Obs.Sink.create ~clock:(fun () -> !t) () in
    Obs.Sink.span obs Obs.Phase.Tai_probe (fun () -> t := !t +. probe);
    Obs.Sink.span obs Obs.Phase.Tsr_slice (fun () -> t := !t +. slice);
    obs
  in
  let fast = sink ~probe:1.0 ~slice:2.0 and slow = sink ~probe:2.0 ~slice:1.0 in
  let ranked obs =
    List.map (fun (r : Obs.Trace.row) -> r.Obs.Trace.phase)
      (Obs.Trace.summary obs)
  in
  Alcotest.(check bool) "the summaries rank oppositely" true
    (ranked fast = List.rev (ranked slow));
  let m =
    {
      Workload.Runner.method_ = Workload.Engine.Tsrjoin;
      n_queries = 1;
      n_truncated = 0;
      total_seconds = 0.0;
      mean_seconds = 0.0;
      p50_seconds = 0.0;
      p95_seconds = 0.0;
      total_results = 0;
      total_intermediate = 0;
      total_scanned = 0;
      total_seeks = 0;
      total_est_intermediate = 0;
      total_levels = [||];
      total_est_levels = [||];
    }
  in
  let keys obs =
    match
      Obs.Json.member "phases" (Workload.Runner.measurement_to_json ~obs m)
    with
    | Some (Obs.Json.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "no phases object"
  in
  let in_index_order =
    List.filter_map
      (fun p ->
        if List.mem p [ Obs.Phase.Tai_probe; Obs.Phase.Tsr_slice ] then
          Some (Obs.Phase.name p)
        else None)
      (Array.to_list Obs.Phase.all)
  in
  Alcotest.(check (list string)) "fast sink: Phase.all order" in_index_order
    (keys fast);
  Alcotest.(check (list string)) "slow sink: same order" in_index_order
    (keys slow)

let test_sink_bounded_buffer () =
  let t = ref 0.0 in
  let obs = Obs.Sink.create ~max_events:4 ~clock:(fun () -> !t) () in
  for _ = 1 to 10 do
    Obs.Sink.span obs Obs.Phase.Tsr_slice (fun () -> t := !t +. 0.125)
  done;
  Alcotest.(check int) "buffer capped" 4 (Obs.Sink.n_events obs);
  Alcotest.(check int) "overflow counted" 6 (Obs.Sink.dropped obs);
  (* aggregates never drop *)
  Alcotest.(check int) "aggregate count exact" 10
    (Obs.Sink.count obs Obs.Phase.Tsr_slice);
  Alcotest.(check (float 1e-9)) "aggregate total exact" 1.25
    (Obs.Sink.total obs Obs.Phase.Tsr_slice);
  let doc = Obs.Trace.to_chrome_json obs in
  match Tcsq_server.Json.parse doc with
  | Error msg -> Alcotest.failf "overflowed trace invalid: %s" msg
  | Ok j ->
      Alcotest.(check (option int))
        "droppedEvents exported" (Some 6)
        (Tcsq_server.Json.mem_int "droppedEvents" j)

let test_phase_indexing () =
  Alcotest.(check int) "n = |all|" Obs.Phase.n (Array.length Obs.Phase.all);
  Array.iteri
    (fun i p ->
      Alcotest.(check int) (Obs.Phase.name p) i (Obs.Phase.index p);
      Alcotest.(check bool) "of_index roundtrip" true (Obs.Phase.of_index i = p))
    Obs.Phase.all;
  let names = Array.to_list (Array.map Obs.Phase.name Obs.Phase.all) in
  Alcotest.(check int) "names distinct" Obs.Phase.n
    (List.length (List.sort_uniq compare names))

(* ---------- percentile estimator edge cases ---------- *)

let test_percentile_edges () =
  let pct = Workload.Runner.percentile in
  Alcotest.(check (float 0.0)) "empty" 0.0 (pct [||] 0.5);
  Alcotest.(check (float 0.0)) "singleton p0" 7.0 (pct [| 7.0 |] 0.0);
  Alcotest.(check (float 0.0)) "singleton p50" 7.0 (pct [| 7.0 |] 0.5);
  Alcotest.(check (float 0.0)) "singleton p100" 7.0 (pct [| 7.0 |] 1.0);
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p0 = min" 1.0 (pct sorted 0.0);
  Alcotest.(check (float 0.0)) "p100 = max" 4.0 (pct sorted 1.0);
  (* rank convention: index floor(q * (n-1)) *)
  Alcotest.(check (float 0.0)) "p50 of 4" 2.0 (pct sorted 0.5);
  Alcotest.(check (float 0.0)) "p95 of 4" 3.0 (pct sorted 0.95)

(* ---------- histogram ---------- *)

let test_histogram_exact_moments () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0
    (Obs.Histogram.quantile h 0.5);
  List.iter (Obs.Histogram.record h) [ 0.001; 0.002; 0.004; 1.0 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum exact" 1.007 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-12)) "mean exact" (1.007 /. 4.0)
    (Obs.Histogram.mean h)

let test_histogram_out_of_range () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h 1e-9;
  (* below 1e-6: underflow *)
  Obs.Histogram.record h 1e9;
  (* above 1e3: overflow *)
  Alcotest.(check int) "count stays exact" 2 (Obs.Histogram.count h);
  Alcotest.(check bool) "underflow clamps to lowest edge" true
    (Obs.Histogram.quantile h 0.0 <= 1e-6 +. 1e-18);
  Alcotest.(check bool) "overflow clamps to highest edge" true
    (Obs.Histogram.quantile h 1.0 >= 1e3 -. 1e-9);
  Alcotest.(check int) "underflow below every edge" 1
    (Obs.Histogram.cumulative h ~le:1e-6);
  Alcotest.(check int) "infinity sees all" 2
    (Obs.Histogram.cumulative h ~le:infinity)

let test_histogram_cumulative () =
  let h = Obs.Histogram.create () in
  (* values strictly inside buckets, one per decade region *)
  List.iter (Obs.Histogram.record h) [ 0.0005; 0.0011; 0.5; 2.0 ];
  Alcotest.(check int) "le 1e-3" 1 (Obs.Histogram.cumulative h ~le:1e-3);
  Alcotest.(check int) "le 1e-2" 2 (Obs.Histogram.cumulative h ~le:1e-2);
  Alcotest.(check int) "le 1" 3 (Obs.Histogram.cumulative h ~le:1.0);
  Alcotest.(check int) "le 1e3" 4 (Obs.Histogram.cumulative h ~le:1e3);
  (* the Prometheus ladder is monotone and ends at the exact count *)
  let last = ref 0 in
  Array.iter
    (fun le ->
      let c = Obs.Histogram.cumulative h ~le in
      Alcotest.(check bool) "monotone" true (c >= !last);
      last := c)
    Obs.Histogram.le_edges;
  Alcotest.(check int) "ladder tops out at count" 4 !last

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record a) [ 0.001; 0.01 ];
  List.iter (Obs.Histogram.record b) [ 0.1; 1.0; 10.0 ];
  Obs.Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Obs.Histogram.count a);
  Alcotest.(check (float 1e-12)) "merged sum" 11.111 (Obs.Histogram.sum a);
  Alcotest.(check int) "merged cumulative" 3
    (Obs.Histogram.cumulative a ~le:0.5);
  Alcotest.(check int) "b untouched" 3 (Obs.Histogram.count b)

(* The documented bound: for samples inside the bucketed range, the
   histogram quantile is the geometric midpoint of the bucket holding
   the exact sample quantile's rank, hence within a factor
   sqrt(10^(1/25)) ~ 1.047 < 1.1 of Runner.percentile (both use the
   floor(q*(n-1)) rank convention). *)
let prop_histogram_quantile_error =
  QCheck.Test.make
    ~name:"histogram quantile within 10% of the exact percentile" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 1 150))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      (* spread samples across the decades 1e-5 .. 1e2 *)
      let values =
        Array.init n (fun _ ->
            let e = -5 + Random.State.int rng 8 in
            let m = 1.0 +. Random.State.float rng 8.99 in
            m *. (10.0 ** float_of_int e))
      in
      let h = Obs.Histogram.create () in
      Array.iter (Obs.Histogram.record h) values;
      let sorted = Array.copy values in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let exact = Workload.Runner.percentile sorted q in
          let est = Obs.Histogram.quantile h q in
          est <= exact *. 1.1 && est >= exact /. 1.1)
        [ 0.0; 0.25; 0.5; 0.9; 0.95; 1.0 ])

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "obs"
    [
      ( "differential",
        [
          Alcotest.test_case "traced = untraced, all methods" `Quick
            test_traced_equals_untraced;
          Alcotest.test_case "no counter drift" `Quick
            test_sink_never_drifts_counters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome export + phase coverage" `Quick
            test_trace_export;
          Alcotest.test_case "null sink is a no-op" `Quick
            test_null_sink_is_noop;
          Alcotest.test_case "fake clock spans + self time" `Quick
            test_sink_fake_clock;
          Alcotest.test_case "bounded event buffer" `Quick
            test_sink_bounded_buffer;
          Alcotest.test_case "phase indexing" `Quick test_phase_indexing;
          Alcotest.test_case "bench phases in Phase.all order" `Quick
            test_measurement_phase_order;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edges;
          Alcotest.test_case "histogram exact moments" `Quick
            test_histogram_exact_moments;
          Alcotest.test_case "histogram out of range" `Quick
            test_histogram_out_of_range;
          Alcotest.test_case "histogram cumulative" `Quick
            test_histogram_cumulative;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      qsuite "quantile-bounds" [ prop_histogram_quantile_error ];
    ]
