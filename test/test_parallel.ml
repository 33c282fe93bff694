(* Tests for the work-stealing multi-domain TSRJoin driver
   (Exec.Parallel): multiset equivalence with the sequential engine and
   the naive oracle across domain counts and chunk sizes, merged Run_stats/obs counter equality, global budget
   and deadline fault injection (one failing domain stops the rest,
   and the shared pool stays usable), and pool-level exception
   accounting. *)

open Semantics
open Tcsq_core

let window a b = Temporal.Interval.make a b

(* Parallel emission order is nondeterministic: compare matches sorted
   by [Match_result.compare]. *)
let sorted ms = List.sort Match_result.compare ms

let same_sorted msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (Match_result.equal e a) then
        Alcotest.failf "%s: sorted matches diverge at %d" msg i)
    (List.combine (sorted expected) (sorted actual))

let par_run ?domains ?chunk ?stats ?obs tai q =
  Match_result.collect (fun emit ->
      Exec.Parallel.run ?domains ?chunk ?stats ?obs tai q ~emit)

(* One engine-shaped graph reused by most tests: big enough that every
   query has many root bindings to steal. *)
let graph () =
  Test_util.random_graph ~seed:81 ~n_vertices:8 ~n_edges:150 ~n_labels:3
    ~domain:50 ~max_len:12 ()

let test_parallel_equals_sequential () =
  let g = graph () in
  let tai = Tai.build g in
  List.iteri
    (fun qi q ->
      let expected = Tsrjoin.evaluate tai q in
      let oracle = Match_result.Result_set.of_list (Naive.evaluate g q) in
      (match
         Match_result.Result_set.diff_summary ~expected:oracle
           ~actual:(Match_result.Result_set.of_list expected)
       with
      | None -> ()
      | Some diff -> Alcotest.failf "query %d vs oracle: %s" qi diff);
      List.iter
        (fun domains ->
          List.iter
            (fun chunk ->
              same_sorted
                (Printf.sprintf "query %d, %d domains, chunk %d" qi domains
                   chunk)
                expected
                (par_run ~domains ~chunk tai q))
            [ 1; 2; 7 ])
        [ 1; 2; 3; 8 ])
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 40))

let test_streaming_run_and_count () =
  let g = graph () in
  let tai = Tai.build g in
  List.iter
    (fun q ->
      let expected = Tsrjoin.evaluate tai q in
      Test_util.check_same_results ~msg:"streaming run multiset" expected
        (par_run ~domains:4 ~chunk:2 tai q);
      let n = ref 0 in
      Exec.Parallel.run ~domains:4 tai q ~emit:(fun _ -> incr n);
      Alcotest.(check int) "count" (List.length expected) !n)
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 40))

let test_parallel_durable () =
  let g =
    Test_util.random_graph ~seed:82 ~n_vertices:6 ~n_edges:100 ~n_labels:2
      ~domain:40 ~max_len:12 ()
  in
  let tai = Tai.build g in
  let q =
    Query.with_min_duration
      (Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 0 39))
      4
  in
  Test_util.check_same_results ~msg:"durable parallel"
    (Tsrjoin.evaluate tai q)
    (par_run ~domains:3 tai q)

let test_parallel_validation () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let tai = Tai.build g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 9) in
  Alcotest.check_raises "zero domains" (Invalid_argument "") (fun () ->
      try ignore (par_run ~domains:0 tai q)
      with Invalid_argument _ -> raise (Invalid_argument ""));
  (* more domains than root candidates is fine *)
  Alcotest.(check int) "tiny graph, many domains" 1
    (List.length (par_run ~domains:8 tai q))

(* Merged per-domain stats must equal a sequential run on every
   deterministic counter: same root bindings processed exactly once,
   root-leapfrog seeks charged by the coordinator. The per-level
   intermediate counters must merge bit-equal too (element-wise sums of
   disjoint root partitions), at every domain count. *)
let test_merged_stats_equal_sequential () =
  let g = graph () in
  let tai = Tai.build g in
  List.iteri
    (fun qi q ->
      let seq = Run_stats.create () in
      ignore (Tsrjoin.evaluate ~stats:seq tai q);
      List.iter
        (fun domains ->
          let par = Run_stats.create () in
          ignore (par_run ~domains ~chunk:3 ~stats:par tai q);
          let check name f =
            Alcotest.(check int)
              (Printf.sprintf "query %d (%d domains): %s" qi domains name)
              (f seq) (f par)
          in
          check "results" (fun s -> s.Run_stats.results);
          check "intermediate" (fun s -> s.Run_stats.intermediate);
          check "scanned" (fun s -> s.Run_stats.scanned);
          check "bindings" (fun s -> s.Run_stats.bindings);
          check "enum_steps" (fun s -> s.Run_stats.enum_steps);
          check "seeks" (fun s -> s.Run_stats.seeks);
          Alcotest.(check (array int))
            (Printf.sprintf "query %d (%d domains): level counters" qi
               domains)
            (Run_stats.levels seq) (Run_stats.levels par);
          Alcotest.(check int)
            (Printf.sprintf "query %d (%d domains): levels sum" qi domains)
            par.Run_stats.intermediate
            (Array.fold_left ( + ) 0 (Run_stats.levels par)))
        [ 2; 3; 4 ])
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 40))

(* Merged child sinks must carry the same deterministic phase counts as
   one sequential sink. *)
let test_merged_obs_equal_sequential () =
  let g = graph () in
  let tai = Tai.build g in
  let q =
    List.hd (List.rev (Test_util.query_pool ~n_labels:3 ~window:(window 8 40)))
  in
  let seq_obs = Obs.Sink.create ~clock:Unix.gettimeofday () in
  ignore (Tsrjoin.evaluate ~obs:seq_obs tai q);
  let par_obs = Obs.Sink.create ~clock:Unix.gettimeofday () in
  ignore (par_run ~domains:3 ~obs:par_obs tai q);
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (Printf.sprintf "obs count %s" (Obs.Phase.name phase))
        (Obs.Sink.count seq_obs phase)
        (Obs.Sink.count par_obs phase))
    [
      Obs.Phase.Leapfrog_seek; Obs.Phase.Leapfrog_next;
      Obs.Phase.Leapfrog_open; Obs.Phase.Tai_probe;
    ]

(* ---- fault injection -------------------------------------------- *)

(* A result budget hit in one domain must stop the whole fan-out with
   Limit_exceeded after exactly max_results emissions (the sequential
   cut), and the shared pool must survive for the next query. *)
let test_limit_stops_all_domains () =
  let g = graph () in
  let tai = Tai.build g in
  let q =
    (* the 2-star has the most matches in the pool *)
    List.hd (Test_util.query_pool ~n_labels:3 ~window:(window 8 40))
  in
  let total = Tsrjoin.count tai q in
  Alcotest.(check bool) "enough matches to truncate" true (total > 7);
  let stats = Run_stats.create ~limits:(Run_stats.with_max_results 7) () in
  let emitted = Atomic.make 0 in
  (match
     Exec.Parallel.run ~domains:4 ~chunk:1 ~stats tai q ~emit:(fun _ ->
         Atomic.incr emitted)
   with
  | () -> Alcotest.fail "expected Limit_exceeded"
  | exception Run_stats.Limit_exceeded _ -> ());
  Alcotest.(check int) "exactly max_results emitted" 7 (Atomic.get emitted);
  Alcotest.(check bool) "merged stats saw the truncated work" true
    (stats.Run_stats.results >= 7);
  (* the pool is reusable after a faulted run *)
  Test_util.check_same_results ~msg:"pool healthy after limit fault"
    (Tsrjoin.evaluate tai q)
    (par_run ~domains:4 tai q)

(* An expired deadline (fake clock that counts its reads) must abort
   every domain with Deadline_exceeded on the first check, whichever
   domain reaches it first. *)
let test_deadline_stops_all_domains () =
  let g = graph () in
  let tai = Tai.build g in
  let q =
    List.hd (List.tl (Test_util.query_pool ~n_labels:3 ~window:(window 8 40)))
  in
  let reads = Atomic.make 0 in
  let deadline =
    {
      Run_stats.expires_at = -1.;
      now = (fun () -> float_of_int (Atomic.fetch_and_add reads 1));
    }
  in
  let stats = Run_stats.create ~deadline () in
  (match Exec.Parallel.run ~domains:4 ~chunk:1 ~stats tai q ~emit:(fun _ -> ())
   with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Run_stats.Deadline_exceeded -> ());
  Alcotest.(check bool) "clock was actually consulted" true
    (Atomic.get reads >= 1);
  Test_util.check_same_results ~msg:"pool healthy after deadline fault"
    (Tsrjoin.evaluate tai q)
    (par_run ~domains:4 tai q)

(* ---- engine wiring ---------------------------------------------- *)

let test_engine_domains () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  List.iter
    (fun q ->
      let expected = Test_util.run engine Workload.Engine.Tsrjoin q in
      same_sorted "engine run_ext" expected
        (Test_util.run ~domains:3 engine Workload.Engine.Tsrjoin q);
      Alcotest.(check int) "engine count" (List.length expected)
        (Workload.Engine.count ~domains:3 engine Workload.Engine.Tsrjoin q);
      (* the workers' counted tails report enumeration's counters *)
      let stats_of run =
        let stats = Run_stats.create () in
        run stats;
        (Run_stats.counters stats, Run_stats.levels stats)
      in
      Alcotest.(check bool) "engine count stats" true
        (stats_of (fun stats ->
             Workload.Engine.run_ext ~stats engine Workload.Engine.Tsrjoin
               (Equery.plain q) ~emit:ignore)
        = stats_of (fun stats ->
              ignore
                (Workload.Engine.count ~stats ~domains:3 engine
                   Workload.Engine.Tsrjoin q))))
    (Test_util.query_pool ~n_labels:3 ~window:(window 8 40))

(* ---- pool ------------------------------------------------------- *)

let rec wait_until ?(tries = 200) pred =
  if pred () then true
  else if tries = 0 then false
  else begin
    Unix.sleepf 0.01;
    wait_until ~tries:(tries - 1) pred
  end

let test_pool_counts_dropped_exceptions () =
  let pool = Exec.Pool.create ~workers:1 ~max_depth:4 in
  Alcotest.(check int) "no drops initially" 0
    (Exec.Pool.dropped_exceptions pool);
  Alcotest.(check bool) "failing job admitted" true
    (Exec.Pool.submit pool (fun () -> failwith "boom"));
  Alcotest.(check bool) "drop counted" true
    (wait_until (fun () -> Exec.Pool.dropped_exceptions pool = 1));
  (* the worker survived the exception and still runs jobs *)
  let ran = Atomic.make false in
  Alcotest.(check bool) "next job admitted" true
    (Exec.Pool.submit pool (fun () -> Atomic.set ran true));
  Alcotest.(check bool) "worker alive after drop" true
    (wait_until (fun () -> Atomic.get ran));
  Exec.Pool.shutdown pool

let test_pool_submit_if_idle_capacity () =
  let pool = Exec.Pool.create ~workers:2 ~max_depth:8 in
  Alcotest.(check int) "both idle" 2 (Exec.Pool.idle_workers pool);
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let blocker () =
    Atomic.incr started;
    while not (Atomic.get release) do
      Unix.sleepf 0.002
    done
  in
  Alcotest.(check bool) "blocker admitted" true (Exec.Pool.submit pool blocker);
  Alcotest.(check bool) "blocker running" true
    (wait_until (fun () -> Atomic.get started = 1));
  (* one worker busy: only one helper fits, the second is refused *)
  Alcotest.(check int) "idle-bounded admission" 1
    (Exec.Pool.submit_if_idle pool [ blocker; blocker ]);
  Alcotest.(check bool) "helper running" true
    (wait_until (fun () -> Atomic.get started = 2));
  Alcotest.(check int) "no idle workers left" 0 (Exec.Pool.idle_workers pool);
  Alcotest.(check int) "saturated pool refuses helpers" 0
    (Exec.Pool.submit_if_idle pool [ blocker ]);
  Atomic.set release true;
  Exec.Pool.shutdown pool

(* ---- properties -------------------------------------------------- *)

let prop_parallel_equivalence =
  QCheck.Test.make
    ~name:"parallel = sequential = oracle on random graphs" ~count:20
    QCheck.(
      triple (int_range 0 10_000) (int_range 1 5) (int_range 1 9))
    (fun (seed, domains, chunk) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:50 ~n_labels:3
          ~domain:30 ~max_len:8 ()
      in
      let tai = Tai.build g in
      List.for_all
        (fun q ->
          let seq = Tsrjoin.evaluate tai q in
          let par = par_run ~domains ~chunk tai q in
          List.length seq = List.length par
          && List.for_all2 Match_result.equal (sorted seq) (sorted par)
          && Match_result.Result_set.equal
               (Match_result.Result_set.of_list (Naive.evaluate g q))
               (Match_result.Result_set.of_list par))
        (Test_util.query_pool ~n_labels:3 ~window:(window 5 22)))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "run = sequential, sorted" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "streaming run and count" `Quick
            test_streaming_run_and_count;
          Alcotest.test_case "durable queries" `Quick test_parallel_durable;
          Alcotest.test_case "validation and tiny inputs" `Quick
            test_parallel_validation;
          Alcotest.test_case "engine ?domains wiring" `Quick
            test_engine_domains;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "merged stats = sequential" `Quick
            test_merged_stats_equal_sequential;
          Alcotest.test_case "merged obs counts = sequential" `Quick
            test_merged_obs_equal_sequential;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "limit stops all domains" `Quick
            test_limit_stops_all_domains;
          Alcotest.test_case "deadline stops all domains" `Quick
            test_deadline_stops_all_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "dropped exceptions counted" `Quick
            test_pool_counts_dropped_exceptions;
          Alcotest.test_case "submit_if_idle capacity" `Quick
            test_pool_submit_if_idle_capacity;
        ] );
      qsuite "properties" [ prop_parallel_equivalence ];
    ]
