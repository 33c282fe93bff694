(* Failure injection: budget exhaustion, user exceptions escaping from
   emit callbacks, and IO failures must neither corrupt state nor leak
   wrong answers on subsequent use. All engines are stateless per query,
   and these tests pin that down. *)

open Semantics

exception Consumer_stopped

let window a b = Temporal.Interval.make a b

let graph () =
  Test_util.random_graph ~seed:101 ~n_vertices:5 ~n_edges:80 ~n_labels:2
    ~domain:30 ~max_len:10 ()

let query () =
  Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 0 29)

let test_budget_then_clean_rerun () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  let q = query () in
  let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
  Array.iter
    (fun m ->
      (* first run dies on a tiny budget *)
      let stats =
        Run_stats.create
          ~limits:{ Run_stats.max_results = 2; max_intermediate = max_int }
          ()
      in
      (match Workload.Engine.count ~stats engine m q with
      | _ ->
          (* fewer than 3 results overall is also fine *)
          ()
      | exception Run_stats.Limit_exceeded _ -> ());
      (* the engine and its indexes must be unaffected *)
      let actual =
        Match_result.Result_set.of_list (Test_util.run engine m q)
      in
      match Match_result.Result_set.diff_summary ~expected ~actual with
      | None -> ()
      | Some diff ->
          Alcotest.failf "%s after budget failure: %s"
            (Workload.Engine.method_name m)
            diff)
    Workload.Engine.all_methods

let test_intermediate_budget () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  let q = query () in
  Array.iter
    (fun m ->
      let stats =
        Run_stats.create
          ~limits:{ Run_stats.max_results = max_int; max_intermediate = 1 } ()
      in
      match Workload.Engine.count ~stats engine m q with
      | n ->
          (* engines that reach a result without 2 intermediates may
             finish; they must then agree with the oracle *)
          Alcotest.(check int)
            (Workload.Engine.method_name m ^ " completed under tiny budget")
            (Naive.count g q) n
      | exception Run_stats.Limit_exceeded _ -> ())
    Workload.Engine.all_methods

let test_consumer_exception_propagates () =
  let g = graph () in
  let engine = Workload.Engine.prepare g in
  let q = query () in
  let expected = Match_result.Result_set.of_list (Naive.evaluate g q) in
  Array.iter
    (fun m ->
      let seen = ref 0 in
      (match
         Workload.Engine.run_ext engine m (Equery.plain q) ~emit:(fun _ ->
             incr seen;
             if !seen >= 2 then raise Consumer_stopped)
       with
      | () ->
          Alcotest.(check bool)
            (Workload.Engine.method_name m ^ " had under 2 results")
            true (!seen < 2)
      | exception Consumer_stopped -> ());
      (* reusable afterwards *)
      let actual =
        Match_result.Result_set.of_list (Test_util.run engine m q)
      in
      match Match_result.Result_set.diff_summary ~expected ~actual with
      | None -> ()
      | Some diff ->
          Alcotest.failf "%s after consumer exception: %s"
            (Workload.Engine.method_name m)
            diff)
    Workload.Engine.all_methods

let test_tsrjoin_exception_mid_plan () =
  (* exception thrown from deep inside a multi-step plan *)
  let g = graph () in
  let tai = Tcsq_core.Tai.build g in
  let q =
    Query.make ~n_vars:4
      ~edges:[ (0, 0, 1); (1, 1, 2); (0, 2, 3) ]
      ~window:(window 0 29)
  in
  let expected = Tcsq_core.Tsrjoin.evaluate tai q in
  if expected <> [] then begin
    (match
       Tcsq_core.Tsrjoin.run tai q ~emit:(fun _ -> raise Consumer_stopped)
     with
    | () -> Alcotest.fail "expected the consumer exception"
    | exception Consumer_stopped -> ());
    Test_util.check_same_results ~msg:"tai reusable after mid-plan exception"
      expected
      (Tcsq_core.Tsrjoin.evaluate tai q)
  end

let test_incremental_survives_query_failure () =
  let g = graph () in
  let inc = Tcsq_core.Incremental.create ~merge_threshold:4 g in
  ignore (Tcsq_core.Incremental.add_edge inc ~src:0 ~dst:1 ~lbl:0 ~ts:5 ~te:9);
  let q = query () in
  (match
     Tcsq_core.Tsrjoin.run
       (Tcsq_core.Incremental.tai inc)
       q
       ~emit:(fun _ -> raise Consumer_stopped)
   with
  | () -> ()
  | exception Consumer_stopped -> ());
  (* further ingest and querying still work *)
  ignore (Tcsq_core.Incremental.add_edge inc ~src:1 ~dst:2 ~lbl:1 ~ts:6 ~te:8);
  let expected = Naive.evaluate (Tcsq_core.Incremental.graph inc) q in
  Test_util.check_same_results ~msg:"incremental after failure" expected
    (Tcsq_core.Tsrjoin.evaluate (Tcsq_core.Incremental.tai inc) q)

let test_io_failures () =
  Alcotest.check_raises "missing csv" (Sys_error "") (fun () ->
      try ignore (Tgraph.Io.load "/nonexistent/path.csv")
      with Sys_error _ -> raise (Sys_error ""));
  Alcotest.check_raises "missing binary" (Sys_error "") (fun () ->
      try ignore (Tgraph.Binary_io.load "/nonexistent/path.bin")
      with Sys_error _ -> raise (Sys_error ""));
  (* an empty file is a malformed binary but a valid (empty) csv *)
  let path = Filename.temp_file "tcsq_fail" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.check_raises "empty binary" (Tgraph.Io.Malformed "") (fun () ->
          try ignore (Tgraph.Binary_io.load path)
          with Tgraph.Io.Malformed _ -> raise (Tgraph.Io.Malformed ""));
      let g = Tgraph.Io.load path in
      Alcotest.(check int) "empty csv loads empty graph" 0 (Tgraph.Graph.n_edges g))

let test_generator_rejects_bad_configs () =
  let base : Tgraph.Generator.config =
    {
      topology = Uniform_random { n_vertices = 5 };
      n_edges = 10;
      n_labels = 2;
      domain = 10;
      mean_duration = 2.0;
      label_affinity = None;
      seed = 1;
    }
  in
  let rejects name cfg =
    Alcotest.check_raises name (Invalid_argument "") (fun () ->
        try ignore (Tgraph.Generator.generate cfg)
        with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  rejects "negative edges" { base with n_edges = -1 };
  rejects "no labels" { base with n_labels = 0 };
  rejects "no domain" { base with domain = 0 };
  rejects "bad affinity" { base with label_affinity = Some 99 };
  rejects "tiny vertex set"
    { base with topology = Uniform_random { n_vertices = 1 } }

let () =
  Alcotest.run "failure_injection"
    [
      ( "budgets",
        [
          Alcotest.test_case "result budget then rerun" `Quick
            test_budget_then_clean_rerun;
          Alcotest.test_case "intermediate budget" `Quick test_intermediate_budget;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "consumer exception propagates" `Quick
            test_consumer_exception_propagates;
          Alcotest.test_case "mid-plan exception" `Quick test_tsrjoin_exception_mid_plan;
          Alcotest.test_case "incremental survives" `Quick
            test_incremental_survives_query_failure;
        ] );
      ( "io",
        [
          Alcotest.test_case "io failures" `Quick test_io_failures;
          Alcotest.test_case "generator config validation" `Quick
            test_generator_rejects_bad_configs;
        ] );
    ]
