(* Tests for incremental index maintenance: Graph.append, Tai.merge, and
   the Incremental wrapper — all cross-checked against from-scratch
   rebuilds and the oracle. *)

open Semantics
open Tcsq_core

let window a b = Temporal.Interval.make a b

(* deep structural comparison of two TAIs through their public API *)
let check_tai_equivalent ~msg reference candidate =
  let g = Tai.graph reference in
  let n_labels = Tgraph.Graph.n_labels g in
  let ids tsr = List.map Tgraph.Edge.id (Tsr.to_list tsr) in
  let keys what a b =
    Alcotest.(check (list int)) (msg ^ ": " ^ what) (Array.to_list a) (Array.to_list b)
  in
  (* the TSR's edges and the step function of its attached coverage *)
  let tsr what get =
    Alcotest.(check (list int)) (msg ^ ": " ^ what) (ids (get reference)) (ids (get candidate));
    let tuples tai =
      match Tsr.coverage (get tai) with
      | None -> []
      | Some c ->
          Array.to_list
            (Array.map
               (fun { Temporal.Coverage.cs; ce; ec } -> (cs, ce, ec))
               (Temporal.Coverage.tuples c))
    in
    Alcotest.(check (list (triple int int int)))
      (msg ^ ": coverage of " ^ what)
      (tuples reference) (tuples candidate)
  in
  Alcotest.(check int) (msg ^ ": size_words") (Tai.size_words reference) (Tai.size_words candidate);
  Alcotest.(check int) (msg ^ ": eci_n_tuples") (Tai.eci_n_tuples reference)
    (Tai.eci_n_tuples candidate);
  keys "all_sources" (Tai.all_sources reference) (Tai.all_sources candidate);
  keys "all_destinations" (Tai.all_destinations reference) (Tai.all_destinations candidate);
  for lbl = 0 to n_labels - 1 do
    keys (Printf.sprintf "sources(%d)" lbl) (Tai.sources reference ~lbl)
      (Tai.sources candidate ~lbl);
    keys (Printf.sprintf "destinations(%d)" lbl) (Tai.destinations reference ~lbl)
      (Tai.destinations candidate ~lbl);
    Array.iter
      (fun src ->
        tsr (Printf.sprintf "tsr_out(%d, %d)" lbl src) (Tai.tsr_out ~lbl ~src);
        keys (Printf.sprintf "dsts_of_src(%d, %d)" lbl src)
          (Tai.dsts_of_src reference ~lbl ~src) (Tai.dsts_of_src candidate ~lbl ~src);
        Array.iter
          (fun dst ->
            tsr (Printf.sprintf "tsr_between(%d, %d, %d)" lbl src dst)
              (Tai.tsr_between ~lbl ~src ~dst))
          (Tai.dsts_of_src reference ~lbl ~src))
      (Tai.sources reference ~lbl);
    Array.iter
      (fun dst ->
        tsr (Printf.sprintf "tsr_in(%d, %d)" lbl dst) (Tai.tsr_in ~lbl ~dst);
        keys (Printf.sprintf "srcs_of_dst(%d, %d)" lbl dst)
          (Tai.srcs_of_dst reference ~lbl ~dst) (Tai.srcs_of_dst candidate ~lbl ~dst))
      (Tai.destinations reference ~lbl)
  done

let random_extra rng n ~n_vertices ~n_labels ~domain =
  List.init n (fun _ ->
      let ts = Random.State.int rng domain in
      ( Random.State.int rng n_vertices,
        Random.State.int rng n_vertices,
        Random.State.int rng n_labels,
        ts,
        min (domain - 1) (ts + Random.State.int rng 10) ))

let test_append_basics () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let g' = Tgraph.Graph.append g [ (1, 4, 0, 3, 8) ] in
  Alcotest.(check int) "edges" 2 (Tgraph.Graph.n_edges g');
  Alcotest.(check int) "vertices grow" 5 (Tgraph.Graph.n_vertices g');
  Alcotest.(check int) "id continues" 1 (Tgraph.Edge.id (Tgraph.Graph.edge g' 1));
  Alcotest.(check int) "base unchanged" 1 (Tgraph.Graph.n_edges g);
  Alcotest.check_raises "unknown label" (Invalid_argument "") (fun () ->
      try ignore (Tgraph.Graph.append g [ (0, 1, 9, 0, 1) ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_merge_equals_rebuild () =
  let rng = Random.State.make [| 41 |] in
  let g =
    Test_util.random_graph ~seed:41 ~n_vertices:6 ~n_edges:60 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let tai = Tai.build g in
  let extra = random_extra rng 25 ~n_vertices:6 ~n_labels:3 ~domain:40 in
  let g' = Tgraph.Graph.append g extra in
  let merged = Tai.merge tai g' in
  let rebuilt = Tai.build g' in
  check_tai_equivalent ~msg:"merge vs rebuild" rebuilt merged

let test_merge_rejects_non_extension () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (1, 2, 0, 1, 2) ] in
  let tai = Tai.build g in
  let smaller = Tgraph.Graph.prefix g 1 in
  Alcotest.check_raises "shrunk graph" (Invalid_argument "") (fun () ->
      try ignore (Tai.merge tai smaller)
      with Invalid_argument _ -> raise (Invalid_argument ""));
  let different = Tgraph.Graph.of_edge_list [ (0, 2, 0, 0, 5); (1, 2, 0, 1, 2) ] in
  Alcotest.check_raises "different prefix" (Invalid_argument "") (fun () ->
      try ignore (Tai.merge tai different)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_merge_noop () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let tai = Tai.build g in
  Alcotest.(check bool) "same tai back" true (Tai.merge tai g == tai)

let test_incremental_query_correctness () =
  let g =
    Test_util.random_graph ~seed:42 ~n_vertices:5 ~n_edges:40 ~n_labels:3
      ~domain:30 ~max_len:8 ()
  in
  let inc = Incremental.create ~merge_threshold:7 g in
  let rng = Random.State.make [| 43 |] in
  let q =
    Query.make ~n_vars:3 ~edges:[ (0, 0, 1); (1, 0, 2) ] ~window:(window 5 25)
  in
  for round = 1 to 5 do
    List.iter
      (fun (src, dst, lbl, ts, te) ->
        ignore (Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
      (random_extra rng 5 ~n_vertices:5 ~n_labels:3 ~domain:30);
    let expected =
      Match_result.Result_set.of_list (Naive.evaluate (Incremental.graph inc) q)
    in
    let actual =
      Match_result.Result_set.of_list (Incremental.evaluate inc q)
    in
    match Match_result.Result_set.diff_summary ~expected ~actual with
    | None -> ()
    | Some diff -> Alcotest.failf "round %d: %s" round diff
  done;
  Alcotest.(check int) "all edges present" (40 + 25)
    (Incremental.n_edges inc)

let test_incremental_threshold () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  let inc = Incremental.create ~merge_threshold:3 g in
  ignore (Incremental.add_edge inc ~src:0 ~dst:1 ~lbl:0 ~ts:1 ~te:2);
  ignore (Incremental.add_edge inc ~src:1 ~dst:0 ~lbl:0 ~ts:2 ~te:3);
  Alcotest.(check int) "buffered" 2 (Incremental.pending inc);
  ignore (Incremental.add_edge inc ~src:0 ~dst:0 ~lbl:0 ~ts:3 ~te:4);
  Alcotest.(check int) "auto-merged" 0 (Incremental.pending inc);
  Alcotest.(check int) "ids dense" 4 (Incremental.n_edges inc)

(* Several merges in a row, each checked against a from-scratch build,
   structurally and by the query results over it. The base graph leaves the last label unused and its vertices below 6;
   batches draw start times at random (out of start order), vertices up
   to 9 and every label, so they bring unseen vertices and a label with
   no prior edges. The base may be empty. *)
let prop_merge_equals_rebuild =
  QCheck.Test.make ~name:"Tai.merge = rebuild (query results)" ~count:40
    QCheck.(quad (int_range 0 10_000) (int_range 0 40) (int_range 1 5) bool)
    (fun (seed, n_base, n_batches, with_eci) ->
      let rng = Random.State.make [| seed; 77 |] in
      let labels = Tgraph.Label.of_names [| "l0"; "l1"; "l2"; "l3" |] in
      let g =
        Tgraph.Graph.of_edge_list ~labels
          (random_extra rng n_base ~n_vertices:6 ~n_labels:3 ~domain:30)
      in
      let tai = ref (Tai.build ~with_eci g) and g = ref g in
      let queries = Test_util.query_pool ~n_labels:4 ~window:(window 5 22) in
      let ok = ref true in
      for step = 1 to n_batches do
        g :=
          Tgraph.Graph.append !g
            (random_extra rng (1 + Random.State.int rng 12) ~n_vertices:10 ~n_labels:4
               ~domain:30);
        tai := Tai.merge !tai !g;
        let rebuilt = Tai.build ~with_eci !g in
        check_tai_equivalent
          ~msg:(Printf.sprintf "seed %d step %d" seed step)
          rebuilt !tai;
        ok :=
          !ok
          && List.for_all
               (fun q ->
                 Match_result.Result_set.equal
                   (Match_result.Result_set.of_list (Tsrjoin.evaluate rebuilt q))
                   (Match_result.Result_set.of_list (Tsrjoin.evaluate !tai q)))
               queries
      done;
      !ok)

(* the streaming ingest path end to end: adopt a prefix TAI with
   [of_tai] under a random merge threshold, feed random batch splits,
   refresh with [prepare_with_tai], and demand every engine variant
   agrees with a from-scratch [prepare] at every batch boundary *)
let prop_streaming_engine_equals_rebuild =
  QCheck.Test.make
    ~name:"of_tai + prepare_with_tai = full rebuild (all methods)" ~count:20
    QCheck.(
      triple (int_range 0 10_000) (int_range 1 8) (int_range 1 4))
    (fun (seed, merge_threshold, n_batches) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:25 ~n_labels:3
          ~domain:30 ~max_len:8 ()
      in
      let inc = Incremental.of_tai ~merge_threshold g (Tai.build g) in
      let rng = Random.State.make [| seed; 91 |] in
      let queries = Test_util.query_pool ~n_labels:3 ~window:(window 5 22) in
      let agree () =
        let g' = Incremental.graph inc in
        let streamed =
          Workload.Engine.prepare_with_tai g' (Incremental.tai inc)
        in
        let rebuilt = Workload.Engine.prepare g' in
        List.for_all
          (fun q ->
            Array.for_all
              (fun m ->
                Match_result.Result_set.equal
                  (Match_result.Result_set.of_list
                     (Workload.Engine.evaluate rebuilt m q))
                  (Match_result.Result_set.of_list
                     (Workload.Engine.evaluate streamed m q)))
              Workload.Engine.all_methods)
          queries
      in
      List.for_all
        (fun _ ->
          List.iter
            (fun (src, dst, lbl, ts, te) ->
              ignore (Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
            (random_extra rng
               (1 + Random.State.int rng 7)
               ~n_vertices:5 ~n_labels:3 ~domain:30);
          agree ())
        (List.init n_batches Fun.id))

(* The planner statistics that [Graph.append] extends from the new
   edges only equal those of the same edges built at once: the time
   domain, every label's cost-model summary (over a merged TAI), the
   temporal histogram on every bucket-aligned and on random windows,
   and the analyzer's env. The prefix may be empty; batches start out
   of order and push the domain's end out. Before some appends a label
   is interned, which every graph built earlier must read as empty.
   Single-bucket windows are also checked against the clamped per-edge
   scan the histogram used to be built by. *)
let prop_appended_statistics =
  QCheck.Test.make ~name:"appended statistics = built at once" ~count:100
    QCheck.(triple (int_range 0 10_000) (int_range 0 40) (int_range 1 5))
    (fun (seed, n_base, n_appends) ->
      let rng = Random.State.make [| seed; 23 |] in
      let labels = Tgraph.Label.of_names [| "l0"; "l1"; "l2" |] in
      let g =
        ref
          (Tgraph.Graph.of_edge_list ~labels
             (random_extra rng n_base ~n_vertices:6 ~n_labels:3 ~domain:60))
      in
      let tai = ref (Tai.build !g) in
      let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
      for step = 1 to n_appends do
        if Random.State.bool rng then begin
          let l = Tgraph.Label.intern labels (Printf.sprintf "new%d" step) in
          let env = Analysis.Query_check.env_of_graph !g in
          let summary = Plan.label_summary (Plan.cost_model !tai) l in
          if
            Tgraph.Graph.label_count !g l <> 0
            || Tgraph.Graph.label_span !g l <> None
            || Tgraph.Graph.label_len_sum !g l <> 0
            || Tgraph.Graph.label_max_len !g l <> 0
            || Tgraph.Graph.count_ending_before !g ~lbl:l max_int <> 0
            || env.label_counts.(l) <> 0
            || env.label_spans.(l) <> None
            || summary.Plan.count > 1e-9
            || Tgraph.Time_histogram.active_in_window
                 (Tgraph.Time_histogram.build !g)
                 ~lbl:l ~ws:min_int ~we:max_int
               <> 0.0
          then fail "label %d interned after the build does not read empty" l
        end;
        g :=
          Tgraph.Graph.append !g
            (random_extra rng
               (1 + Random.State.int rng 8)
               ~n_vertices:9 ~n_labels:(Tgraph.Label.count labels)
               ~domain:(60 + (20 * step)));
        tai := Tai.merge !tai !g
      done;
      let g = !g in
      let built =
        Tgraph.Graph.of_edge_list ~labels
          (Array.to_list
             (Array.map
                (fun e ->
                  Tgraph.Edge.(src e, dst e, lbl e, ts e, te e))
                (Tgraph.Graph.edges g)))
      in
      let domain = Tgraph.Graph.time_domain g in
      if not (Temporal.Interval.equal domain (Tgraph.Graph.time_domain built))
      then fail "time domains differ";
      if
        Analysis.Query_check.env_of_graph g
        <> Analysis.Query_check.env_of_graph built
      then fail "analyzer envs differ";
      let n_labels = Tgraph.Label.count labels in
      let lbls = Query.any_label :: List.init (n_labels + 1) Fun.id in
      let cm = Plan.cost_model !tai and cm' = Plan.cost_model (Tai.build built) in
      List.iter
        (fun l ->
          if Plan.label_summary cm l <> Plan.label_summary cm' l then
            fail "label %d: cost-model summaries differ" l)
        lbls;
      List.iter
        (fun n_buckets ->
          let h = Tgraph.Time_histogram.build ~n_buckets g in
          let h' = Tgraph.Time_histogram.build ~n_buckets built in
          let ds = Temporal.Interval.ts domain in
          let bw =
            max 1
              ((Temporal.Interval.length domain + n_buckets - 1) / n_buckets)
          in
          let bucket t = min (n_buckets - 1) ((t - ds) / bw) in
          let windows =
            List.init n_buckets (fun b -> (ds + (b * bw), ds + ((b + 1) * bw) - 1))
            @ List.init 20 (fun _ ->
                  let ws = ds - 10 + Random.State.int rng (Temporal.Interval.length domain + 20) in
                  (ws, ws + Random.State.int rng 60))
          in
          List.iter
            (fun l ->
              List.iter
                (fun (ws, we) ->
                  let a = Tgraph.Time_histogram.active_in_window h ~lbl:l ~ws ~we in
                  if a <> Tgraph.Time_histogram.active_in_window h' ~lbl:l ~ws ~we
                  then fail "label %d: histograms differ on [%d, %d]" l ws we)
                windows;
              for b = 0 to n_buckets - 1 do
                let scan = ref 0.0 in
                Tgraph.Graph.iter_edges
                  (fun e ->
                    if
                      Tgraph.Edge.lbl e = l
                      && bucket (Tgraph.Edge.ts e) <= b
                      && b <= bucket (Tgraph.Edge.te e)
                    then scan := !scan +. 1.0)
                  g;
                let ws = ds + (b * bw) in
                if
                  Tgraph.Time_histogram.active_in_window h ~lbl:l ~ws
                    ~we:(ws + bw - 1)
                  <> !scan
                then fail "label %d bucket %d: not the per-edge scan" l b
              done)
            (List.init n_labels Fun.id))
        [ 1; 7; 64 ];
      true)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "incremental"
    [
      ( "append",
        [ Alcotest.test_case "basics" `Quick test_append_basics ] );
      ( "merge",
        [
          Alcotest.test_case "equals rebuild (structure)" `Quick test_merge_equals_rebuild;
          Alcotest.test_case "rejects non-extensions" `Quick test_merge_rejects_non_extension;
          Alcotest.test_case "no-op merge" `Quick test_merge_noop;
        ] );
      ( "wrapper",
        [
          Alcotest.test_case "query correctness across rounds" `Quick
            test_incremental_query_correctness;
          Alcotest.test_case "threshold behaviour" `Quick test_incremental_threshold;
        ] );
      qsuite "properties"
        [ prop_merge_equals_rebuild; prop_streaming_engine_equals_rebuild ];
      qsuite "statistics" [ prop_appended_statistics ];
    ]
