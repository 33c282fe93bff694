(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table3 fig9  -- run selected experiments
     dune exec bench/main.exe -- --scale 0.3 fig9
     dune exec bench/main.exe -- --json BENCH_tsrjoin.json fig9 fig10
     dune exec bench/main.exe -- bechamel     -- Bechamel kernel suite

   Absolute numbers differ from the paper (laptop-scale synthetic data,
   OCaml engine); the reproduction target is the shape: method ranking,
   rough factors, crossovers. EXPERIMENTS.md records paper-vs-measured. *)

open Semantics
module Engine = Workload.Engine
module Runner = Workload.Runner
module Query_gen = Workload.Query_gen

let scale = ref 1.0
let n_queries = ref 6
let domains_max = ref 8
let csv_path : string option ref = ref None
let csv_rows : string list ref = ref []
let json_path : string option ref = ref None
let json_rows : Obs.Json.t list ref = ref []
let fmt = Format.std_formatter

let csv_record ~tag meas =
  if !csv_path <> None then
    csv_rows := Workload.Runner.to_csv_row ~tag meas :: !csv_rows

let csv_flush () =
  match !csv_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc ("experiment,dataset,pattern," ^ Workload.Runner.csv_header ^ "\n");
      List.iter (fun row -> output_string oc (row ^ "\n")) (List.rev !csv_rows);
      close_out oc;
      Format.fprintf fmt "wrote %d CSV rows to %s@." (List.length !csv_rows) path

(* --json OUT: one measurement record per (experiment, dataset, pattern,
   method); schema "tcsq-bench/v1", documented in EXPERIMENTS.md. When a
   sink was active for the measurement its per-phase totals ride along
   as a "phases" object. *)
let json_record ?obs ?(fields = []) ~experiment ~dataset ~pattern meas =
  if !json_path <> None then
    json_rows :=
      Workload.Runner.measurement_to_json ?obs
        ~fields:
          ([
             ("experiment", Obs.Json.String experiment);
             ("dataset", Obs.Json.String dataset);
             ("pattern", Obs.Json.String pattern);
           ]
          @ fields)
        meas
      :: !json_rows

(* per-phase attribution costs a clock read per span, so only trace the
   measurement when the record actually lands in a --json file *)
let bench_sink () =
  if !json_path <> None then Obs.Sink.create ~clock:Unix.gettimeofday ()
  else Obs.Sink.null

let json_flush () =
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("schema", Obs.Json.String "tcsq-bench/v1");
                ("scale", Obs.Json.Sig (6, !scale));
                ("n_queries", Obs.Json.Int !n_queries);
                ("measurements", Obs.Json.List (List.rev !json_rows));
              ]));
      output_char oc '\n';
      close_out oc;
      Format.fprintf fmt "wrote %d JSON measurements to %s@."
        (List.length !json_rows) path

let section title =
  Format.fprintf fmt "@.=== %s ===@." title

let limits = { Run_stats.max_results = 100_000; max_intermediate = 1_000_000 }

let engines : (Tgraph.Dataset.name, Engine.t) Hashtbl.t = Hashtbl.create 8

let engine_of name =
  match Hashtbl.find_opt engines name with
  | Some e -> e
  | None ->
      let e = Engine.prepare (Tgraph.Dataset.graph ~scale:!scale name) in
      Hashtbl.add engines name e;
      e

let shapes_fig9 =
  [ Pattern.Star 3; Pattern.Star 4; Pattern.Chain 3; Pattern.Chain 4;
    Pattern.Cycle 3; Pattern.Cycle 4 ]

let workload_for engine ~shape ~window_frac ~max_results ~seed =
  let cfg =
    {
      Query_gen.n_queries = !n_queries;
      window_frac;
      shape;
      max_results;
      seed;
      max_attempts = 60 * !n_queries;
    }
  in
  List.map (fun i -> i.Query_gen.query) (Query_gen.generate engine cfg)

(* ---------- Tables I & II: LFTO traces on the paper's running example ---------- *)

let paper_tsrs () =
  let mk triples =
    let edges =
      Array.of_list
        (List.map
           (fun (id, ts, te) ->
             Tgraph.Edge.make ~id ~src:0 ~dst:id ~lbl:0
               (Temporal.Interval.make ts te))
           triples)
    in
    Array.sort Tgraph.Edge.compare_by_start edges;
    let coverage =
      Temporal.Coverage.build (Array.map Tgraph.Edge.to_span edges)
    in
    Tcsq_core.Tsr.make ~coverage (Triejoin.Slice.full edges)
  in
  [|
    mk [ (1, 0, 5); (2, 6, 9); (3, 11, 12); (4, 13, 15); (5, 18, 19) ];
    mk [ (6, 2, 4); (7, 7, 10); (8, 13, 15); (9, 17, 18); (10, 19, 20) ];
    mk [ (11, 3, 6); (12, 15, 16) ];
  |]

let print_trace_event ev =
  let open Tcsq_core.Lfto in
  match ev with
  | Scanned (i, e) ->
      Format.fprintf fmt "  scan   R%d: e%d %s@." (i + 1) (Tgraph.Edge.id e)
        (Temporal.Interval.to_string (Tgraph.Edge.ivl e))
  | Window_filtered (_, e) ->
      Format.fprintf fmt "  drop   e%d (outside valid window)@." (Tgraph.Edge.id e)
  | Expired es ->
      Format.fprintf fmt "  expire {%s}@."
        (String.concat ", "
           (List.map (fun e -> Printf.sprintf "e%d" (Tgraph.Edge.id e)) es))
  | Enumerated (members, life) ->
      Format.fprintf fmt "  MATCH  (%s, %s)@."
        (String.concat ", "
           (Array.to_list
              (Array.map (fun e -> Printf.sprintf "e%d" (Tgraph.Edge.id e)) members)))
        (Temporal.Interval.to_string life)
  | Inserted (i, e) ->
      Format.fprintf fmt "  insert e%d -> Active[%d]@." (Tgraph.Edge.id e) (i + 1)
  | Scanner_closed i -> Format.fprintf fmt "  close  R%d@." (i + 1)
  | Sweep_aborted -> Format.fprintf fmt "  ABORT  (delSkip: forward edges cut)@."

let run_table1 () =
  section "Table I: basic LFTO trace (G1, q1, window [10,20])";
  let stats = Run_stats.create () in
  Tcsq_core.Lfto.run ~stats ~trace:print_trace_event ~tsrs:(paper_tsrs ())
    ~ws:10 ~we:20
    ~emit:(fun _ _ -> ())
    ();
  Format.fprintf fmt "edges scanned: %d@." stats.Run_stats.scanned

let run_table2 () =
  section "Table II: optimized LFTO trace (ECI skip + delSkip + lazy)";
  let stats = Run_stats.create () in
  Tcsq_core.Lfto_opt.run ~stats ~trace:print_trace_event
    ~config:Tcsq_core.Lfto_opt.all_on ~tsrs:(paper_tsrs ()) ~ws:10 ~we:20
    ~emit:(fun _ _ -> ())
    ();
  Format.fprintf fmt
    "edges scanned: %d (12 in the basic sweep: backward edges skipped by \
     Algorithm 2, forward edges cut by Algorithm 3)@."
    stats.Run_stats.scanned

(* ---------- Table III: datasets ---------- *)

let run_table3 () =
  section
    (Printf.sprintf "Table III: dataset overview (scale %.2f)" !scale);
  Format.fprintf fmt "%a@." Tgraph.Stats.pp_table_header ();
  Array.iter
    (fun name ->
      let stats = Tgraph.Stats.compute (Tgraph.Dataset.graph ~scale:!scale name) in
      Format.fprintf fmt "%a@."
        (Tgraph.Stats.pp_table_row ~name:(Tgraph.Dataset.to_string name))
        stats)
    Tgraph.Dataset.all

(* ---------- Fig 9: processing cost vs pattern ---------- *)

let run_fig9 () =
  section "Fig 9: mean processing cost (ms/query) by pattern and network";
  Array.iter
    (fun ds ->
      Format.fprintf fmt "@.[%s]@." (Tgraph.Dataset.to_string ds);
      let engine = engine_of ds in
      Format.fprintf fmt "%-10s" "pattern";
      Array.iter
        (fun m -> Format.fprintf fmt " %12s" (Engine.method_name m))
        Engine.all_methods;
      Format.fprintf fmt " %8s@." "queries";
      List.iter
        (fun shape ->
          let queries =
            workload_for engine ~shape ~window_frac:0.1 ~max_results:100_000
              ~seed:(31 + Pattern.n_edges shape)
          in
          Format.fprintf fmt "%-10s" (Pattern.to_string shape);
          Array.iter
            (fun m ->
              let obs = bench_sink () in
              let meas = Runner.run_method ~limits ~obs engine m queries in
              csv_record
                ~tag:
                  (Printf.sprintf "fig9,%s,%s" (Tgraph.Dataset.to_string ds)
                     (Pattern.to_string shape))
                meas;
              json_record ~obs ~experiment:"fig9"
                ~dataset:(Tgraph.Dataset.to_string ds)
                ~pattern:(Pattern.to_string shape) meas;
              Format.fprintf fmt " %10.2f%s"
                (meas.Runner.mean_seconds *. 1000.0)
                (if meas.Runner.n_truncated > 0 then "*" else " "))
            Engine.all_methods;
          Format.fprintf fmt " %8d@." (List.length queries))
        shapes_fig9)
    Tgraph.Dataset.all;
  Format.fprintf fmt
    "@.(* = some queries hit the work budget, as the paper's timeouts)@."

(* ---------- Fig 10: intermediate cardinality ---------- *)

let run_fig10 () =
  section "Fig 10: total intermediate cardinality (Yellow, output size 1000)";
  let engine = engine_of Tgraph.Dataset.Yellow in
  Format.fprintf fmt "%-10s" "pattern";
  Array.iter (fun m -> Format.fprintf fmt " %14s" (Engine.method_name m)) Engine.all_methods;
  Format.fprintf fmt "@.";
  List.iter
    (fun shape ->
      let queries =
        workload_for engine ~shape ~window_frac:0.1 ~max_results:1_000 ~seed:59
      in
      Format.fprintf fmt "%-10s" (Pattern.to_string shape);
      Array.iter
        (fun m ->
          let obs = bench_sink () in
          let meas = Runner.run_method ~limits ~obs engine m queries in
          json_record ~obs ~experiment:"fig10" ~dataset:"yellow"
            ~pattern:(Pattern.to_string shape) meas;
          Format.fprintf fmt " %13d%s" meas.Runner.total_intermediate
            (if meas.Runner.n_truncated > 0 then "*" else " "))
        Engine.all_methods;
      Format.fprintf fmt "@.")
    shapes_fig9

(* ---------- Fig 11: selectivity sweep ---------- *)

let run_fig11 () =
  section "Fig 11: processing cost vs query selectivity M (transportation)";
  let ms = [ 100; 1_000; 10_000; 100_000 ] in
  List.iter
    (fun ds ->
      Format.fprintf fmt "@.[%s]@." (Tgraph.Dataset.to_string ds);
      let engine = engine_of ds in
      List.iter
        (fun shape ->
          Format.fprintf fmt "%s:@." (Pattern.to_string shape);
          Format.fprintf fmt "  %-8s" "M";
          Array.iter
            (fun m -> Format.fprintf fmt " %12s" (Engine.method_name m))
            Engine.all_methods;
          Format.fprintf fmt "@.";
          List.iter
            (fun max_results ->
              let queries =
                workload_for engine ~shape ~window_frac:0.1 ~max_results
                  ~seed:(71 + max_results)
              in
              Format.fprintf fmt "  %-8d" max_results;
              Array.iter
                (fun m ->
                  let meas = Runner.run_method ~limits engine m queries in
                  Format.fprintf fmt " %10.2f%s"
                    (meas.Runner.mean_seconds *. 1000.0)
                    (if meas.Runner.n_truncated > 0 then "*" else " "))
                Engine.all_methods;
              Format.fprintf fmt "@.")
            ms)
        Pattern.selectivity_set)
    [ Tgraph.Dataset.Yellow; Tgraph.Dataset.Bike ]

(* ---------- Fig 12 a-c: window-length sweep ---------- *)

let run_fig12_window () =
  section "Fig 12(a-c): processing cost vs query window fraction (Bike)";
  let engine = engine_of Tgraph.Dataset.Bike in
  let fracs = [ 0.0001; 0.001; 0.01; 0.1; 0.2 ] in
  List.iter
    (fun shape ->
      Format.fprintf fmt "%s:@." (Pattern.to_string shape);
      Format.fprintf fmt "  %-8s" "l";
      Array.iter
        (fun m -> Format.fprintf fmt " %12s" (Engine.method_name m))
        Engine.all_methods;
      Format.fprintf fmt "@.";
      List.iter
        (fun frac ->
          let queries =
            workload_for engine ~shape ~window_frac:frac ~max_results:100_000
              ~seed:83
          in
          Format.fprintf fmt "  %-8.4f" frac;
          if queries = [] then
            Format.fprintf fmt "  (no queries at this selectivity)"
          else
            Array.iter
              (fun m ->
                let meas = Runner.run_method ~limits engine m queries in
                Format.fprintf fmt " %10.2f%s"
                  (meas.Runner.mean_seconds *. 1000.0)
                  (if meas.Runner.n_truncated > 0 then "*" else " "))
              Engine.all_methods;
          Format.fprintf fmt "@.")
        fracs)
    Pattern.selectivity_set

(* ---------- Fig 12 d-e: network-size sweep ---------- *)

let run_fig12_size () =
  section "Fig 12(d-e): processing cost vs network size (Bike prefixes)";
  let base = Tgraph.Dataset.graph ~scale:!scale Tgraph.Dataset.Bike in
  let fractions = [ 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  List.iter
    (fun shape ->
      Format.fprintf fmt "%s:@." (Pattern.to_string shape);
      Format.fprintf fmt "  %-10s" "|E|";
      Array.iter
        (fun m -> Format.fprintf fmt " %12s" (Engine.method_name m))
        Engine.all_methods;
      Format.fprintf fmt "@.";
      List.iter
        (fun f ->
          let n = int_of_float (float_of_int (Tgraph.Graph.n_edges base) *. f) in
          let engine = Engine.prepare (Tgraph.Graph.prefix base n) in
          let queries =
            workload_for engine ~shape ~window_frac:0.1 ~max_results:100_000
              ~seed:91
          in
          Format.fprintf fmt "  %-10d" n;
          Array.iter
            (fun m ->
              let meas = Runner.run_method ~limits engine m queries in
              Format.fprintf fmt " %10.2f%s"
                (meas.Runner.mean_seconds *. 1000.0)
                (if meas.Runner.n_truncated > 0 then "*" else " "))
            Engine.all_methods;
          Format.fprintf fmt "@.")
        fractions)
    [ Pattern.Star 4; Pattern.Cycle 4 ]

(* ---------- Tables IV & V: index storage and construction ---------- *)

let run_table4 () =
  section "Table IV: index storage cost (MB)";
  Format.fprintf fmt "%-10s" "network";
  Array.iter (fun m -> Format.fprintf fmt " %10s" (Engine.method_name m)) Engine.all_methods;
  Format.fprintf fmt "@.";
  Array.iter
    (fun ds ->
      let engine = engine_of ds in
      Format.fprintf fmt "%-10s" (Tgraph.Dataset.to_string ds);
      Array.iter
        (fun m ->
          let words = Engine.index_size_words engine m in
          Format.fprintf fmt " %10.2f"
            (float_of_int (words * 8) /. 1024.0 /. 1024.0))
        Engine.all_methods;
      Format.fprintf fmt "@.")
    Tgraph.Dataset.all

let run_table5 () =
  section "Table V: index construction time (s)";
  Format.fprintf fmt "%-10s" "network";
  Array.iter (fun m -> Format.fprintf fmt " %10s" (Engine.method_name m)) Engine.all_methods;
  Format.fprintf fmt "@.";
  Array.iter
    (fun ds ->
      let g = Tgraph.Dataset.graph ~scale:!scale ds in
      Format.fprintf fmt "%-10s" (Tgraph.Dataset.to_string ds);
      Array.iter
        (fun m -> Format.fprintf fmt " %10.3f" (Engine.index_build_seconds g m))
        Engine.all_methods;
      Format.fprintf fmt "@.")
    Tgraph.Dataset.all

(* ---------- Ablation: TSRJoin optimization flags ---------- *)

let run_ablation () =
  section "Ablation: TSRJoin LFTO optimizations (Yellow + Bike, 4-star)";
  let configs =
    [
      ("basic-alg1", Tcsq_core.Tsrjoin.basic_config);
      ( "opt-none",
        { Tcsq_core.Tsrjoin.default_config with mode = Optimized Tcsq_core.Lfto_opt.all_off } );
      ( "eci-only",
        {
          Tcsq_core.Tsrjoin.default_config with
          mode =
            Optimized
              { Tcsq_core.Lfto_opt.use_eci = true; use_del_skip = false; use_lazy = false };
        } );
      ( "delskip",
        {
          Tcsq_core.Tsrjoin.default_config with
          mode =
            Optimized
              { Tcsq_core.Lfto_opt.use_eci = false; use_del_skip = true; use_lazy = false };
        } );
      ( "lazy",
        {
          Tcsq_core.Tsrjoin.default_config with
          mode =
            Optimized
              { Tcsq_core.Lfto_opt.use_eci = false; use_del_skip = false; use_lazy = true };
        } );
      ("all-on", Tcsq_core.Tsrjoin.default_config);
    ]
  in
  List.iter
    (fun ds ->
      let engine = engine_of ds in
      let queries =
        workload_for engine ~shape:(Pattern.Star 4) ~window_frac:0.1
          ~max_results:100_000 ~seed:101
      in
      Format.fprintf fmt "@.[%s] %d queries@." (Tgraph.Dataset.to_string ds)
        (List.length queries);
      Format.fprintf fmt "%-12s %12s %14s@." "config" "mean-ms" "scanned";
      List.iter
        (fun (name, config) ->
          let meas =
            Runner.run_method ~limits ~tsrjoin_config:config engine
              Engine.Tsrjoin queries
          in
          Format.fprintf fmt "%-12s %12.3f %14d@." name
            (meas.Runner.mean_seconds *. 1000.0)
            meas.Runner.total_scanned)
        configs)
    [ Tgraph.Dataset.Yellow; Tgraph.Dataset.Bike ]

(* ---------- Ablation: adaptive (deferring) plans on chains ---------- *)

let run_ablation_plan () =
  section
    "Ablation: greedy vs adaptive TSRJoin plans (the Fig 11 chain weakness)";
  List.iter
    (fun ds ->
      let engine = engine_of ds in
      let tai = Engine.tai engine in
      Format.fprintf fmt "@.[%s]@." (Tgraph.Dataset.to_string ds);
      Format.fprintf fmt "%-10s %14s %14s@." "pattern" "greedy-ms" "adaptive-ms";
      List.iter
        (fun shape ->
          let queries =
            workload_for engine ~shape ~window_frac:0.1 ~max_results:100_000
              ~seed:113
          in
          let time_with plan_of =
            let t0 = Unix.gettimeofday () in
            List.iter
              (fun q ->
                let stats = Run_stats.create ~limits () in
                try
                  Tcsq_core.Tsrjoin.run ~stats ~plan:(plan_of q) tai q
                    ~emit:(fun _ -> ())
                with Run_stats.Limit_exceeded _ -> ())
              queries;
            (Unix.gettimeofday () -. t0)
            /. float_of_int (max 1 (List.length queries))
            *. 1000.0
          in
          let greedy = time_with (fun q -> Tcsq_core.Plan.build tai q) in
          let adaptive =
            time_with (fun q -> Tcsq_core.Plan.build_adaptive tai q)
          in
          Format.fprintf fmt "%-10s %14.2f %14.2f@." (Pattern.to_string shape)
            greedy adaptive)
        [ Pattern.Chain 3; Pattern.Chain 4; Pattern.Chain 5 ])
    [ Tgraph.Dataset.Yellow; Tgraph.Dataset.Stack ]

(* ---------- Incremental maintenance: merge vs rebuild ---------- *)

let run_dynamic () =
  section "Incremental maintenance: Tai.merge vs full rebuild (Yellow)";
  let base = Tgraph.Dataset.graph ~scale:!scale Tgraph.Dataset.Yellow in
  let n_labels = Tgraph.Graph.n_labels base in
  let domain = Temporal.Interval.length (Tgraph.Graph.time_domain base) in
  let rng = Random.State.make [| 131 |] in
  let batch size =
    List.init size (fun _ ->
        let ts = Random.State.int rng domain in
        ( Random.State.int rng (Tgraph.Graph.n_vertices base),
          Random.State.int rng (Tgraph.Graph.n_vertices base),
          Random.State.int rng n_labels,
          ts,
          min (domain - 1) (ts + Random.State.int rng 2000) ))
  in
  Format.fprintf fmt "%-12s %14s %14s %10s@." "batch-size" "merge-ms"
    "rebuild-ms" "speedup";
  List.iter
    (fun size ->
      let tai = Tcsq_core.Tai.build base in
      let g' = Tgraph.Graph.append base (batch size) in
      let t0 = Unix.gettimeofday () in
      let merged = Tcsq_core.Tai.merge tai g' in
      let merge_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t0 = Unix.gettimeofday () in
      let rebuilt = Tcsq_core.Tai.build g' in
      let rebuild_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      ignore merged;
      ignore rebuilt;
      Format.fprintf fmt "%-12d %14.2f %14.2f %9.1fx@." size merge_ms
        rebuild_ms
        (rebuild_ms /. max merge_ms 0.001))
    [ 16; 128; 1024; 8192 ];
  (* end-to-end serving path: per-batch latency of the streaming ingest
     pipeline (Incremental buffers + prepare_with_tai engine swap, what
     the server runs since the subscribe/ingest rework) vs the old
     rebuild-per-batch (Graph.append + eager Engine.prepare), with a
     result-equality check against a fixed probe query after every
     batch. `--json BENCH_ingest.json` commits the comparison. *)
  section
    "Streaming ingest: Incremental + prepare_with_tai vs rebuild-per-batch \
     (Yellow)";
  let n_batches = 24 in
  let probe =
    Pattern.instantiate (Pattern.Star 3)
      ~labels:(Array.init 3 (fun i -> i mod n_labels))
      ~window:(Tgraph.Graph.window_of_fraction base ~frac:0.2 ~at:0.5)
  in
  let meas_of times total_results =
    let n = List.length times in
    let arr = Array.of_list (List.sort compare times) in
    let pct p = arr.(min (n - 1) (int_of_float (p *. float_of_int n))) in
    let total = List.fold_left ( +. ) 0.0 times in
    {
      Runner.method_ = Engine.Tsrjoin; n_queries = n; n_truncated = 0;
      total_seconds = total; mean_seconds = total /. float_of_int n;
      p50_seconds = pct 0.5; p95_seconds = pct 0.95; total_results;
      total_intermediate = 0; total_scanned = 0; total_seeks = 0;
      total_est_intermediate = 0; total_levels = [||];
      total_est_levels = [||];
    }
  in
  let bench_variant ~batches step =
    (* step : batch -> engine, timed; the probe count is outside the
       timed region for both variants *)
    let times = ref [] and counts = ref [] in
    List.iter
      (fun b ->
        let t0 = Unix.gettimeofday () in
        let engine = step b in
        times := (Unix.gettimeofday () -. t0) :: !times;
        counts := Engine.count engine Engine.Tsrjoin probe :: !counts)
      batches;
    (List.rev !times, List.rev !counts)
  in
  List.iter
    (fun size ->
      let batches = List.init n_batches (fun _ -> batch size) in
      let inc =
        Tcsq_core.Incremental.of_tai ~merge_threshold:4096 base
          (Tcsq_core.Tai.build base)
      in
      let inc_times, inc_counts =
        bench_variant ~batches (fun b ->
            List.iter
              (fun (src, dst, lbl, ts, te) ->
                ignore (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
              b;
            Engine.prepare_with_tai
              (Tcsq_core.Incremental.graph inc)
              (Tcsq_core.Incremental.tai inc))
      in
      let cur = ref base in
      let reb_times, reb_counts =
        bench_variant ~batches (fun b ->
            cur := Tgraph.Graph.append !cur b;
            Engine.prepare !cur)
      in
      if inc_counts <> reb_counts then
        failwith
          "ingest pipeline disagreement: streaming and rebuilt engines \
           returned different probe counts";
      let results = List.fold_left ( + ) 0 inc_counts in
      let inc_meas = meas_of inc_times results in
      let reb_meas = meas_of reb_times results in
      Format.fprintf fmt
        "batch %-6d incremental %8.2f ms/batch (p95 %8.2f)   rebuild %8.2f \
         ms/batch (p95 %8.2f)   %5.1fx@."
        size
        (inc_meas.Runner.mean_seconds *. 1000.0)
        (inc_meas.Runner.p95_seconds *. 1000.0)
        (reb_meas.Runner.mean_seconds *. 1000.0)
        (reb_meas.Runner.p95_seconds *. 1000.0)
        (reb_meas.Runner.mean_seconds /. max inc_meas.Runner.mean_seconds 1e-6);
      List.iter
        (fun (variant, meas) ->
          json_record ~experiment:"ingest" ~dataset:"yellow"
            ~pattern:"3-star"
            ~fields:
              [
                ("variant", Obs.Json.String variant);
                ("batch_size", Obs.Json.Int size);
                ("n_batches", Obs.Json.Int n_batches);
              ]
            meas)
        [ ("incremental", inc_meas); ("rebuild", reb_meas) ])
    [ 128; 1024 ]

(* ---------- Multi-window sharing ---------- *)

let run_multiwindow () =
  section
    "Multi-window evaluation: shared hull pass vs independent queries (Bike)";
  let engine = engine_of Tgraph.Dataset.Bike in
  let tai = Engine.tai engine in
  let g = Engine.graph engine in
  let domain = Tgraph.Graph.time_domain g in
  let q_base =
    match
      workload_for engine ~shape:(Pattern.Star 3) ~window_frac:0.1
        ~max_results:100_000 ~seed:151
    with
    | q :: _ -> q
    | [] -> failwith "no workload query for the multi-window bench"
  in
  Format.fprintf fmt "%-10s %12s %14s %10s@." "windows" "shared-ms"
    "separate-ms" "speedup";
  List.iter
    (fun n_windows ->
      (* overlapping sliding windows over the middle half of the domain *)
      let span = Temporal.Interval.length domain / 2 in
      let start = Temporal.Interval.ts domain + (span / 2) in
      let width = span / 4 in
      let stride = max 1 (span / (2 * n_windows)) in
      let windows =
        List.init n_windows (fun i ->
            Temporal.Interval.make
              (start + (i * stride))
              (start + (i * stride) + width - 1))
      in
      let t0 = Unix.gettimeofday () in
      let shared = Tcsq_core.Multi_window.evaluate tai q_base ~windows in
      let shared_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t0 = Unix.gettimeofday () in
      let separate =
        List.map
          (fun w ->
            Tcsq_core.Tsrjoin.evaluate tai (Query.with_window q_base w))
          windows
      in
      let separate_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      (* sanity: identical result counts *)
      List.iteri
        (fun i ms ->
          if List.length ms <> List.length shared.(i) then
            failwith "multi-window disagreement")
        separate;
      Format.fprintf fmt "%-10d %12.2f %14.2f %9.1fx@." n_windows shared_ms
        separate_ms
        (separate_ms /. max shared_ms 0.001))
    [ 2; 8; 32 ]

(* ---------- Parallel scaling ---------- *)

(* Domain-scaling bench: the full engine path (Runner -> Engine ->
   Exec.Parallel) at 1/2/4/... domains, per workload; every sweep point
   lands in the --json output tagged experiment="parallel" with
   numeric cores/domains fields, plus speedup_vs_1 where the point has
   a core per domain (past that, domains time-share cores and the ratio
   measures oversubscription, not scaling). *)
let run_parallel_bench () =
  let cores = Domain.recommended_domain_count () in
  section
    (Printf.sprintf
       "Parallel TSRJoin: domain scaling (Yellow, %d core(s) available)"
       cores);
  let engine = engine_of Tgraph.Dataset.Yellow in
  let sweep =
    (* powers of two up to --domains (default 8) *)
    let rec up d acc = if d > !domains_max then List.rev acc else up (2 * d) (d :: acc) in
    up 1 []
  in
  List.iter
    (fun (shape, window_frac, seed) ->
      let queries =
        workload_for engine ~shape ~window_frac ~max_results:100_000 ~seed
      in
      Format.fprintf fmt "@.[%s] %d queries@." (Pattern.to_string shape)
        (List.length queries);
      Format.fprintf fmt "%-8s %12s %10s@." "domains" "total-ms" "speedup";
      let baseline = ref 0.0 in
      List.iter
        (fun domains ->
          let obs = bench_sink () in
          let meas =
            Runner.run_method ~limits ~obs ~domains engine Engine.Tsrjoin
              queries
          in
          let ms = meas.Runner.total_seconds *. 1000.0 in
          if domains = 1 then baseline := ms;
          let speedup = !baseline /. max ms 1e-9 in
          json_record ~obs ~experiment:"parallel" ~dataset:"yellow"
            ~pattern:(Pattern.to_string shape)
            ~fields:
              ([
                 ("cores", Obs.Json.Int cores);
                 ("domains", Obs.Json.Int domains);
               ]
              @
              if domains > cores then []
              else [ ("speedup_vs_1", Obs.Json.Fixed (3, speedup)) ])
            meas;
          Format.fprintf fmt "%-8d %12.2f %9.2fx@." domains ms speedup)
        sweep)
    [ (Pattern.Star 4, 0.2, 171); (Pattern.Chain 4, 0.2, 171) ];
  if cores <= 1 then
    Format.fprintf fmt
      "@.(single-core host: the sweep measures scheduling overhead only — \
       no real speedup is physically possible here; on multi-core \
       machines expect near-linear scaling on skewed workloads)@."

(* ---------- Durable queries: push-down vs post-filter ---------- *)

let run_durable () =
  section "Durable queries: duration-floor push-down vs post-filter (Caida)";
  let engine = engine_of Tgraph.Dataset.Caida in
  let tai = Engine.tai engine in
  let queries =
    workload_for engine ~shape:(Pattern.Star 3) ~window_frac:0.2
      ~max_results:100_000 ~seed:211
  in
  Format.fprintf fmt "%-10s %14s %14s %12s %12s@." "floor" "pushdown-ms"
    "postfilter-ms" "matches" "partials";
  List.iter
    (fun floor ->
      (* push-down: the engine prunes partials below the floor *)
      let stats = Run_stats.create () in
      let t0 = Unix.gettimeofday () in
      let pushed =
        List.fold_left
          (fun acc q ->
            acc
            + Tcsq_core.Tsrjoin.count ~stats tai
                (Query.with_min_duration q floor))
          0 queries
      in
      let push_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      (* post-filter: evaluate unconstrained, filter at the end *)
      let t0 = Unix.gettimeofday () in
      let filtered =
        List.fold_left
          (fun acc q ->
            let all = Tcsq_core.Tsrjoin.evaluate tai q in
            acc
            + List.length
                (List.filter
                   (fun m ->
                     Temporal.Interval.length m.Match_result.life >= floor)
                   all))
          0 queries
      in
      let filter_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      if pushed <> filtered then failwith "durable-query disagreement";
      Format.fprintf fmt "%-10d %14.2f %14.2f %12d %12d@." floor push_ms
        filter_ms pushed stats.Run_stats.intermediate)
    [ 1; 100; 1_000; 10_000 ]

(* ---------- Plan cache: cold vs warm planning path ---------- *)

let run_plancache () =
  section
    "Plan cache: cold (plan every query) vs warm (shared cache) on a \
     repeated workload (Yellow)";
  let engine = engine_of Tgraph.Dataset.Yellow in
  (* a server-shaped workload: a handful of hot shapes, each asked many
     times — the regime the cache is built for *)
  let distinct =
    List.concat_map
      (fun (shape, seed) ->
        workload_for engine ~shape ~window_frac:0.2 ~max_results:100_000 ~seed)
      [ (Pattern.Star 3, 331); (Pattern.Chain 3, 332); (Pattern.Cycle 3, 333) ]
  in
  let repetitions = 16 in
  let queries = List.concat (List.init repetitions (fun _ -> distinct)) in
  let measure ?plan_cache () =
    let obs = bench_sink () in
    (obs, Runner.run_method ~limits ~obs ?plan_cache engine Engine.Tsrjoin queries)
  in
  let obs_cold, cold = measure () in
  let cache = Workload.Plan_cache.create () in
  let obs_warm, warm = measure ~plan_cache:cache () in
  let cs = Workload.Plan_cache.counters cache in
  let lookups =
    cs.Workload.Plan_cache.hits + cs.Workload.Plan_cache.misses
    + cs.Workload.Plan_cache.replans
  in
  let hit_ratio =
    if lookups = 0 then 0.0
    else float_of_int cs.Workload.Plan_cache.hits /. float_of_int lookups
  in
  if cold.Runner.total_results <> warm.Runner.total_results then
    failwith "plan-cache disagreement: cached plans changed the result count";
  Format.fprintf fmt "%-8s %12s %12s %10s@." "variant" "total-ms" "mean-ms"
    "results";
  List.iter
    (fun (name, m) ->
      Format.fprintf fmt "%-8s %12.2f %12.4f %10d@." name
        (m.Runner.total_seconds *. 1000.0)
        (m.Runner.mean_seconds *. 1000.0)
        m.Runner.total_results)
    [ ("cold", cold); ("warm", warm) ];
  Format.fprintf fmt
    "cache: %d distinct shapes x%d, hit ratio %.3f (%d hits, %d misses, \
     %d replans, %d evictions)@."
    (List.length distinct) repetitions hit_ratio cs.Workload.Plan_cache.hits
    cs.Workload.Plan_cache.misses cs.Workload.Plan_cache.replans
    cs.Workload.Plan_cache.evictions;
  let record ~variant ~obs meas =
    json_record ~obs ~experiment:"plancache" ~dataset:"yellow"
      ~pattern:"hot-shapes"
      ~fields:
        ([ ("variant", Obs.Json.String variant) ]
        @
        if variant = "cold" then []
        else
          [
            ("hit_ratio", Obs.Json.Fixed (4, hit_ratio));
            ("hits", Obs.Json.Int cs.Workload.Plan_cache.hits);
            ("misses", Obs.Json.Int cs.Workload.Plan_cache.misses);
            ("replans", Obs.Json.Int cs.Workload.Plan_cache.replans);
            ("evictions", Obs.Json.Int cs.Workload.Plan_cache.evictions);
          ])
      meas
  in
  record ~variant:"cold" ~obs:obs_cold cold;
  record ~variant:"warm" ~obs:obs_warm warm

(* ---------- Response rendering: result frames in-process ---------- *)

(* What the server spends turning matches into a wire frame: the time
   and minor-heap words of one [Protocol.result_response] call, over a
   point-size frame (~30 matches, a selective read) and a scan-size one
   (100 matches, the served match limit). The matches are real Yellow
   3-chain matches, cycled when the scale yields fewer. *)
let run_render () =
  section "Response rendering: result_response per frame (Yellow 3-chain)";
  let engine = engine_of Tgraph.Dataset.Yellow in
  let graph = Engine.graph engine in
  let stats = Run_stats.create () in
  let pool = ref [] in
  List.iter
    (fun q ->
      Engine.run_ext ~stats engine Engine.Tsrjoin (Equery.plain q)
        ~emit:(fun m -> pool := m :: !pool))
    (workload_for engine ~shape:(Pattern.Chain 3) ~window_frac:0.2
       ~max_results:100_000 ~seed:401);
  let pool = Array.of_list (List.rev !pool) in
  if pool = [||] then failwith "render: the workload has no matches";
  let rounds = 5 in
  Format.fprintf fmt "%-8s %8s %8s %8s %12s %14s %14s@." "variant" "matches"
    "bytes" "frames" "us/frame" "minor-words" "major-words";
  List.iter
    (fun (variant, n_matches, frames) ->
      let matches = List.init n_matches (fun i -> pool.(i mod Array.length pool)) in
      let render () =
        Tcsq_server.Protocol.result_response ~id:"q1" ~graph ~truncated:None
          ~count:n_matches ~matches ~stats ~elapsed_ms:0.25 ()
      in
      let bytes = String.length (render ()) in
      for _ = 1 to frames / 10 do
        ignore (Sys.opaque_identity (render ()))
      done;
      (* the median round's time; words repeat exactly across rounds.
         Blocks past 256 words (a large frame's buffer and string) are
         allocated in the major heap directly: counted apart, as major
         words less promoted ones. *)
      let direct_major () =
        let s = Gc.quick_stat () in
        s.Gc.major_words -. s.Gc.promoted_words
      in
      let round () =
        let major0 = direct_major () in
        let minor0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to frames do
          ignore (Sys.opaque_identity (render ()))
        done;
        let dt = Unix.gettimeofday () -. t0 in
        let minor1 = Gc.minor_words () in
        let major1 = direct_major () in
        let per w = w /. float_of_int frames in
        ( dt *. 1e6 /. float_of_int frames,
          per (minor1 -. minor0),
          per (major1 -. major0) )
      in
      let runs = List.sort compare (List.init rounds (fun _ -> round ())) in
      let us, words, major = List.nth runs (rounds / 2) in
      Format.fprintf fmt "%-8s %8d %8d %8d %12.2f %14.0f %14.0f@." variant
        n_matches bytes frames us words major;
      if !json_path <> None then
        json_rows :=
          Obs.Json.Obj
            [
              ("experiment", Obs.Json.String "render");
              ("dataset", Obs.Json.String "yellow");
              ("pattern", Obs.Json.String "3-chain");
              ("variant", Obs.Json.String variant);
              ("matches", Obs.Json.Int n_matches);
              ("bytes", Obs.Json.Int bytes);
              ("frames", Obs.Json.Int frames);
              ("rounds", Obs.Json.Int rounds);
              ("us_per_frame", Obs.Json.Fixed (2, us));
              ("minor_words_per_frame", Obs.Json.Int (Float.to_int words));
              ("major_words_per_frame", Obs.Json.Int (Float.to_int major));
            ]
          :: !json_rows)
    [ ("point", 30, 1000); ("scan", 100, 300) ]

(* ---------- Counted tail: engine time past the response limit ---------- *)

(* The served scan mix's shapes and window shares (Stack, every query
   with at least 1,000 matches): TSRJoin engine time per shape when the
   caller looks at every match, at the first 100 (the served default)
   and at none (a count). Each query runs at the three limits in turn,
   [rounds] times; its time is the median round. The counters of the
   three runs must agree exactly, since counting replaces enumeration
   without changing the work it reports. Minor words per query are the
   [Gc.minor_words] delta of the same median round. *)
let run_tail () =
  section "Counted tail: TSRJoin engine time by response limit (Stack)";
  let engine = engine_of Tgraph.Dataset.Stack in
  let rounds = 5 in
  let limits = [ ("inf", max_int); ("100", 100); ("0", 0) ] in
  Format.fprintf fmt "%-10s %6s %9s %12s %8s %12s %12s %14s@." "shape" "limit"
    "queries" "matches" "counted" "engine-ms" "ms/query" "minor-w/query";
  List.iteri
    (fun i (shape, window_frac) ->
      let queries =
        Query_gen.generate engine
          {
            (Query_gen.default ~shape) with
            Query_gen.n_queries = 3 * !n_queries;
            window_frac;
            max_results = 20_000;
            seed = 500 + i;
            max_attempts = 180 * !n_queries;
          }
        |> List.filter (fun qi -> qi.Query_gen.result_size >= 1_000)
        |> List.filteri (fun j _ -> j < !n_queries)
        |> List.map (fun qi -> Equery.plain qi.Query_gen.query)
      in
      (* one run: its time and minor words, the answer size, the
         counters (which must not depend on the limit) and how many
         matches were counted *)
      let run limit eq =
        let stats = Run_stats.create () in
        let counted = ref 0 and emitted = ref 0 in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        Engine.run_ext ~stats ~limit ~counted engine Engine.Tsrjoin eq
          ~emit:(fun _ -> incr emitted);
        let dt = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        ( (dt, words),
          (!emitted + !counted, Run_stats.counters stats, Run_stats.levels stats),
          !counted )
      in
      (* per query and limit: (median time, its round's minor words,
         answer size, counted) *)
      let measure eq =
        let n_limits = List.length limits in
        let times = Array.make_matrix n_limits rounds (0.0, 0.0) in
        let last = Array.make n_limits ((0, [], [||]), 0) in
        for r = 0 to rounds - 1 do
          List.iteri
            (fun li (_, limit) ->
              let timed, answer, counted = run limit eq in
              times.(li).(r) <- timed;
              last.(li) <- (answer, counted))
            limits
        done;
        Array.iter
          (fun (answer, _) ->
            if answer <> fst last.(0) then
              failwith
                (Printf.sprintf
                   "tail: %s: a counted run disagrees with enumeration"
                   (Pattern.to_string shape)))
          last;
        List.mapi
          (fun li _ ->
            Array.sort compare times.(li);
            let (total, _, _), counted = last.(li) in
            let dt, words = times.(li).(rounds / 2) in
            (dt, words, total, counted))
          limits
      in
      let measured = List.map measure queries in
      List.iteri
        (fun li (name, _) ->
          let rows = List.map (fun per -> List.nth per li) measured in
          let seconds = List.fold_left (fun a (t, _, _, _) -> a +. t) 0.0 rows in
          let words = List.fold_left (fun a (_, w, _, _) -> a +. w) 0.0 rows in
          let matches = List.fold_left (fun a (_, _, n, _) -> a + n) 0 rows in
          let counted = List.fold_left (fun a (_, _, _, c) -> a + c) 0 rows in
          let n = List.length rows in
          let per_query x = if n = 0 then 0.0 else x /. float_of_int n in
          let ms_per_query = per_query (seconds *. 1000.0) in
          let words_per_query = Float.to_int (per_query words) in
          Format.fprintf fmt "%-10s %6s %9d %12d %8.1f%% %12.2f %12.3f %14d@."
            (Pattern.to_string shape) name n matches
            (if matches = 0 then 0.0
             else 100.0 *. float_of_int counted /. float_of_int matches)
            (seconds *. 1000.0) ms_per_query words_per_query;
          if !json_path <> None then
            json_rows :=
              Obs.Json.Obj
                [
                  ("experiment", Obs.Json.String "tail");
                  ("dataset", Obs.Json.String "stack");
                  ("pattern", Obs.Json.String (Pattern.to_string shape));
                  ("window_frac", Obs.Json.Fixed (2, window_frac));
                  ("limit", Obs.Json.String name);
                  ("queries", Obs.Json.Int n);
                  ("rounds", Obs.Json.Int rounds);
                  ("matches", Obs.Json.Int matches);
                  ("counted", Obs.Json.Int counted);
                  ("engine_ms", Obs.Json.Fixed (3, seconds *. 1000.0));
                  ("ms_per_query", Obs.Json.Fixed (4, ms_per_query));
                  ("minor_words_per_query", Obs.Json.Int words_per_query);
                ]
              :: !json_rows)
        limits)
    Pattern.[ (Chain 3, 0.3); (Chain 4, 0.5); (Cycle 4, 0.3); (T_shape 4, 0.4) ]

(* ---------- Bechamel kernel suite ---------- *)

let run_bechamel () =
  section "Bechamel kernel suite";
  let open Bechamel in
  let tsrs = paper_tsrs () in
  let engine = engine_of Tgraph.Dataset.Green in
  let q =
    Pattern.instantiate (Pattern.Star 3) ~labels:[| 0; 1; 2 |]
      ~window:
        (Tgraph.Graph.window_of_fraction (Engine.graph engine) ~frac:0.1 ~at:0.4)
  in
  let coverage_items =
    Array.init 4096 (fun i ->
        Temporal.Span_item.make i (Temporal.Interval.make (i / 2) ((i / 2) + 64)))
  in
  let keys_a = Array.init 4096 (fun i -> 3 * i) in
  let keys_b = Array.init 4096 (fun i -> 2 * i) in
  let tests =
    [
      Test.make ~name:"lfto-basic(tableI)"
        (Staged.stage (fun () ->
             Tcsq_core.Lfto.run ~tsrs ~ws:10 ~we:20 ~emit:(fun _ _ -> ()) ()));
      Test.make ~name:"lfto-optimized(tableII)"
        (Staged.stage (fun () ->
             Tcsq_core.Lfto_opt.run ~config:Tcsq_core.Lfto_opt.all_on ~tsrs
               ~ws:10 ~we:20 ~emit:(fun _ _ -> ()) ()));
      Test.make ~name:"coverage-build(eci)"
        (Staged.stage (fun () -> ignore (Temporal.Coverage.build coverage_items)));
      Test.make ~name:"leapfrog-intersect"
        (Staged.stage (fun () ->
             ignore (Triejoin.Leapfrog.intersect_arrays [ keys_a; keys_b ])));
      (* both enumerate: [Engine.count] would count TSRJoin's last level
         but not TIME's *)
      Test.make ~name:"tsrjoin-3star(fig9)"
        (Staged.stage (fun () ->
             Engine.run_ext engine Engine.Tsrjoin (Equery.plain q) ~emit:ignore));
      Test.make ~name:"time-3star(fig9)"
        (Staged.stage (fun () ->
             Engine.run_ext engine Engine.Time (Equery.plain q) ~emit:ignore));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.fprintf fmt "%-28s %14.1f ns/run@." name est
          | Some _ | None -> Format.fprintf fmt "%-28s (no estimate)@." name)
        results)
    tests

(* ---------- driver ---------- *)

let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("fig11", run_fig11);
    ("fig12_window", run_fig12_window);
    ("fig12_size", run_fig12_size);
    ("table4", run_table4);
    ("table5", run_table5);
    ("ablation", run_ablation);
    ("ablation_plan", run_ablation_plan);
    ("dynamic", run_dynamic);
    ("multiwindow", run_multiwindow);
    ("parallel", run_parallel_bench);
    ("plancache", run_plancache);
    ("durable", run_durable);
    ("render", run_render);
    ("tail", run_tail);
    ("bechamel", run_bechamel);
  ]

let () =
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--queries" :: v :: rest ->
        n_queries := int_of_string v;
        parse rest
    | "--domains" :: v :: rest ->
        domains_max := int_of_string v;
        parse rest
    | "--csv" :: v :: rest ->
        csv_path := Some v;
        parse rest
    | "--json" :: v :: rest ->
        json_path := Some v;
        parse rest
    | name :: rest ->
        selected := name :: !selected;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected = List.rev !selected in
  let to_run =
    if selected = [] || selected = [ "all" ] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
              Format.eprintf "unknown experiment %S; known: %s@." name
                (String.concat ", " (List.map fst experiments));
              exit 2)
        selected
  in
  Format.fprintf fmt
    "TSRJoin reproduction bench (scale %.2f, %d queries/workload)@." !scale
    !n_queries;
  List.iter (fun (_, f) -> f ()) to_run;
  csv_flush ();
  json_flush ();
  Format.fprintf fmt "@.done.@."
