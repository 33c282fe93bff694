(* The served-path benchmark: one workload per invocation.

     perfbench --workload serve-point --seed 7 --seconds 12 --trace 0

   generates every input from the seed, serves it with the real
   `tcsq serve`, checks every answer and prints, as the last stdout
   line, one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1 (an untraced served run, a served
   run with --trace-dir, and the in-process traced replay). The line
   before it is the run record. --smoke runs every workload at smoke
   size, traced, as the benchmark's own test. See README.md. *)

module J = Tcsq_server.Json

let clk = Unix.gettimeofday

(* fixed server flags, the same for every workload and on both sides of
   a comparison; --workers 1 stays below nproc on a 2-core host, and on
   the one CPU run.sh pins the benchmark to, the worker, the connection
   threads and the client take turns *)
let workers = 1
let plan_cache_size = 96
let limit = 100

let server_flags =
  [
    "--workers"; string_of_int workers; "--queue"; "64"; "--limit";
    string_of_int limit; "--plan-cache-size"; string_of_int plan_cache_size;
  ]

type mode = {
  size : Inputs.size;
  setups : int;  (* server start-ups per run; setup_s is their median *)
  tail : int;  (* batches of the idle ingest tail of the read workloads *)
}

let full =
  {
    size =
      {
        Inputs.scale = 0.15;
        point_per_shape = 32;
        scan_per_shape = 32;
        scan_floor = 1_000;
        scan_work = 25_000.0;
        batch_edges = 16;
        batches = 100;
        subs = 4;
        sub_width_frac = 0.05;
      };
    setups = 15;
    tail = 100;
  }

let smoke =
  {
    size =
      {
        Inputs.scale = 0.05;
        point_per_shape = 3;
        scan_per_shape = 2;
        scan_floor = 10;
        scan_work = 500.0;
        batch_edges = 8;
        batches = 12;
        subs = 3;
        sub_width_frac = 0.01;
      };
    setups = 2;
    tail = 5;
  }

let workloads =
  [ ("serve-point", Served.Point); ("serve-scan", Served.Scan); ("serve-stream", Served.Stream) ]

(* a fixed integer loop: not a metric, it tells a reader whether the
   host was slow while the run was taken *)
let calibrate () =
  let t0 = clk () in
  let x = ref 0 in
  for i = 1 to 100_000_000 do
    x := !x lxor (i * 0x9E3779B1)
  done;
  ignore (Sys.opaque_identity !x);
  clk () -. t0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* mean admit and respond span (ms) over the served trace files *)
let served_spans trace_dir =
  let files =
    Sys.readdir trace_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  let admit = Stat.buf () and respond = Stat.buf () in
  List.iter
    (fun f ->
      let path = Filename.concat trace_dir f in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      match J.parse s with
      | Error _ -> ()
      | Ok j ->
          let sum name =
            List.fold_left
              (fun acc e ->
                if J.mem_string "name" e = Some name then
                  acc +. Option.value ~default:0.0 (J.mem_float "dur" e)
                else acc)
              0.0
              (Option.value ~default:[] (J.mem_list "traceEvents" j))
          in
          Stat.add admit (sum "admit" /. 1000.0);
          Stat.add respond (sum "respond" /. 1000.0))
    files;
  (Stat.mean (Stat.contents admit), Stat.mean (Stat.contents respond), admit.Stat.len)

let percentiles name a =
  ( name,
    J.Obj
      [
        ("samples", J.Int (Array.length a));
        ("p50", J.Float (Stat.percentile a 0.5));
        ("p90", J.Float (Stat.percentile a 0.9));
        ("beyond_p90", J.Int (Stat.beyond a 0.9));
      ] )

(* a block or start-up with more host steal than this is left out of
   the medians, see [Stat.least_steal] *)
let steal_limit = 0.03

let kept_blocks (p : Served.phase) =
  Stat.least_steal ~limit:steal_limit ~steal:(fun b -> b.Served.steal) p.Served.blocks

let kept_setups (r : Served.run) =
  Stat.least_steal ~limit:steal_limit ~steal:snd
    (Array.to_list (Array.combine r.Served.setup_s r.Served.setup_steal))
  |> List.map fst |> Array.of_list

(* read statistics: medians over the kept blocks of the measured phase *)
type reads = { qps : float; p50 : float; p90 : float }

let read_stats (p : Served.phase) =
  let per f = Stat.median (Array.of_list (List.map f (kept_blocks p))) in
  let lat b =
    let lo, hi = b.Served.reads in
    Array.sub p.Served.latency_ms lo (hi - lo)
  in
  {
    qps = per (fun b -> float_of_int (Array.length (lat b)) /. b.Served.span_s);
    p50 = per (fun b -> Stat.percentile (lat b) 0.5);
    p90 = per (fun b -> Stat.percentile (lat b) 0.9);
  }

(* ingest latencies acked in the kept blocks *)
let kept_acks (p : Served.phase) =
  Array.concat
    (List.map
       (fun b ->
         let lo, hi = b.Served.acks in
         Array.sub p.Served.ingest_ms lo (hi - lo))
       (kept_blocks p))

(* server CPU over the kept blocks, per read and batch completed in them *)
let cpu_ms_per_op (p : Served.phase) =
  let cpu, ops =
    List.fold_left
      (fun (cpu, ops) b ->
        let span (lo, hi) = hi - lo in
        (cpu +. b.Served.cpu_s, ops + span b.Served.reads + span b.Served.acks))
      (0.0, 0) (kept_blocks p)
  in
  cpu *. 1000.0 /. float_of_int (max 1 ops)

let end_to_end (r : Served.run) =
  let rd = read_stats r.Served.measured and acks = kept_acks r.Served.ingest in
  [
    ("setup_s", Stat.median (kept_setups r), "s");
    ("rss_mb", r.Served.rss_mb, "MB");
    ("qps", rd.qps, "1/s");
    ("query_p50_ms", rd.p50, "ms");
    ("query_p90_ms", rd.p90, "ms");
    ("ingest_p50_ms", Stat.percentile acks 0.5, "ms");
    ("ingest_p90_ms", Stat.percentile acks 0.9, "ms");
    ("server_cpu_ms_per_op", cpu_ms_per_op r.Served.measured, "ms");
  ]

(* how a phase's blocks fared against the steal limit *)
let blocks_record (p : Served.phase) =
  let bs = p.Served.blocks in
  let span = List.fold_left (fun s b -> s +. b.Served.span_s) 0.0 bs in
  J.Obj
    [
      ("blocks", J.Int (List.length bs));
      ("kept", J.Int (List.length (kept_blocks p)));
      ( "steal_pct",
        J.Float
          (100.0
          *. List.fold_left (fun s b -> s +. (b.Served.steal *. b.Served.span_s)) 0.0 bs
          /. Float.max 1e-9 span) );
      ( "max_block_steal_pct",
        J.Float (100.0 *. List.fold_left (fun m b -> Float.max m b.Served.steal) 0.0 bs) );
    ]

type outcome = {
  e2e : (string * float * string) list;
  layers : (string * float * string) list;  (* empty unless traced *)
  record : (string * J.t) list;
  attempted : int;
  failed : int;
}

let run_workload ~tcsq ~dir ~mode ~seed ~seconds ~trace (wname, workload) =
  let calibration_s = calibrate () in
  let t_inputs = clk () in
  let inp = Inputs.generate ~dir ~seed ~scan:(workload = Served.Scan) mode.size in
  let inputs_s = clk () -. t_inputs in
  let tally = Served.tally () in
  (* serve-stream sends every batch over the measured phase, so that
     how much the graph and its heap grow does not depend on its length *)
  let period_s = seconds /. float_of_int mode.size.Inputs.batches in
  let env =
    { Served.tcsq; dir; flags = server_flags; limit; period_s; tally }
  in
  let r =
    Served.run_served env inp workload ~seconds ~setups:mode.setups ~tail:mode.tail ()
  in
  let cache k = float_of_int (List.assoc k r.Served.cache) in
  let layers, trace_record, (replayed, mismatches) =
    if not trace then ([], [], (0, 0))
    else begin
      let trace_dir = Filename.concat dir "trace" in
      mkdir_p trace_dir;
      let traced =
        Served.run_served env inp workload
          ~seconds:(Float.min 5.0 (Float.max 1.0 (seconds /. 2.0)))
          ~setups:1 ~tail:0 ~trace_dir ()
      in
      let admit_ms, respond_ms, traced_requests = served_spans trace_dir in
      let overhead =
        Stat.median traced.Served.measured.Served.latency_ms
        /. Stat.median r.Served.measured.Served.latency_ms
        -. 1.0
      in
      let rp =
        Replay.run ~dir ~graph_file:inp.Inputs.graph_file ~workers ~plan_cache_size
          ~limit r.Served.events
      in
      (* a poisoned entry's re-plan is a lookup the cache did not serve *)
      let lookups = cache "hits" +. cache "misses" +. cache "replans" in
      let per_lookup k = if lookups > 0.0 then cache k /. lookups else 0.0 in
      ( [
          ("server.admit_ms", admit_ms, "ms");
          ("server.respond_ms", respond_ms, "ms");
          ("server.outside_exec_ms", Stat.median r.Served.measured.Served.outside_ms, "ms");
          ("plan_cache.hit_ratio", per_lookup "hits", "ratio");
          ("plan_cache.miss_ratio", per_lookup "misses", "ratio");
          ("plan_cache.replan_ratio", per_lookup "replans", "ratio");
          (* cached plans dropped by ingest, per lookup *)
          ("plan_cache.invalidation_ratio", per_lookup "invalidations", "ratio");
        ]
        @ rp.Replay.metrics,
        [
          ("tracing_overhead_p50", J.Float overhead);
          ("traced_requests", J.Int traced_requests);
          ("replayed_ops", J.Int rp.Replay.replayed);
          ( "ledger_mean_us",
            J.Obj (List.map (fun (k, v) -> (k, J.Float v)) rp.Replay.ledger) );
        ],
        (rp.Replay.replayed, rp.Replay.mismatches + rp.Replay.ledger_violations) )
    end
  in
  let record =
    [
      ("workload", J.String wname);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("server_flags", J.List (List.map (fun f -> J.String f) server_flags));
      ("profile", J.String (Tgraph.Dataset.to_string Inputs.dataset));
      ("scale", J.Float mode.size.Inputs.scale);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("base_edges", J.Int inp.Inputs.base_edges);
      ("point_queries", J.Int (Array.length inp.Inputs.point));
      ("scan_queries", J.Int (Array.length inp.Inputs.scan));
      ("standing_queries", J.Int (Array.length inp.Inputs.subs));
      ("batch_edges", J.Int mode.size.Inputs.batch_edges);
      ("setup_samples_s", J.List (Array.to_list (Array.map (fun x -> J.Float x) r.Served.setup_s)));
      ("setup_kept", J.Int (Array.length (kept_setups r)));
      ("steal_limit_pct", J.Float (100.0 *. steal_limit));
      percentiles "query_latency_ms" r.Served.measured.Served.latency_ms;
      ( "query_blocks",
        let rd = read_stats r.Served.measured in
        J.Obj
          [
            ("blocks", blocks_record r.Served.measured);
            ("median_qps", J.Float rd.qps);
            ("median_p50_ms", J.Float rd.p50);
            ("median_p90_ms", J.Float rd.p90);
          ] );
      percentiles "ingest_latency_ms" r.Served.ingest.Served.ingest_ms;
      percentiles "ingest_latency_kept_ms" (kept_acks r.Served.ingest);
      ("ingest_blocks", blocks_record r.Served.ingest);
      ("delta_frames", J.Int r.Served.frames);
      ( "plan_cache_delta",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.Served.cache) );
      ("calibration_loop_s", J.Float calibration_s);
      ("input_generation_s", J.Float inputs_s);
      ("errors", J.List (List.map (fun e -> J.String e) (List.rev tally.Served.errors)));
    ]
    @ (if workload = Served.Stream then
         [ percentiles "generator_lateness_ms" r.Served.measured.Served.lateness_ms ]
       else [])
    @ (if trace then trace_record
       else [ ("tracing_overhead_p50", J.String "not measured with --trace 0") ])
  in
  {
    e2e = end_to_end r;
    layers;
    record;
    attempted = tally.Served.attempted + replayed;
    failed = tally.Served.failed + mismatches;
  }

let result_line o metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (o.failed = 0));
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                metrics) );
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false in
  let tcsq = ref "_build/default/bin/tcsq.exe" and dir = ref "perfbench/_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-point | serve-scan | serve-stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke_mode, " every workload at smoke size, traced");
      ("--tcsq", Arg.Set_string tcsq, "PATH the tcsq executable");
      ("--work-dir", Arg.Set_string dir, "DIR scratch directory for inputs and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  at_exit Served.kill_all;
  (* a signal ends the run through [exit], so no server outlives it *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  mkdir_p !dir;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  in
  if not (Sys.file_exists !tcsq) then fail ("no server executable at " ^ !tcsq);
  try
    if !smoke_mode then begin
      let failed = ref 0 in
      List.iter
        (fun w ->
          let o =
            run_workload ~tcsq:!tcsq ~dir:!dir ~mode:smoke ~seed:!seed ~seconds:1.0
              ~trace:true w
          in
          print_endline (J.to_string (J.Obj o.record));
          print_endline (result_line o o.e2e);
          print_endline (result_line o o.layers);
          failed := !failed + o.failed;
          (* the standing queries must slide: the head moves per batch *)
          if snd w = Served.Stream then
            match List.find_opt (fun (n, _, _) -> n = "subscription.retracted") o.layers with
            | Some (_, v, _) when v > 0.0 -> ()
            | _ -> fail "smoke: serve-stream retracted no standing-query match")
        workloads;
      if !failed > 0 then fail (Printf.sprintf "smoke: %d failed operations" !failed)
    end
    else begin
      let w =
        match List.assoc_opt !workload workloads with
        | Some w -> (!workload, w)
        | None -> fail ("unknown workload " ^ !workload)
      in
      if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
      let o =
        run_workload ~tcsq:!tcsq ~dir:!dir ~mode:full ~seed:!seed
          ~seconds:!seconds ~trace:(!trace = 1) w
      in
      print_endline (J.to_string (J.Obj [ ("record", J.Obj o.record) ]));
      print_endline (result_line o (if !trace = 1 then o.layers else o.e2e));
      if o.failed > 0 then exit 1
    end
  with Served.Failed msg -> fail msg
