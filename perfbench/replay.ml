(* The traced run: the served run's exact request and batch sequence,
   replayed in-process in the server's own call order, with one span per
   call into each layer.

     query:  parse -> compile -> lint -> tighten -> run -> render
     ingest: parse -> merge -> prepare_with_tai -> plan-cache bump
             -> on_ingest (delta rendering included) -> render

   Spans of one request or batch share its id; they are kept in memory
   and written out at the end. A layer's self time is its span's
   duration minus what its children cover: the benchmark's own spans
   have no children of their own, the engine span is split further by
   the [Obs.Sink] phases [Engine.run_ext] already records, and the root
   span's self time is the ledger's [other]. So, per request, the layer
   self times plus [other] sum to the replayed wall clock. *)

module P = Tcsq_server.Protocol
module J = Tcsq_server.Json
open Semantics

let clk = Unix.gettimeofday

type span = { id : int; name : string; t0 : float; t1 : float }

(* one ledger row: the self time of every layer of one request *)
type row = { rid : int; kind : string; wall : float; layers : (string * float) list }

type state = {
  graph_labels : Tgraph.Label.t;
  mutable engine : Workload.Engine.t;
  inc : Tcsq_core.Incremental.t;
  cache : Workload.Plan_cache.t;
  subs : Tcsq_server.Subscription.t;
  limits : Run_stats.limits;
  limit : int;
  mutable next_id : int;
  mutable spans : span list;
  mutable rows : row list;
  (* per-layer sums over the measured part of the replay *)
  sums : (string, float) Hashtbl.t;
  mutable n_queries : int;
  mutable n_batches : int;
  mutable major : int;
  (* delta frames rendered by the standing-query push callback *)
  mutable frames : int;
  mutable added : int;
  mutable retracted : int;
  mutable mismatches : int;
  mutable violations : int;  (* requests whose child spans outlast the root *)
}

let add st k v =
  Hashtbl.replace st.sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt st.sums k))

let sum st k = Option.value ~default:0.0 (Hashtbl.find_opt st.sums k)

(* a child span of request [id]: timed, recorded, its duration returned *)
let child st id name f =
  let t0 = clk () in
  let v = f () in
  let t1 = clk () in
  st.spans <- { id; name; t0; t1 } :: st.spans;
  (v, t1 -. t0)

(* wraps one request: GC deltas outside the root span, the root span
   around [body]; [body] returns a thunk, run after the root span
   closes, that yields the request's layer self times *)
let request st ~measured ~kind body =
  let id = st.next_id in
  st.next_id <- id + 1;
  let g0 = Gc.quick_stat () in
  let t0 = clk () in
  let finish = body id in
  let t1 = clk () in
  let g1 = Gc.quick_stat () in
  st.spans <- { id; name = kind; t0; t1 } :: st.spans;
  if measured then begin
    let layers = finish () in
    let wall = t1 -. t0 in
    let other = wall -. List.fold_left (fun s (_, v) -> s +. v) 0.0 layers in
    if other < -1e-6 then st.violations <- st.violations + 1;
    let layers = layers @ [ ("other", other) ] in
    st.rows <- { rid = id; kind; wall; layers } :: st.rows;
    List.iter (fun (k, v) -> add st (kind ^ "/" ^ k) v) layers;
    add st (kind ^ "/wall") wall;
    add st "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    st.major <- st.major + (g1.Gc.major_collections - g0.Gc.major_collections)
  end

let engine_phases =
  Obs.Phase.
    [
      (Run, "engine.unattributed");
      (Plan_cache, "plan_cache.lookup");
      (Plan_select, "plan.select");
      (Tai_probe, "tai.probe");
      (Tsr_slice, "tsr.slice");
      (Interval_sweep, "lfto.sweep");
      (Leapfrog_open, "leapfrog.open");
    ]

let replay_query st ~measured (q : Inputs.query) =
  request st ~measured ~kind:"query" @@ fun id ->
  let qr, parse =
    child st id "protocol.parse" (fun () ->
        match P.parse_request q.Inputs.line with
        | Ok (P.Query qr) -> qr
        | _ -> failwith "replay: not a query request")
  in
  let engine = st.engine in
  let g = Workload.Engine.graph engine in
  let eq, compile =
    child st id "qlang.compile" (fun () ->
        match Qlang.parse_and_compile_ext g qr.P.text with
        | Ok eq -> eq
        | Error msg -> failwith ("replay: " ^ msg))
  in
  let ds, lint =
    child st id "analysis.lint" (fun () ->
        Workload.Engine.analyze_ext engine qr.P.method_ eq)
  in
  let eq, tighten =
    child st id "analysis.tighten" (fun () -> Workload.Engine.tighten_ext engine eq)
  in
  let obs = Obs.Sink.create ~clock:clk () in
  let stats = Run_stats.create ~limits:st.limits () in
  let kept = ref [] and n_kept = ref 0 and total = ref 0 in
  let emit m =
    incr total;
    if !n_kept < st.limit then begin
      incr n_kept;
      kept := m :: !kept
    end
  in
  let (), run =
    child st id "engine.run" (fun () ->
        if not (Analysis.Diagnostic.proves_empty ds) then
          Workload.Engine.run_ext ~stats ~obs ~plan_cache:st.cache
            ~plan_source:(ref None) engine qr.P.method_ eq ~emit)
  in
  let line, render =
    child st id "protocol.render" (fun () ->
        P.result_response ?id:qr.P.id ~graph:g ~truncated:None ~count:!total
          ~matches:(List.rev !kept) ~stats ~elapsed_ms:(run *. 1000.0) ())
  in
  if !total <> q.Inputs.expected then st.mismatches <- st.mismatches + 1;
  fun () ->
  let self = Obs.Trace.summary obs in
  let self_of phase =
    List.fold_left
      (fun s (r : Obs.Trace.row) -> if r.Obs.Trace.phase = phase then r.Obs.Trace.self_s else s)
      0.0 self
  in
  begin
    st.n_queries <- st.n_queries + 1;
    add st "protocol.response_bytes" (float_of_int (String.length line));
    add st "engine.scanned" (float_of_int stats.Run_stats.scanned);
    add st "engine.intermediate" (float_of_int stats.Run_stats.intermediate);
    add st "engine.results" (float_of_int !total);
    add st "tai.probes" (float_of_int (Obs.Sink.count obs Obs.Phase.Tai_probe));
    add st "leapfrog.seeks" (float_of_int (Obs.Sink.count obs Obs.Phase.Leapfrog_seek));
    add st "leapfrog.nexts" (float_of_int (Obs.Sink.count obs Obs.Phase.Leapfrog_next));
    add st "engine.run" run
  end;
  [
    ("protocol.parse", parse);
    ("qlang.compile", compile);
    ("analysis.lint", lint);
    ("analysis.tighten", tighten);
    (* run_ext outside the engine's own root span: ext dispatch, emit
       set-up *)
    ("engine.call", run -. Obs.Trace.root_seconds obs);
  ]
  @ List.map (fun (phase, name) -> (name, self_of phase)) engine_phases
  @ [ ("protocol.render", render) ]

let push st (d : Tcsq_server.Subscription.delta) =
  let g = Workload.Engine.graph st.engine in
  ignore
    (P.delta_notification ?tag:d.Tcsq_server.Subscription.tag
       ~sub:d.Tcsq_server.Subscription.sub
       ~generation:d.Tcsq_server.Subscription.generation ~graph:g
       ~window:d.Tcsq_server.Subscription.window
       ~added:d.Tcsq_server.Subscription.added
       ~retracted:d.Tcsq_server.Subscription.retracted
       ~total:d.Tcsq_server.Subscription.total
       ~elapsed_ms:d.Tcsq_server.Subscription.elapsed_ms ());
  st.frames <- st.frames + 1;
  st.added <- st.added + List.length d.Tcsq_server.Subscription.added;
  st.retracted <- st.retracted + List.length d.Tcsq_server.Subscription.retracted

let replay_subscribe st (s : Inputs.sub) =
  let g = Workload.Engine.graph st.engine in
  match Qlang.parse_and_compile_ext g s.Inputs.stext with
  | Error msg -> failwith ("replay: " ^ msg)
  | Ok eq ->
      ignore
        (Tcsq_server.Subscription.subscribe st.subs ~engine:st.engine
           ~tag:s.Inputs.tag ~window_width:s.Inputs.width ~push:(push st) eq)

let replay_batch st (b : Inputs.batch) =
  request st ~measured:true ~kind:"ingest" @@ fun id ->
  let ir, parse =
    child st id "protocol.parse" (fun () ->
        match P.parse_request b.Inputs.bline with
        | Ok (P.Ingest ir) -> ir
        | _ -> failwith "replay: not an ingest request")
  in
  let (g', tai), merge =
    child st id "incremental.merge" (fun () ->
        List.iter
          (fun (e : P.ingest_edge) ->
            let lbl = Tgraph.Label.intern st.graph_labels e.P.label in
            ignore
              (Tcsq_core.Incremental.add_edge st.inc ~src:e.P.src ~dst:e.P.dst
                 ~lbl ~ts:e.P.ts ~te:e.P.te))
          ir.P.edges;
        (Tcsq_core.Incremental.graph st.inc, Tcsq_core.Incremental.tai st.inc))
  in
  let engine', prepare =
    child st id "engine.prepare_with_tai" (fun () ->
        Workload.Engine.prepare_with_tai g' tai)
  in
  st.engine <- engine';
  let (), bump =
    child st id "plan_cache.invalidate" (fun () ->
        Workload.Plan_cache.bump_generation st.cache)
  in
  let generation = Workload.Plan_cache.generation st.cache in
  let (), refresh =
    child st id "subscription.refresh" (fun () ->
        Tcsq_server.Subscription.on_ingest st.subs ~engine:engine' ~generation)
  in
  let _, render =
    child st id "protocol.render" (fun () ->
        P.ingest_response ?id:ir.P.ingest_id ~appended:(List.length ir.P.edges)
          ~n_edges:(Tgraph.Graph.n_edges g') ~generation ~invalidated:0 ())
  in
  fun () ->
  st.n_batches <- st.n_batches + 1;
  [
    ("protocol.parse", parse);
    ("incremental.merge", merge);
    ("engine.prepare_with_tai", prepare);
    ("plan_cache.invalidate", bump);
    ("subscription.refresh", refresh);
    ("protocol.render", render);
  ]

(* Exec.Pool.submit to job start, on an idle pool of the server's size;
   the submitter waits for each job and lets the worker go back to
   sleep, as an idle server's connection thread would *)
let handoff_us ~workers ~samples =
  let pool = Exec.Pool.create ~workers ~max_depth:64 in
  let m = Mutex.create () and c = Condition.create () in
  let started = ref None in
  let out = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    Unix.sleepf 0.002;
    let t0 = clk () in
    let accepted =
      Exec.Pool.submit pool (fun () ->
          let t = clk () in
          Mutex.lock m;
          started := Some t;
          Condition.signal c;
          Mutex.unlock m)
    in
    if not accepted then failwith "replay: idle pool shed a job";
    Mutex.lock m;
    while !started = None do
      Condition.wait c m
    done;
    let t = Option.get !started in
    started := None;
    Mutex.unlock m;
    out.(i) <- (t -. t0) *. 1e6
  done;
  Exec.Pool.shutdown pool;
  Stat.median out

type result = {
  metrics : (string * float * string) list;  (* name, value, unit *)
  ledger : (string * float) list;  (* query/<layer> means, microseconds *)
  mismatches : int;
  ledger_violations : int;
  replayed : int;
}

let time f =
  let t0 = clk () in
  let v = f () in
  (v, clk () -. t0)

let run ~dir ~graph_file ~workers ~plan_cache_size ~limit events =
  (* the served budgets: the server's defaults, as no request overrides them *)
  let served = Tcsq_server.Server.default_config ~socket_path:"" in
  let limits =
    {
      Run_stats.max_results = served.Tcsq_server.Server.default_max_results;
      max_intermediate = served.Tcsq_server.Server.default_max_intermediate;
    }
  in
  let g, load_s = time (fun () -> Tgraph.Binary_io.load graph_file) in
  let engine, prepare_s = time (fun () -> Workload.Engine.prepare g) in
  let handoff = handoff_us ~workers ~samples:200 in
  let st =
    {
      graph_labels = Tgraph.Graph.labels g;
      engine;
      inc = Tcsq_core.Incremental.of_tai g (Workload.Engine.tai engine);
      cache = Workload.Plan_cache.create ~capacity:plan_cache_size ();
      subs = Tcsq_server.Subscription.create ();
      limits;
      limit;
      next_id = 0;
      spans = [];
      rows = [];
      sums = Hashtbl.create 64;
      n_queries = 0;
      n_batches = 0;
      major = 0;
      frames = 0;
      added = 0;
      retracted = 0;
      mismatches = 0;
      violations = 0;
    }
  in
  List.iter
    (function
      | Served.Warm q -> replay_query st ~measured:false q
      | Served.Read q -> replay_query st ~measured:true q
      | Served.Subscribe s -> replay_subscribe st s
      | Served.Batch b -> replay_batch st b)
    events;
  (* spans and the per-request ledger, written once at the end *)
  let oc = open_out (Filename.concat dir "spans.jsonl") in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\": %d, \"name\": %S, \"t0_us\": %.3f, \"dur_us\": %.3f}\n"
        s.id s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6))
    (List.rev st.spans);
  close_out oc;
  let oc = open_out (Filename.concat dir "ledger.jsonl") in
  List.iter
    (fun r ->
      output_string oc
        (J.to_string
           (J.Obj
              ([ ("id", J.Int r.rid); ("kind", J.String r.kind); ("wall_us", J.Float (r.wall *. 1e6)) ]
              @ List.map (fun (k, v) -> (k ^ "_us", J.Float (v *. 1e6))) r.layers)));
      output_char oc '\n')
    (List.rev st.rows);
  close_out oc;
  let per_q k = sum st k /. float_of_int (max 1 st.n_queries) in
  let per_b k = sum st k /. float_of_int (max 1 st.n_batches) in
  let us k = per_q ("query/" ^ k) *. 1e6 in
  let ms k = per_b ("ingest/" ^ k) *. 1e3 in
  let ops = float_of_int (max 1 (st.n_queries + st.n_batches)) in
  let metrics =
    [
      ("exec.handoff_us", handoff, "us");
      ("protocol.parse_us", us "protocol.parse", "us");
      ("protocol.render_us", us "protocol.render", "us");
      ("protocol.response_bytes", per_q "protocol.response_bytes", "bytes");
      ("qlang.compile_us", us "qlang.compile", "us");
      ("analysis.lint_us", us "analysis.lint", "us");
      ("analysis.tighten_us", us "analysis.tighten", "us");
      ("engine.run_us", per_q "engine.run" *. 1e6, "us");
      ("engine.scanned", per_q "engine.scanned", "count");
      ("engine.intermediate", per_q "engine.intermediate", "count");
      ("engine.results", per_q "engine.results", "count");
      ("plan.select_self_us", us "plan.select", "us");
      ("plan_cache.lookup_self_us", us "plan_cache.lookup", "us");
      ("tai.probe_self_us", us "tai.probe", "us");
      ("tai.probes", per_q "tai.probes", "count");
      ("tsr.slice_self_us", us "tsr.slice", "us");
      ("lfto.sweep_self_us", us "lfto.sweep", "us");
      ("leapfrog.seeks", per_q "leapfrog.seeks", "count");
      ("leapfrog.nexts", per_q "leapfrog.nexts", "count");
      ("engine.unattributed_us", us "engine.unattributed", "us");
      ("ledger.query_wall_us", us "wall", "us");
      ("ledger.query_other_us", us "other", "us");
      ("gc.minor_words_per_op", sum st "gc.minor_words" /. ops, "words");
      ("gc.major_collections_per_1k_ops", float_of_int st.major *. 1000.0 /. ops, "count");
      ("incremental.merge_ms", ms "incremental.merge", "ms");
      ("engine.prepare_with_tai_ms", ms "engine.prepare_with_tai", "ms");
      ("subscription.refresh_ms", ms "subscription.refresh", "ms");
      ("subscription.frames", float_of_int st.frames /. float_of_int (max 1 st.n_batches), "count");
      ("subscription.added", float_of_int st.added /. float_of_int (max 1 st.n_batches), "count");
      ("subscription.retracted", float_of_int st.retracted /. float_of_int (max 1 st.n_batches), "count");
      ("tgraph.load_ms", load_s *. 1e3, "ms");
      ("engine.prepare_ms", prepare_s *. 1e3, "ms");
      ( "engine.index_words",
        float_of_int (Workload.Engine.index_size_words engine Workload.Engine.Tsrjoin),
        "words" );
    ]
  in
  let ledger kind per =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix:(kind ^ "/") k then (k, per v *. 1e6) :: acc
        else acc)
      st.sums []
    |> List.sort compare
  in
  {
    metrics;
    ledger =
      ledger "query" (fun v -> v /. float_of_int (max 1 st.n_queries))
      @ ledger "ingest" (fun v -> v /. float_of_int (max 1 st.n_batches));
    mismatches = st.mismatches;
    ledger_violations = st.violations;
    replayed = st.n_queries + st.n_batches;
  }
