(* A resident query service over a Unix-domain socket.

   The graph is loaded and indexed once ([Workload.Engine.prepare]), then
   every request rides the warm TAI/planner state. Request lifecycle:

     lint -> admit -> execute-with-deadline -> respond

   - lint: the query text is compiled and run through the static
     analyzer on the connection thread; error-level queries are rejected
     before they cost anything, provably-empty ones skip execution.
   - admit: accepted queries enter a bounded queue drained by a fixed
     pool of worker domains; a full queue answers "overloaded" instead
     of stalling the connection.
   - execute: workers run the engine under the request's Run_stats
     budgets plus a wall-clock deadline checked on the counter tick
     path, so even result-free sweeps abort promptly.
   - respond: one JSON line per request, written under a per-connection
     lock (workers finish out of submission order). *)

open Semantics

type config = {
  socket_path : string;
  workers : int;
  queue_depth : int;
  default_deadline_ms : float option;
  default_limit : int;
  default_max_results : int;
  default_max_intermediate : int;
  (* when set, every [trace_sample]-th query request is traced through a
     per-request sink and written as [trace_dir]/req-<seq>.json (Chrome
     trace-event JSON, schema trace/v1) *)
  trace_dir : string option;
  trace_sample : int;
  (* intra-query fan-out ceiling: a request may additionally enlist up
     to [domains - 1] *idle* pool workers as TSRJoin helpers; 1 keeps
     every query single-domain *)
  domains : int;
  (* when set, append one tcsq-qlog/v1 JSON line per finished request
     (any outcome) to this file *)
  query_log : string option;
  (* requests at or over this wall time are flagged slow: always logged
     regardless of sampling, and counted in tcsq_slow_requests_total *)
  slow_ms : float option;
  (* keep-rate for ordinary (fast, completed) query-log lines *)
  qlog_sample : float;
  (* bound on the shared plan cache (entries); 0 disables caching —
     every request plans from scratch, exactly the pre-cache behavior *)
  plan_cache_size : int;
  (* worst-level symmetric est-vs-actual factor that counts an execution
     as misestimated for the cache's adaptive re-planning; the default
     is the P009 threshold, Explain.misestimation_threshold *)
  plan_cache_replan_threshold : float;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    queue_depth = 64;
    default_deadline_ms = None;
    default_limit = 100;
    default_max_results = Workload.Runner.default_limits.Run_stats.max_results;
    default_max_intermediate =
      Workload.Runner.default_limits.Run_stats.max_intermediate;
    trace_dir = None;
    trace_sample = 1;
    domains = 1;
    query_log = None;
    slow_ms = None;
    qlog_sample = 1.0;
    plan_cache_size = 256;
    plan_cache_replan_threshold = Analysis.Explain.misestimation_threshold;
  }

type t = {
  config : config;
  (* swapped atomically by ingest; a request captures one engine at
     admission and uses it throughout, so in-flight queries keep a
     consistent graph while new requests see the appended edges *)
  engine : Workload.Engine.t Atomic.t;
  plan_cache : Workload.Plan_cache.t option;
  (* incremental index maintenance state: owns the merged graph + TAI
     the engine serves from; mutated only under [ingest_mutex] *)
  inc : Tcsq_core.Incremental.t;
  (* standing queries; refreshed under [ingest_mutex] on every batch *)
  subs : Subscription.t;
  (* serializes ingest batches (index merge + engine swap + cache
     invalidation + standing-query deltas) and subscription
     registration; queries never take it *)
  ingest_mutex : Mutex.t;
  pool : Exec.Pool.t;
  metrics : Metrics.t;
  qlog : Obs.Qlog.t option;
  listener : Unix.file_descr;
  state_mutex : Mutex.t;
  stop_requested : Condition.t;
  mutable stopping : bool;
  mutable finished : bool;
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
  mutable accept_domain : unit Domain.t option;
  req_seq : int Atomic.t;  (* query-request counter, drives trace sampling *)
}

let is_stopping t =
  Mutex.lock t.state_mutex;
  let s = t.stopping in
  Mutex.unlock t.state_mutex;
  s

(* Idempotent. [shutdown] (not [close]) on the listener: on Linux,
   closing a socket another thread is blocked in [accept] on leaves
   that thread blocked forever, while shutting it down wakes the accept
   with an error. The fd itself is closed in [finish], after the accept
   domain has been joined. Actual teardown happens in [finish] (from
   [wait]/[stop]), never on a connection thread. *)
let request_stop t =
  Mutex.lock t.state_mutex;
  if not t.stopping then begin
    t.stopping <- true;
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ())
  end;
  Condition.broadcast t.stop_requested;
  Mutex.unlock t.state_mutex

let metrics t = t.metrics
let engine t = Atomic.get t.engine
let plan_cache t = t.plan_cache
let queue_depth t = Exec.Pool.depth t.pool
let subscriptions t = Subscription.active t.subs

(* ---- request tracing ---- *)

(* A fresh sink per sampled query request; the connection thread records
   parse/lint/admit, the worker domain records execute/respond — a
   sequential handoff (the conn thread never touches the sink after
   submission), so single-owner use holds. *)
let request_sink t =
  match t.config.trace_dir with
  | None -> (Obs.Sink.null, 0)
  | Some _ ->
      let seq = Atomic.fetch_and_add t.req_seq 1 in
      if seq mod max 1 t.config.trace_sample = 0 then
        (Obs.Sink.create ~clock:Unix.gettimeofday (), seq)
      else (Obs.Sink.null, seq)

(* close the request span and flush the trace file; called exactly once
   per sampled request, on whichever thread sent the response *)
let finish_request t obs ~req_t0 ~seq =
  if Obs.Sink.enabled obs then begin
    Obs.Sink.record_span obs Obs.Phase.Request ~t0:req_t0;
    match t.config.trace_dir with
    | None -> ()
    | Some dir ->
        let path = Filename.concat dir (Printf.sprintf "req-%06d.json" seq) in
        (try
           let oc = open_out path in
           output_string oc
             (Obs.Trace.to_chrome_json ~process_name:"tcsq-serve" obs);
           close_out oc
         with Sys_error _ -> ())
  end

(* ---- structured query log ---- *)

(* per-level est-vs-actual pairs and the per-query max factor; no
   factor when the query carried no estimate (non-TSRJoin methods) *)
let levels_of_stats stats =
  let est = Run_stats.est_levels stats in
  let act = Run_stats.levels stats in
  let n = max (Array.length est) (Array.length act) in
  let get a i = if i < Array.length a then a.(i) else 0 in
  let levels =
    List.init n (fun i ->
        { Obs.Qlog.level = i; est = get est i; actual = get act i })
  in
  let misest =
    if Array.length est = 0 then None
    else
      Some
        (List.fold_left
           (fun m (l : Obs.Qlog.level) ->
             Float.max m
               (Analysis.Explain.misestimation_factor
                  (float_of_int l.Obs.Qlog.est)
                  (float_of_int l.Obs.Qlog.actual)))
           1.0 levels)
  in
  (levels, misest)

let log_query t ~outcome ~duration_ms ?id ?fingerprint ?query ?method_ ?window
    ?stats ?plan_source () =
  match t.qlog with
  | None -> ()
  | Some q ->
      let stat_pairs, levels, misestimation =
        match stats with
        | None -> ([], [], None)
        | Some s ->
            let levels, misest = levels_of_stats s in
            (Run_stats.counters s, levels, misest)
      in
      ignore
        (Obs.Qlog.log q
           {
             Obs.Qlog.ts = Unix.gettimeofday ();
             id;
             fingerprint;
             query;
             method_ = Option.map Workload.Engine.method_name method_;
             window;
             outcome;
             duration_ms;
             stats = stat_pairs;
             levels;
             misestimation;
             plan_source =
               Option.map Workload.Plan_cache.source_name plan_source;
           })

let is_slow t seconds =
  match t.config.slow_ms with
  | Some ms -> seconds *. 1000.0 >= ms
  | None -> false

(* one qlog line per pushed delta: method "delta", the subscriber's tag
   as the id, and the add/retract/total counts as stats *)
let log_delta t ~fingerprint (d : Subscription.delta) =
  match t.qlog with
  | None -> ()
  | Some q ->
      ignore
        (Obs.Qlog.log q
           {
             Obs.Qlog.ts = Unix.gettimeofday ();
             id = d.Subscription.tag;
             fingerprint = Some fingerprint;
             query = None;
             method_ = Some "delta";
             window =
               Some
                 ( Temporal.Interval.ts d.Subscription.window,
                   Temporal.Interval.te d.Subscription.window );
             outcome = Obs.Qlog.Completed;
             duration_ms = d.Subscription.elapsed_ms;
             stats =
               [
                 ("added", List.length d.Subscription.added);
                 ("retracted", List.length d.Subscription.retracted);
                 ("total", d.Subscription.total);
               ];
             levels = [];
             misestimation = None;
             plan_source = None;
           })

(* ---- request execution (worker domain) ---- *)

let execute t engine send ~obs ~fingerprint (qr : Protocol.query_request) eq
    ds =
  let cfg = t.config in
  (* a COUNT aggregate is exactly the wire protocol's count_only mode:
     report the piece count, ship no matches *)
  let count_only =
    qr.Protocol.count_only || Equery.agg eq = Some Equery.Count
  in
  let limits =
    {
      Run_stats.max_results =
        Option.value qr.Protocol.max_results ~default:cfg.default_max_results;
      max_intermediate =
        Option.value qr.Protocol.max_intermediate
          ~default:cfg.default_max_intermediate;
    }
  in
  let deadline_ms =
    match qr.Protocol.deadline_ms with
    | Some ms -> Some ms
    | None -> cfg.default_deadline_ms
  in
  let deadline =
    Option.map
      (fun ms ->
        {
          Run_stats.expires_at = Unix.gettimeofday () +. (ms /. 1000.0);
          now = Unix.gettimeofday;
        })
      deadline_ms
  in
  let stats = Run_stats.create ~limits ?deadline () in
  let limit = Option.value qr.Protocol.limit ~default:cfg.default_limit in
  let kept = ref [] in
  let n_kept = ref 0 in
  let total = ref 0 in
  let emit m =
    incr total;
    if (not count_only) && !n_kept < limit then begin
      incr n_kept;
      kept := m :: !kept
    end
  in
  let t0 = Unix.gettimeofday () in
  (* fan out only onto workers idle right now (plus this one): small
     queries and loaded pools keep single-domain latency, and helpers
     admitted by [submit_if_idle] never wait behind queued requests *)
  let fanout =
    if cfg.domains <= 1 then 1
    else min cfg.domains (1 + Exec.Pool.idle_workers t.pool)
  in
  let plan_source = ref None in
  let outcome =
    if Analysis.Diagnostic.proves_empty ds then Ok None
    else
      match
        Obs.Sink.span obs Obs.Phase.Execute (fun () ->
            Workload.Engine.run_ext ~stats ~obs ~pool:t.pool ~domains:fanout
              ?plan_cache:t.plan_cache ~plan_source engine
              qr.Protocol.method_ eq ~emit)
      with
      | () -> Ok None
      | exception Run_stats.Limit_exceeded _ -> Ok (Some Protocol.Budget)
      | exception Run_stats.Deadline_exceeded -> Ok (Some Protocol.Deadline)
      | exception e -> Error (Printexc.to_string e)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let w = Query.window (Equery.core eq) in
  let window = (Temporal.Interval.ts w, Temporal.Interval.te w) in
  let qlog_common outcome =
    log_query t ~outcome
      ~duration_ms:(elapsed *. 1000.0)
      ?id:qr.Protocol.id ~fingerprint ~query:qr.Protocol.text
      ~method_:qr.Protocol.method_ ~window ~stats ?plan_source:!plan_source ()
  in
  match outcome with
  | Ok truncated ->
      let metric_outcome, qlog_outcome =
        match truncated with
        | None -> (Metrics.Completed, Obs.Qlog.Completed)
        | Some Protocol.Budget ->
            (Metrics.Truncated_budget, Obs.Qlog.Truncated_budget)
        | Some Protocol.Deadline ->
            (Metrics.Truncated_deadline, Obs.Qlog.Truncated_deadline)
      in
      let _, misestimation = levels_of_stats stats in
      Metrics.record_query t.metrics ~slow:(is_slow t elapsed) ~fingerprint
        ?misestimation ?plan_source:!plan_source ~method_:qr.Protocol.method_
        ~outcome:metric_outcome ~stats ~seconds:elapsed;
      qlog_common qlog_outcome;
      Obs.Sink.span obs Obs.Phase.Respond (fun () ->
          send
            (Protocol.result_response ?id:qr.Protocol.id
               ~graph:(Workload.Engine.graph engine)
               ~truncated ~count:!total ~matches:(List.rev !kept) ~stats
               ~elapsed_ms:(elapsed *. 1000.0) ()))
  | Error msg ->
      Metrics.record_internal_error t.metrics;
      qlog_common Obs.Qlog.Internal_error;
      Obs.Sink.span obs Obs.Phase.Respond (fun () ->
          send (Protocol.error_response ?id:qr.Protocol.id ~kind:"internal" msg))

(* ---- request dispatch (connection thread) ---- *)

let handle_query t send (qr : Protocol.query_request) =
  let obs, seq = request_sink t in
  let req_t0 = Obs.Sink.now obs in
  let wall_t0 = Unix.gettimeofday () in
  let finish () = finish_request t obs ~req_t0 ~seq in
  let reject_ms () = (Unix.gettimeofday () -. wall_t0) *. 1000.0 in
  let engine = Atomic.get t.engine in
  let g = Workload.Engine.graph engine in
  match
    Obs.Sink.span obs Obs.Phase.Parse (fun () ->
        Qlang.parse_and_compile_ext g qr.Protocol.text)
  with
  | Error msg ->
      Metrics.record_rejected t.metrics;
      log_query t ~outcome:Obs.Qlog.Rejected_query
        ~duration_ms:(reject_ms ()) ?id:qr.Protocol.id ~query:qr.Protocol.text
        ~method_:qr.Protocol.method_ ();
      send (Protocol.error_response ?id:qr.Protocol.id ~kind:"query" msg);
      finish ()
  | Ok eq ->
      (* the query-shape grouping key of the log and the hot list; the
         raw (pre-tightening) shape so equal requests group together *)
      let fingerprint = Fingerprint.of_equery eq in
      let ds =
        Obs.Sink.span obs Obs.Phase.Lint (fun () ->
            Workload.Engine.analyze_ext engine qr.Protocol.method_ eq)
      in
      if Analysis.Diagnostic.has_errors ds then begin
        Metrics.record_rejected t.metrics;
        log_query t ~outcome:Obs.Qlog.Rejected_lint ~duration_ms:(reject_ms ())
          ?id:qr.Protocol.id ~fingerprint ~query:qr.Protocol.text
          ~method_:qr.Protocol.method_ ();
        send
          (Protocol.error_response ?id:qr.Protocol.id ~kind:"lint"
             ~diagnostics:ds "query rejected by static analysis");
        finish ()
      end
      else begin
        (* the analyzer's tightened window is result-preserving, so the
           admitted job executes it in place of the raw query *)
        let eq = Workload.Engine.tighten_ext engine eq in
        (* the admit span measures queue wait: opened at submission,
           closed when a worker picks the request up *)
        let admit_t0 = Obs.Sink.now obs in
        let job () =
          Obs.Sink.record_span obs Obs.Phase.Admit ~t0:admit_t0;
          execute t engine send ~obs ~fingerprint qr eq ds;
          finish ()
        in
        if not (Exec.Pool.submit t.pool job) then begin
          Metrics.record_overloaded t.metrics;
          Obs.Sink.record_span obs Obs.Phase.Admit ~t0:admit_t0;
          log_query t ~outcome:Obs.Qlog.Overloaded ~duration_ms:(reject_ms ())
            ?id:qr.Protocol.id ~fingerprint ~query:qr.Protocol.text
            ~method_:qr.Protocol.method_ ();
          send
            (Protocol.overloaded_response ?id:qr.Protocol.id
               ~queue_depth:(Exec.Pool.depth t.pool) ());
          finish ()
        end
      end

(* ---- streaming ingest (connection thread) ----

   Appends a batch of edges through [Tcsq_core.Incremental] — one
   buffered [Tai.merge] per batch, which re-sorts nothing and recomputes
   ECI coverage only for the touched (label, endpoint) groups — then
   swaps in a fresh engine around the maintained TAI
   ([Engine.prepare_with_tai]: no index rebuilds, and no edge scan,
   since its cost model and analyzer env read the statistics
   [Graph.append] extends from the batch; adjacency and STI-CP are
   rebuilt lazily iff a later request uses those methods) and
   invalidates the plan cache (plans and estimates are functions of
   graph statistics that just changed). Labels not yet interned are
   interned here: the label table is shared and append-only, so queries
   compiled against the old graph stay valid. In-flight queries finish
   on the engine they captured at admission.

   Standing-query deltas are computed from the batch (plain queries
   evaluate only the matches that bind a batch edge, see
   [Subscription]) and pushed *before* the ingest response is written,
   so a client that subscribes and ingests on one connection has every
   delta of a batch on the wire once it reads the batch's ingest ack. *)
let handle_ingest t send (ir : Protocol.ingest_request) =
  Mutex.lock t.ingest_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ingest_mutex) @@ fun () ->
  (* validate the whole batch before touching any state so a bad edge
     rejects the batch atomically, never half-applied *)
  let invalid =
    List.find_map
      (fun (e : Protocol.ingest_edge) ->
        if e.Protocol.src < 0 || e.Protocol.dst < 0 then
          Some
            (Printf.sprintf "negative vertex id on edge %d->%d" e.Protocol.src
               e.Protocol.dst)
        else if e.Protocol.te < e.Protocol.ts then
          Some
            (Printf.sprintf "te < ts on edge %d->%d" e.Protocol.src
               e.Protocol.dst)
        else None)
      ir.Protocol.edges
  in
  match invalid with
  | Some msg ->
      send
        (Protocol.error_response ?id:ir.Protocol.ingest_id ~kind:"ingest" msg)
  | None ->
      let labels =
        Tgraph.Graph.labels (Tcsq_core.Incremental.graph t.inc)
      in
      List.iter
        (fun (e : Protocol.ingest_edge) ->
          let lbl = Tgraph.Label.intern labels e.Protocol.label in
          ignore
            (Tcsq_core.Incremental.add_edge t.inc ~src:e.Protocol.src
               ~dst:e.Protocol.dst ~lbl ~ts:e.Protocol.ts ~te:e.Protocol.te))
        ir.Protocol.edges;
      let g' = Tcsq_core.Incremental.graph t.inc in
      let engine' =
        Workload.Engine.prepare_with_tai g' (Tcsq_core.Incremental.tai t.inc)
      in
      Atomic.set t.engine engine';
      let invalidated =
        match t.plan_cache with
        | None -> 0
        | Some cache ->
            let before =
              (Workload.Plan_cache.counters cache)
                .Workload.Plan_cache.invalidations
            in
            Workload.Plan_cache.bump_generation cache;
            (Workload.Plan_cache.counters cache)
              .Workload.Plan_cache.invalidations - before
      in
      let generation =
        match t.plan_cache with
        | Some cache -> Workload.Plan_cache.generation cache
        | None -> 0
      in
      Subscription.on_ingest t.subs ~engine:engine' ~generation;
      send
        (Protocol.ingest_response ?id:ir.Protocol.ingest_id
           ~appended:(List.length ir.Protocol.edges)
           ~n_edges:(Tgraph.Graph.n_edges g')
           ~generation ~invalidated ())

(* ---- standing queries (connection thread) ---- *)

let handle_subscribe t send conn (sr : Protocol.subscribe_request) =
  let engine0 = Atomic.get t.engine in
  let g0 = Workload.Engine.graph engine0 in
  match Qlang.parse_and_compile_ext g0 sr.Protocol.subscribe_text with
  | Error msg ->
      Metrics.record_rejected t.metrics;
      send
        (Protocol.error_response ?id:sr.Protocol.subscribe_id ~kind:"query"
           msg)
  | Ok eq ->
      let ds = Workload.Engine.analyze_ext engine0 Workload.Engine.Tsrjoin eq in
      if Analysis.Diagnostic.has_errors ds then begin
        Metrics.record_rejected t.metrics;
        send
          (Protocol.error_response ?id:sr.Protocol.subscribe_id ~kind:"lint"
             ~diagnostics:ds "query rejected by static analysis")
      end
      else begin
        let fingerprint = Fingerprint.of_equery eq in
        (* runs inside [Subscription.on_ingest], i.e. under the ingest
           mutex with the freshly swapped engine installed — so the
           graph read here is the one the delta's edge ids refer to *)
        let push (d : Subscription.delta) =
          let g = Workload.Engine.graph (Atomic.get t.engine) in
          send
            (Protocol.delta_notification ?tag:d.Subscription.tag
               ~sub:d.Subscription.sub ~generation:d.Subscription.generation
               ~graph:g ~window:d.Subscription.window
               ~added:d.Subscription.added
               ~retracted:d.Subscription.retracted ~total:d.Subscription.total
               ~elapsed_ms:d.Subscription.elapsed_ms ());
          Metrics.record_delta t.metrics
            ~seconds:(d.Subscription.elapsed_ms /. 1000.0);
          log_delta t ~fingerprint d
        in
        (* under the ingest mutex: the initial evaluation and the
           registration are atomic w.r.t. concurrent batches, so the
           snapshot + accumulated deltas always equal a fresh re-query *)
        Mutex.lock t.ingest_mutex;
        Fun.protect ~finally:(fun () -> Mutex.unlock t.ingest_mutex)
        @@ fun () ->
        let engine = Atomic.get t.engine in
        let sub, window, initial =
          Subscription.subscribe t.subs ~engine ~conn
            ?tag:sr.Protocol.subscribe_id ?window_width:sr.Protocol.window_width
            ~push eq
        in
        Metrics.set_subscriptions t.metrics (Subscription.active t.subs);
        send
          (Protocol.subscribe_response ?id:sr.Protocol.subscribe_id ~sub
             ~graph:(Workload.Engine.graph engine)
             ~window ~matches:initial ())
      end

let handle_unsubscribe t send (ur : Protocol.unsubscribe_request) =
  Mutex.lock t.ingest_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ingest_mutex) @@ fun () ->
  let removed = Subscription.unsubscribe t.subs ur.Protocol.sub in
  Metrics.set_subscriptions t.metrics (Subscription.active t.subs);
  send
    (Protocol.unsubscribe_response ?id:ur.Protocol.unsubscribe_id
       ~sub:ur.Protocol.sub ~removed ())

let handle_request t ~conn send line =
  match Protocol.parse_request line with
  | Error (id, msg) ->
      Metrics.record_parse_error t.metrics;
      log_query t ~outcome:Obs.Qlog.Rejected_query ~duration_ms:0.0 ?id
        ~query:line ();
      send (Protocol.error_response ?id ~kind:"parse" msg)
  | Ok (Protocol.Ping id) -> send (Protocol.pong_response ?id ())
  | Ok (Protocol.Ingest ir) -> handle_ingest t send ir
  | Ok (Protocol.Subscribe sr) -> handle_subscribe t send conn sr
  | Ok (Protocol.Unsubscribe ur) -> handle_unsubscribe t send ur
  | Ok (Protocol.Metrics id) ->
      send
        (Protocol.metrics_response ?id
           (Metrics.snapshot_json ?plan_cache:t.plan_cache t.metrics
              ~queue_depth:(Exec.Pool.depth t.pool)
              ~pool_dropped:(Exec.Pool.dropped_exceptions t.pool)))
  | Ok (Protocol.Metrics_prom id) ->
      send
        (Protocol.metrics_prom_response ?id
           (Metrics.prometheus ?plan_cache:t.plan_cache t.metrics
              ~queue_depth:(Exec.Pool.depth t.pool)
              ~pool_dropped:(Exec.Pool.dropped_exceptions t.pool)))
  | Ok (Protocol.Shutdown id) ->
      send (Protocol.shutdown_response ?id ());
      request_stop t
  | Ok (Protocol.Query qr) -> handle_query t send qr

let unregister t fd =
  Mutex.lock t.state_mutex;
  t.conns <- List.filter (fun fd' -> fd' <> fd) t.conns;
  Mutex.unlock t.state_mutex

(* The longest request line a connection may send: one client that
   never sends a newline must not grow the server's buffer unbounded. *)
let max_request_bytes = 16 * 1024 * 1024

let handle_conn t fd =
  (* workers answer out of order, so every response line is written
     under this lock; a vanished client just drops the write *)
  let wlock = Mutex.create () in
  let send line =
    Mutex.lock wlock;
    (try Wire.write_line fd line
     with Unix.Unix_error _ | Sys_error _ -> ());
    Mutex.unlock wlock
  in
  let reader = Wire.reader ~max_line:max_request_bytes fd in
  let rec loop () =
    match Wire.read_line reader with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line <> "" then handle_request t ~conn:fd send line;
        loop ()
    | exception Wire.Frame_too_long ->
        Metrics.record_parse_error t.metrics;
        send
          (Protocol.error_response ~kind:"parse"
             (Printf.sprintf "request frame exceeds %d bytes"
                max_request_bytes))
  in
  (try loop () with _ -> ());
  unregister t fd;
  (* a vanished subscriber takes its standing queries with it *)
  if Subscription.drop_conn t.subs fd > 0 then
    Metrics.set_subscriptions t.metrics (Subscription.active t.subs);
  (try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listener with
    | fd, _ ->
        Mutex.lock t.state_mutex;
        if t.stopping then begin
          Mutex.unlock t.state_mutex;
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          t.conns <- fd :: t.conns;
          let thread = Thread.create (fun () -> handle_conn t fd) () in
          t.threads <- thread :: t.threads;
          Mutex.unlock t.state_mutex;
          loop ()
        end
    | exception Unix.Unix_error _ -> if not (is_stopping t) then loop ()
  in
  loop ()

(* ---- lifecycle ---- *)

let start config engine =
  if config.workers < 1 then invalid_arg "Server.start: need >= 1 worker";
  (* a worker writing to a client that already hung up must not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists config.socket_path then
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (match config.trace_dir with
  | Some dir -> (
      try Unix.mkdir dir 0o755
      with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error _ -> ())
  | None -> ());
  let qlog =
    match config.query_log with
    | None -> None
    | Some path -> (
        let slow_ms = Option.value config.slow_ms ~default:infinity in
        match Obs.Qlog.create ~slow_ms ~sample:config.qlog_sample path with
        | Ok q -> Some q
        | Error msg ->
            invalid_arg
              (Printf.sprintf "Server.start: cannot open query log %s: %s"
                 path msg))
  in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     (match qlog with Some q -> Obs.Qlog.close q | None -> ());
     raise e);
  if config.plan_cache_size < 0 then
    invalid_arg "Server.start: negative plan_cache_size";
  let t =
    {
      config;
      engine = Atomic.make engine;
      plan_cache =
        (if config.plan_cache_size = 0 then None
         else
           Some
             (Workload.Plan_cache.create ~capacity:config.plan_cache_size
                ~replan_threshold:config.plan_cache_replan_threshold ()));
      inc =
        Tcsq_core.Incremental.of_tai
          (Workload.Engine.graph engine)
          (Workload.Engine.tai engine);
      subs = Subscription.create ();
      ingest_mutex = Mutex.create ();
      qlog;
      pool =
        Exec.Pool.create ~workers:config.workers
          ~max_depth:config.queue_depth;
      metrics = Metrics.create ();
      listener;
      state_mutex = Mutex.create ();
      stop_requested = Condition.create ();
      stopping = false;
      finished = false;
      conns = [];
      threads = [];
      accept_domain = None;
      req_seq = Atomic.make 0;
    }
  in
  t.accept_domain <- Some (Domain.spawn (accept_loop t));
  t

let finish t =
  Mutex.lock t.state_mutex;
  let already = t.finished in
  t.finished <- true;
  Mutex.unlock t.state_mutex;
  if not already then begin
    (match t.accept_domain with
    | Some d ->
        Domain.join d;
        t.accept_domain <- None
    | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* drain accepted work so every admitted request gets its response *)
    Exec.Pool.shutdown t.pool;
    (* then wake connection readers still blocked on open sockets *)
    Mutex.lock t.state_mutex;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns;
    let threads = t.threads in
    Mutex.unlock t.state_mutex;
    List.iter Thread.join threads;
    (match t.qlog with Some q -> Obs.Qlog.close q | None -> ());
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ())
  end

(* Blocks until a shutdown request arrives (protocol or [request_stop]),
   then tears everything down. *)
let wait t =
  Mutex.lock t.state_mutex;
  while not t.stopping do
    Condition.wait t.stop_requested t.state_mutex
  done;
  Mutex.unlock t.state_mutex;
  finish t

(* Immediate shutdown from the owning thread. *)
let stop t =
  request_stop t;
  finish t
