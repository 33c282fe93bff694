(* Thread-safe metrics registry for a running server. Workers record
   per-request outcomes; any connection can ask for a JSON snapshot or a
   Prometheus text exposition. Counter totals are the merge of every
   request's [Run_stats], so the observability layer reports exactly
   what execution counted.

   Latencies live in fixed-size log-bucketed histograms
   ([Obs.Histogram]): O(1) memory however many requests arrive, exact
   count/sum/mean, and p50/p95 within the histogram's documented <= 10%
   relative error (the snapshot keeps the mean_ms/p50_ms/p95_ms fields
   of the old unbounded-list implementation). *)

open Semantics

type outcome = Completed | Truncated_budget | Truncated_deadline

type method_metrics = { mutable count : int; latency : Obs.Histogram.t }

type fp_metrics = {
  mutable fp_count : int;
  mutable fp_slow : int;
  mutable fp_seconds : float;
  mutable fp_cached : int;
  mutable fp_replanned : int;
}
(* per-query-shape hot list, keyed by Semantics.Fingerprint;
   fp_cached/fp_replanned count requests whose plan came from the plan
   cache / from a feedback-triggered re-plan *)

type t = {
  mutex : Mutex.t;
  started_at : float;
  totals : Run_stats.t;
  mutable completed : int;
  mutable truncated_budget : int;
  mutable truncated_deadline : int;
  mutable rejected : int;
  mutable parse_errors : int;
  mutable overloaded : int;
  mutable internal_errors : int;
  mutable slow_completed : int;
  mutable slow_truncated_budget : int;
  mutable slow_truncated_deadline : int;
  misestimation : Obs.Histogram.t;
      (* per-query max over plan levels of the symmetric est-vs-actual
         factor; only queries that carry an estimate are recorded *)
  per_method : (string, method_metrics) Hashtbl.t;
  per_fingerprint : (string, fp_metrics) Hashtbl.t;
  (* standing queries: live registrations, pushed delta frames, and the
     wall time of each per-subscription delta computation *)
  mutable subscriptions_active : int;
  mutable deltas_pushed : int;
  delta_latency : Obs.Histogram.t;
}

let create () =
  {
    mutex = Mutex.create ();
    started_at = Unix.gettimeofday ();
    totals = Run_stats.create ();
    completed = 0;
    truncated_budget = 0;
    truncated_deadline = 0;
    rejected = 0;
    parse_errors = 0;
    overloaded = 0;
    internal_errors = 0;
    slow_completed = 0;
    slow_truncated_budget = 0;
    slow_truncated_deadline = 0;
    misestimation = Obs.Histogram.create ();
    per_method = Hashtbl.create 8;
    per_fingerprint = Hashtbl.create 32;
    subscriptions_active = 0;
    deltas_pushed = 0;
    delta_latency = Obs.Histogram.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let method_slot t name =
  match Hashtbl.find_opt t.per_method name with
  | Some mm -> mm
  | None ->
      let mm = { count = 0; latency = Obs.Histogram.create () } in
      Hashtbl.add t.per_method name mm;
      mm

let fp_slot t fingerprint =
  match Hashtbl.find_opt t.per_fingerprint fingerprint with
  | Some fm -> fm
  | None ->
      let fm =
        {
          fp_count = 0;
          fp_slow = 0;
          fp_seconds = 0.0;
          fp_cached = 0;
          fp_replanned = 0;
        }
      in
      Hashtbl.add t.per_fingerprint fingerprint fm;
      fm

let record_query ?(slow = false) ?fingerprint ?misestimation ?plan_source t
    ~method_ ~outcome ~stats ~seconds =
  locked t (fun () ->
      (match outcome with
      | Completed ->
          t.completed <- t.completed + 1;
          if slow then t.slow_completed <- t.slow_completed + 1
      | Truncated_budget ->
          t.truncated_budget <- t.truncated_budget + 1;
          if slow then t.slow_truncated_budget <- t.slow_truncated_budget + 1
      | Truncated_deadline ->
          t.truncated_deadline <- t.truncated_deadline + 1;
          if slow then
            t.slow_truncated_deadline <- t.slow_truncated_deadline + 1);
      Run_stats.merge_into t.totals stats;
      (match misestimation with
      | Some f -> Obs.Histogram.record t.misestimation f
      | None -> ());
      (match fingerprint with
      | Some fp ->
          let fm = fp_slot t fp in
          fm.fp_count <- fm.fp_count + 1;
          if slow then fm.fp_slow <- fm.fp_slow + 1;
          fm.fp_seconds <- fm.fp_seconds +. seconds;
          (match plan_source with
          | Some Workload.Plan_cache.Cached -> fm.fp_cached <- fm.fp_cached + 1
          | Some Workload.Plan_cache.Replanned ->
              fm.fp_replanned <- fm.fp_replanned + 1
          | Some Workload.Plan_cache.Fresh | None -> ())
      | None -> ());
      let mm = method_slot t (Workload.Engine.method_name method_) in
      mm.count <- mm.count + 1;
      Obs.Histogram.record mm.latency seconds)

let record_rejected t = locked t (fun () -> t.rejected <- t.rejected + 1)

let record_parse_error t =
  locked t (fun () -> t.parse_errors <- t.parse_errors + 1)

let record_overloaded t =
  locked t (fun () -> t.overloaded <- t.overloaded + 1)

let record_internal_error t =
  locked t (fun () -> t.internal_errors <- t.internal_errors + 1)

let set_subscriptions t n =
  locked t (fun () -> t.subscriptions_active <- n)

let record_delta t ~seconds =
  locked t (fun () ->
      t.deltas_pushed <- t.deltas_pushed + 1;
      Obs.Histogram.record t.delta_latency seconds)

let method_json mm =
  let ms s = s *. 1000.0 in
  Json.Obj
    [
      ("count", Json.Int mm.count);
      ("mean_ms", Json.Float (ms (Obs.Histogram.mean mm.latency)));
      ("p50_ms", Json.Float (ms (Obs.Histogram.quantile mm.latency 0.5)));
      ("p95_ms", Json.Float (ms (Obs.Histogram.quantile mm.latency 0.95)));
    ]

let outcome_counts t =
  [
    ("completed", t.completed);
    ("truncated_budget", t.truncated_budget);
    ("truncated_deadline", t.truncated_deadline);
    ("rejected", t.rejected);
    ("parse_errors", t.parse_errors);
    ("overloaded", t.overloaded);
    ("internal_errors", t.internal_errors);
  ]

let slow_counts t =
  [
    ("completed", t.slow_completed);
    ("truncated_budget", t.slow_truncated_budget);
    ("truncated_deadline", t.slow_truncated_deadline);
  ]

let sorted_methods t =
  Hashtbl.fold (fun name mm acc -> (name, mm) :: acc) t.per_method []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* hottest query shapes: by request count, ties broken by total time,
   then lexicographically so the snapshot is deterministic *)
let hot_fingerprints t =
  Hashtbl.fold (fun fp fm acc -> (fp, fm) :: acc) t.per_fingerprint []
  |> List.sort (fun (fa, a) (fb, b) ->
         match compare b.fp_count a.fp_count with
         | 0 -> (
             match compare b.fp_seconds a.fp_seconds with
             | 0 -> String.compare fa fb
             | c -> c)
         | c -> c)

let fingerprint_json (fp, fm) =
  Json.Obj
    [
      ("fingerprint", Json.String fp);
      ("count", Json.Int fm.fp_count);
      ("slow", Json.Int fm.fp_slow);
      ( "mean_ms",
        Json.Float
          (if fm.fp_count = 0 then 0.0
           else fm.fp_seconds *. 1000.0 /. float_of_int fm.fp_count) );
      ("cached", Json.Int fm.fp_cached);
      ("replanned", Json.Int fm.fp_replanned);
    ]

(* plan-cache counter pairs shared by the JSON snapshot and the
   Prometheus exposition; read fresh from the cache at snapshot time so
   the registry holds no second copy that could drift *)
let plan_cache_counts cache =
  let c = Workload.Plan_cache.counters cache in
  [
    ("hits", c.Workload.Plan_cache.hits);
    ("misses", c.Workload.Plan_cache.misses);
    ("evictions", c.Workload.Plan_cache.evictions);
    ("invalidations", c.Workload.Plan_cache.invalidations);
    ("replans", c.Workload.Plan_cache.replans);
  ]

let snapshot_json ?plan_cache t ~queue_depth ~pool_dropped =
  locked t (fun () ->
      let methods =
        List.map (fun (name, mm) -> (name, method_json mm)) (sorted_methods t)
      in
      Json.Obj
        ([
          ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
          ("queue_depth", Json.Int queue_depth);
          ("pool_dropped_exceptions", Json.Int pool_dropped);
          ( "requests",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Int v)) (outcome_counts t)) );
          ( "slow_requests",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (slow_counts t))
          );
          ("totals", Protocol.stats_json t.totals);
          ("methods", Json.Obj methods);
          ( "misestimation",
            Json.Obj
              [
                ("count", Json.Int (Obs.Histogram.count t.misestimation));
                ("mean", Json.Float (Obs.Histogram.mean t.misestimation));
                ( "p95",
                  Json.Float (Obs.Histogram.quantile t.misestimation 0.95) );
              ] );
          ( "fingerprints",
            Json.List (List.map fingerprint_json (hot_fingerprints t)) );
          ( "subscriptions",
            Json.Obj
              [
                ("active", Json.Int t.subscriptions_active);
                ("deltas_pushed", Json.Int t.deltas_pushed);
                ( "delta_mean_ms",
                  Json.Float (Obs.Histogram.mean t.delta_latency *. 1000.0) );
                ( "delta_p95_ms",
                  Json.Float
                    (Obs.Histogram.quantile t.delta_latency 0.95 *. 1000.0) );
              ] );
        ]
        @
        match plan_cache with
      | None -> []
      | Some cache ->
          [
            ( "plan_cache",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Int v))
                   (plan_cache_counts cache)
                @ [
                    ("size", Json.Int (Workload.Plan_cache.length cache));
                    ( "capacity",
                      Json.Int (Workload.Plan_cache.capacity cache) );
                    ( "generation",
                      Json.Int (Workload.Plan_cache.generation cache) );
                  ]) );
          ]))

(* Prometheus label-value escaping (exposition format 0.0.4): inside a
   quoted label value, backslash, double-quote and newline must be
   escaped. Every label value below goes through this, so a hostile
   method/outcome name can never corrupt the exposition. *)
let plabel v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* One full histogram family block: every bucket of the [Obs.Histogram]
   decade ladder, the mandatory +Inf bucket, and _sum/_count. *)
let prom_histogram buf ~family ~label h =
  let bucket le_str n =
    match label with
    | None ->
        Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" family le_str n
    | Some (k, v) ->
        Printf.bprintf buf "%s_bucket{%s=\"%s\",le=\"%s\"} %d\n" family k
          (plabel v) le_str n
  in
  Array.iter
    (fun le ->
      bucket (Printf.sprintf "%g" le) (Obs.Histogram.cumulative h ~le))
    Obs.Histogram.le_edges;
  bucket "+Inf" (Obs.Histogram.count h);
  (match label with
  | None ->
      Printf.bprintf buf "%s_sum %.6f\n" family (Obs.Histogram.sum h);
      Printf.bprintf buf "%s_count %d\n" family (Obs.Histogram.count h)
  | Some (k, v) ->
      Printf.bprintf buf "%s_sum{%s=\"%s\"} %.6f\n" family k (plabel v)
        (Obs.Histogram.sum h);
      Printf.bprintf buf "%s_count{%s=\"%s\"} %d\n" family k (plabel v)
        (Obs.Histogram.count h))

(* Prometheus text exposition (version 0.0.4). Families:
   tcsq_uptime_seconds, tcsq_queue_depth (gauges);
   tcsq_requests_total{outcome}, tcsq_slow_requests_total{outcome},
   tcsq_run_stats_total{counter} (counters);
   tcsq_request_duration_seconds{method}, tcsq_misestimation_ratio
   (histograms whose "le" ladder is the decade edges of [Obs.Histogram]
   — exact cumulative counts, always closed with +Inf/_sum/_count). *)
let prometheus ?plan_cache t ~queue_depth ~pool_dropped =
  locked t (fun () ->
      let buf = Buffer.create 2048 in
      Printf.bprintf buf
        "# HELP tcsq_uptime_seconds Seconds since server start.\n\
         # TYPE tcsq_uptime_seconds gauge\n\
         tcsq_uptime_seconds %.3f\n"
        (Unix.gettimeofday () -. t.started_at);
      Printf.bprintf buf
        "# HELP tcsq_queue_depth Admission queue depth.\n\
         # TYPE tcsq_queue_depth gauge\n\
         tcsq_queue_depth %d\n"
        queue_depth;
      Printf.bprintf buf
        "# HELP tcsq_pool_dropped_exceptions_total Worker-pool jobs that \
         died with an unhandled exception.\n\
         # TYPE tcsq_pool_dropped_exceptions_total counter\n\
         tcsq_pool_dropped_exceptions_total %d\n"
        pool_dropped;
      Buffer.add_string buf
        "# HELP tcsq_requests_total Requests by outcome.\n\
         # TYPE tcsq_requests_total counter\n";
      List.iter
        (fun (o, v) ->
          Printf.bprintf buf "tcsq_requests_total{outcome=\"%s\"} %d\n"
            (plabel o) v)
        (outcome_counts t);
      Buffer.add_string buf
        "# HELP tcsq_slow_requests_total Requests at or over the slow-query \
         threshold, by outcome.\n\
         # TYPE tcsq_slow_requests_total counter\n";
      List.iter
        (fun (o, v) ->
          Printf.bprintf buf "tcsq_slow_requests_total{outcome=\"%s\"} %d\n"
            (plabel o) v)
        (slow_counts t);
      Buffer.add_string buf
        "# HELP tcsq_run_stats_total Execution counters merged over all \
         queries.\n\
         # TYPE tcsq_run_stats_total counter\n";
      List.iter
        (fun (c, v) ->
          Printf.bprintf buf "tcsq_run_stats_total{counter=\"%s\"} %d\n"
            (plabel c) v)
        (Run_stats.counters t.totals);
      Buffer.add_string buf
        "# HELP tcsq_request_duration_seconds Query wall time by method.\n\
         # TYPE tcsq_request_duration_seconds histogram\n";
      List.iter
        (fun (name, mm) ->
          prom_histogram buf ~family:"tcsq_request_duration_seconds"
            ~label:(Some ("method", name))
            mm.latency)
        (sorted_methods t);
      Buffer.add_string buf
        "# HELP tcsq_misestimation_ratio Per-query max over plan levels of \
         the symmetric estimated-vs-actual cardinality factor.\n\
         # TYPE tcsq_misestimation_ratio histogram\n";
      prom_histogram buf ~family:"tcsq_misestimation_ratio" ~label:None
        t.misestimation;
      Printf.bprintf buf
        "# HELP tcsq_subscriptions_active Registered standing queries.\n\
         # TYPE tcsq_subscriptions_active gauge\n\
         tcsq_subscriptions_active %d\n"
        t.subscriptions_active;
      Printf.bprintf buf
        "# HELP tcsq_deltas_pushed_total Standing-query delta notifications \
         pushed to subscribers.\n\
         # TYPE tcsq_deltas_pushed_total counter\n\
         tcsq_deltas_pushed_total %d\n"
        t.deltas_pushed;
      Buffer.add_string buf
        "# HELP tcsq_delta_duration_seconds Per-subscription delta \
         computation wall time.\n\
         # TYPE tcsq_delta_duration_seconds histogram\n";
      prom_histogram buf ~family:"tcsq_delta_duration_seconds" ~label:None
        t.delta_latency;
      (match plan_cache with
      | None -> ()
      | Some cache ->
          List.iter
            (fun (name, help, v) ->
              Printf.bprintf buf
                "# HELP tcsq_plan_cache_%s_total %s\n\
                 # TYPE tcsq_plan_cache_%s_total counter\n\
                 tcsq_plan_cache_%s_total %d\n"
                name help name name v)
            (let c = plan_cache_counts cache in
             let get k = List.assoc k c in
             [
               ("hits", "Plan-cache lookups served from the cache.", get "hits");
               ("misses", "Plan-cache lookups that planned fresh.", get "misses");
               ( "evictions",
                 "Plan-cache entries dropped by the LRU bound.",
                 get "evictions" );
               ( "invalidations",
                 "Plan-cache entries dropped by ingest invalidation.",
                 get "invalidations" );
               ( "replans",
                 "Poisoned plan-cache entries re-planned from feedback.",
                 get "replans" );
             ]);
          Printf.bprintf buf
            "# HELP tcsq_plan_cache_entries Live plan-cache entries.\n\
             # TYPE tcsq_plan_cache_entries gauge\n\
             tcsq_plan_cache_entries %d\n"
            (Workload.Plan_cache.length cache));
      Buffer.contents buf)
