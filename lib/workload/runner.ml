open Semantics

let default_limits =
  { Run_stats.max_results = 100_000; max_intermediate = 5_000_000 }

type measurement = {
  method_ : Engine.method_;
  n_queries : int;
  n_truncated : int;
  total_seconds : float;
  mean_seconds : float;
  p50_seconds : float;
  p95_seconds : float;
  total_results : int;
  total_intermediate : int;
  total_scanned : int;
  total_seeks : int;
  total_est_intermediate : int;
  total_levels : int array;
  total_est_levels : int array;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (float_of_int (n - 1) *. p)))

let run_method ?(limits = default_limits) ?obs ?tsrjoin_config ?pool ?domains
    ?plan_cache engine method_ queries =
  let totals = Run_stats.create () in
  let n_truncated = ref 0 in
  let per_query = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun q ->
      let stats = Run_stats.create ~limits () in
      let q0 = Unix.gettimeofday () in
      (try
         Engine.run_ext ~stats ?obs ?tsrjoin_config ?pool ?domains ?plan_cache
           engine method_ (Equery.plain q)
           ~emit:(fun _ -> ())
       with Run_stats.Limit_exceeded _ -> incr n_truncated);
      per_query := (Unix.gettimeofday () -. q0) :: !per_query;
      Run_stats.merge_into totals stats)
    queries;
  let total_seconds = Unix.gettimeofday () -. t0 in
  let n = List.length queries in
  let sorted = Array.of_list !per_query in
  Array.sort Float.compare sorted;
  {
    method_;
    n_queries = n;
    n_truncated = !n_truncated;
    total_seconds;
    mean_seconds = (if n = 0 then 0.0 else total_seconds /. float_of_int n);
    p50_seconds = percentile sorted 0.5;
    p95_seconds = percentile sorted 0.95;
    total_results = totals.Run_stats.results;
    total_intermediate = totals.Run_stats.intermediate;
    total_scanned = totals.Run_stats.scanned;
    total_seeks = totals.Run_stats.seeks;
    total_est_intermediate = totals.Run_stats.est_intermediate;
    total_levels = Run_stats.levels totals;
    total_est_levels = Run_stats.est_levels totals;
  }

let pp_header fmt () =
  Format.fprintf fmt "%-8s %8s %6s %12s %12s %14s %14s" "method" "queries"
    "trunc" "mean-ms" "total-s" "intermediate" "scanned"

let csv_header =
  "method,queries,truncated,mean_ms,p50_ms,p95_ms,total_s,results,intermediate,scanned,seeks,est_intermediate"

let to_csv_row ?tag m =
  let prefix = match tag with Some t -> t ^ "," | None -> "" in
  Printf.sprintf "%s%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d" prefix
    (Engine.method_name m.method_)
    m.n_queries m.n_truncated
    (m.mean_seconds *. 1000.0)
    (m.p50_seconds *. 1000.0)
    (m.p95_seconds *. 1000.0)
    m.total_seconds m.total_results m.total_intermediate m.total_scanned
    m.total_seeks m.total_est_intermediate

module J = Obs.Json

let int_array_json a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a))

(* timings print with microsecond precision *)
let seconds s = J.Fixed (6, s)

let measurement_to_json ?(fields = []) ?(obs = Obs.Sink.null) m =
  let phases =
    if not (Obs.Sink.enabled obs) then []
    else
      (* keys in [Phase.all] order: the summary ranks rows by measured
         time, which differs from run to run *)
      let rows =
        List.sort
          (fun (a : Obs.Trace.row) (b : Obs.Trace.row) ->
            Int.compare (Obs.Phase.index a.phase) (Obs.Phase.index b.phase))
          (Obs.Trace.summary obs)
      in
      [
        ( "phases",
          J.Obj
            (List.map
               (fun (r : Obs.Trace.row) ->
                 ( Obs.Phase.name r.Obs.Trace.phase,
                   J.Obj
                     [
                       ("count", J.Int r.Obs.Trace.count);
                       ("total_s", seconds r.Obs.Trace.total_s);
                       ("self_s", seconds r.Obs.Trace.self_s);
                     ] ))
               rows) );
      ]
  in
  J.Obj
    (fields
    @ [
        ("method", J.String (Engine.method_name m.method_));
        ("n_queries", J.Int m.n_queries);
        ("n_truncated", J.Int m.n_truncated);
        ("total_s", seconds m.total_seconds);
        ("mean_s", seconds m.mean_seconds);
        ("p50_s", seconds m.p50_seconds);
        ("p95_s", seconds m.p95_seconds);
        ("results", J.Int m.total_results);
        ("intermediate", J.Int m.total_intermediate);
        ("scanned", J.Int m.total_scanned);
        ("seeks", J.Int m.total_seeks);
        ("est_intermediate", J.Int m.total_est_intermediate);
        ("levels", int_array_json m.total_levels);
        ("est_levels", int_array_json m.total_est_levels);
      ]
    @ phases)

let pp_measurement fmt m =
  Format.fprintf fmt "%-8s %8d %6d %12.3f %12.3f %14d %14d"
    (Engine.method_name m.method_)
    m.n_queries m.n_truncated
    (m.mean_seconds *. 1000.0)
    m.total_seconds m.total_intermediate m.total_scanned
