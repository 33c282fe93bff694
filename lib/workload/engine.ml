type method_ = Tsrjoin | Binary | Hybrid | Time

let all_methods = [| Tsrjoin; Binary; Hybrid; Time |]

let method_name = function
  | Tsrjoin -> "tsrjoin"
  | Binary -> "binary"
  | Hybrid -> "hybrid"
  | Time -> "time"

let method_of_string s =
  match String.lowercase_ascii s with
  | "tsrjoin" | "tsrj" -> Some Tsrjoin
  | "binary" -> Some Binary
  | "hybrid" -> Some Hybrid
  | "time" -> Some Time
  | _ -> None

(* Domain-safe lazy cell. [Lazy.t] is not safe to force concurrently
   under OCaml 5 (a racing force raises [Lazy.Undefined]), and engine
   values are shared across the server's worker domains, so the
   on-demand indexes live behind a mutex + atomic slot: the fast path
   is a single [Atomic.get]; builders run at most once. *)
type 'a slot = {
  sm : Mutex.t;
  cell : 'a option Atomic.t;
  build : unit -> 'a;
}

let slot_ready v =
  { sm = Mutex.create (); cell = Atomic.make (Some v); build = (fun () -> v) }

let slot_deferred build = { sm = Mutex.create (); cell = Atomic.make None; build }

let slot_force s =
  match Atomic.get s.cell with
  | Some v -> v
  | None ->
      Mutex.lock s.sm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.sm)
        (fun () ->
          match Atomic.get s.cell with
          | Some v -> v
          | None ->
              let v = s.build () in
              Atomic.set s.cell (Some v);
              v)

type t = {
  graph : Tgraph.Graph.t;
  target : Analysis.Lint.target;
  adjacency : Triejoin.Adjacency.t slot;
  sti_index : Relops.Sti_index.t slot;
}

let prepare graph =
  {
    graph;
    target =
      Analysis.Lint.target_of_tai (Tcsq_core.Tai.build ~with_eci:true graph);
    adjacency = slot_ready (Triejoin.Adjacency.build graph);
    sti_index = slot_ready (Relops.Sti_index.build graph);
  }

(* The streaming-ingest constructor: adopts a TAI maintained by
   [Tcsq_core.Incremental] (one buffered [Tai.merge] per batch) instead
   of rebuilding it, and defers the Binary/Hybrid adjacency and the
   STI-CP index until a request actually needs them — the default
   TSRJoin serve path never does, so per-batch engine refresh is a lint
   target (the TAI and the analyzer env), not three index builds. *)
let prepare_with_tai graph tai =
  {
    graph;
    target = Analysis.Lint.target_of_tai tai;
    adjacency = slot_deferred (fun () -> Triejoin.Adjacency.build graph);
    sti_index = slot_deferred (fun () -> Relops.Sti_index.build graph);
  }

let graph t = t.graph
let target t = t.target
let tai t = Analysis.Lint.tai t.target

(* unchecked: [Tsrjoin.run] validates every plan it executes, fresh or
   cached *)
let fresh_plan ?edge_scale t q =
  Tcsq_core.Plan.build ?edge_scale (tai t) q

let estimate_counters t plan =
  let est = Tcsq_core.Plan.estimate (tai t) plan in
  ( Tcsq_core.Plan.intermediate_counter est,
    Tcsq_core.Plan.level_counters est )

(* records the cost model's intermediate-cardinality prediction, the
   one `tcsq explain` reports, on the caller's stats: deterministic in
   (plan, window), so sequential and parallel runs agree and merged
   per-domain stats (which contribute 0) stay additive *)
let record_est_counters ?stats (est_intermediate, est_levels) =
  match stats with
  | None -> ()
  | Some s ->
      Semantics.Run_stats.add_est_intermediate s est_intermediate;
      Array.iteri
        (fun level n ->
          Semantics.Run_stats.add_est_level_intermediate s level n)
        est_levels

let record_estimate ?stats t plan =
  match stats with
  | None -> ()
  | Some _ -> record_est_counters ?stats (estimate_counters t plan)

let set_source plan_source src =
  match plan_source with None -> () | Some r -> r := Some src

(* Plan acquisition. Without a cache this is the original path: build
   under [plan_select], estimates only when the caller wants stats.
   With a cache, the lookup/store/feedback bookkeeping runs
   under [plan_cache] and only actual planning work (miss or replan)
   under [plan_select] — so a hit's plan_select self-time is honestly
   ~0. Cached estimates are recorded from the entry without estimating
   again. *)
let tsrjoin_plan ?plan_cache ?plan_source ?stats ~obs t q =
  match plan_cache with
  | None ->
      set_source plan_source Plan_cache.Fresh;
      let plan =
        Obs.Sink.span obs Obs.Phase.Plan_select (fun () -> fresh_plan t q)
      in
      record_estimate ?stats t plan;
      plan
  | Some cache -> (
      let build ?edge_scale src =
        let plan, est =
          Obs.Sink.span obs Obs.Phase.Plan_select (fun () ->
              let plan = fresh_plan ?edge_scale t q in
              (plan, estimate_counters t plan))
        in
        Obs.Sink.span obs Obs.Phase.Plan_cache (fun () ->
            Plan_cache.store cache q ~plan ~est_intermediate:(fst est)
              ~est_levels:(snd est));
        set_source plan_source src;
        record_est_counters ?stats est;
        plan
      in
      match
        Obs.Sink.span obs Obs.Phase.Plan_cache (fun () ->
            Plan_cache.lookup cache q)
      with
      | Plan_cache.Hit { plan; est_intermediate; est_levels } ->
          set_source plan_source Plan_cache.Cached;
          record_est_counters ?stats (est_intermediate, est_levels);
          plan
      | Plan_cache.Miss -> build Plan_cache.Fresh
      | Plan_cache.Replan { edge_scale } ->
          build ~edge_scale Plan_cache.Replanned)

(* Wraps a TSRJoin execution with plan acquisition and — when a cache is
   in play — post-run feedback of this execution's per-level actuals
   (the delta against the caller's possibly-shared stats). Feedback is
   skipped when execution raises (budget/deadline truncation leaves the
   level counters partial, which would poison entries spuriously). *)
let with_tsrjoin_plan ?plan_cache ?plan_source ?stats ~obs t q exec =
  let stats =
    (* feedback needs measured levels even if the caller asked for none *)
    match (stats, plan_cache) with
    | None, Some _ -> Some (Semantics.Run_stats.create ())
    | s, _ -> s
  in
  let plan = tsrjoin_plan ?plan_cache ?plan_source ?stats ~obs t q in
  let pre_levels =
    match (plan_cache, stats) with
    | Some _, Some s -> Semantics.Run_stats.levels s
    | _ -> [||]
  in
  let result = exec ~plan ~stats in
  (match (plan_cache, stats) with
  | Some cache, Some s ->
      let post = Semantics.Run_stats.levels s in
      let delta =
        Array.init (Array.length post) (fun i ->
            post.(i)
            - (if i < Array.length pre_levels then pre_levels.(i) else 0))
      in
      Obs.Sink.span obs Obs.Phase.Plan_cache (fun () ->
          Plan_cache.feedback cache q ~levels:delta)
  | _ -> ());
  result

let run ?stats ?(obs = Obs.Sink.null) ?tsrjoin_config ?pool ?(domains = 1)
    ?plan_cache ?plan_source ~limit ?counted t method_ q ~emit =
  Obs.Sink.span obs Obs.Phase.Run @@ fun () ->
  match method_ with
  | Tsrjoin ->
      with_tsrjoin_plan ?plan_cache ?plan_source ?stats ~obs t q
        (fun ~plan ~stats ->
          if domains <= 1 then
            Tcsq_core.Tsrjoin.run ?stats ~obs ?config:tsrjoin_config ~plan
              ~limit ?counted (tai t) q ~emit
          else
            (* multicore is TSRJoin-only: root-binding independence is what
               makes the fan-out sound; the baselines stay single-domain *)
            Exec.Parallel.run ?pool ~domains ?stats ~obs ?config:tsrjoin_config
              ~plan ~limit ?counted (tai t) q ~emit)
  | Binary -> Relops.Binary.run ?stats (slot_force t.adjacency) q ~emit
  | Hybrid -> Relops.Hybrid.run ?stats (slot_force t.adjacency) q ~emit
  | Time -> Relops.Time_pipeline.run ?stats (slot_force t.sti_index) q ~emit

(* ---- extended queries ---- *)

(* Allen constraints ride into TSRJoin's config so the engine prunes
   them inside the join tree; other methods post-filter via decorate. *)
let ext_config tsrjoin_config eq =
  match Semantics.Equery.allen eq with
  | [] -> tsrjoin_config
  | allen ->
      let base =
        match tsrjoin_config with
        | Some c -> c
        | None -> Tcsq_core.Tsrjoin.default_config
      in
      Some { base with Tcsq_core.Tsrjoin.allen }

let analyze_ext t _method eq = Analysis.Lint.check_equery t.target eq

let tighten_ext t eq =
  let q =
    Analysis.Bound.tighten ~allen:(Semantics.Equery.allen eq)
      ~env:(Analysis.Lint.env t.target) (Semantics.Equery.core eq)
  in
  Semantics.Equery.with_window eq (Semantics.Query.window q)

let run_ext ?stats ?obs ?tsrjoin_config ?pool ?domains ?plan_cache
    ?plan_source ?limit ?counted t method_ eq ~emit =
  let tsrjoin_config = ext_config tsrjoin_config eq in
  (* parallel [run] serializes [emit], so the TOP k heap needs no lock *)
  Semantics.Equery.run_with
    (fun q ~limit ~emit ->
      run ?stats ?obs ?tsrjoin_config ?pool ?domains ?plan_cache ?plan_source
        ~limit ?counted t method_ q ~emit)
    t.graph ?limit eq ~emit

let count ?stats ?domains t method_ q =
  let n = ref 0 in
  run_ext ?stats ?domains ~limit:0 ~counted:n t method_
    (Semantics.Equery.plain q) ~emit:(fun _ -> incr n);
  !n

let index_size_words t = function
  | Tsrjoin -> Tcsq_core.Tai.size_words (tai t)
  | Binary | Hybrid -> Triejoin.Adjacency.size_words (slot_force t.adjacency)
  | Time -> Relops.Sti_index.size_words (slot_force t.sti_index)

let index_build_seconds graph = function
  | Tsrjoin -> snd (Tcsq_core.Tai.build_time ~with_eci:true graph)
  | Binary | Hybrid -> snd (Triejoin.Adjacency.build_time graph)
  | Time -> snd (Relops.Sti_index.build_time graph)
