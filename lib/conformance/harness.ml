open Semantics
module RS = Match_result.Result_set

type config = {
  iterations : int;
  seed : int;
  wire : bool;
  inject_fault : bool;
  max_probes : int;
  log : string -> unit;
}

let default_config =
  {
    iterations = 200;
    seed = 20260705;
    wire = false;
    inject_fault = false;
    max_probes = 2000;
    log = ignore;
  }

type counts = {
  queries : int;
  differential : int;
  relation : int;
  parallel : int;
  analyzer : int;
}

type failure = {
  check : Check.t;
  detail : string;
  iteration : int;
  case : Case.t;
  minimized : Case.t;
  probes : int;
}

type outcome = { counts : counts; failure : failure option }

let relation_names = List.map (fun r -> r.Relation.name) Relation.all

(* ---- per-run context cache, keyed by physical graph identity ---- *)

type cache = { mutable ctxs : (Tgraph.Graph.t * Runner.ctx) list }

let cache () = { ctxs = [] }

let ctx_for cache g =
  match List.find_opt (fun (g', _) -> g' == g) cache.ctxs with
  | Some (_, c) -> c
  | None ->
      let c = Runner.ctx g in
      cache.ctxs <- (g, c) :: cache.ctxs;
      c

let release cache =
  List.iter (fun (_, c) -> Runner.release c) cache.ctxs;
  cache.ctxs <- []

let guard f =
  match f () with
  | r -> r
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error (Printexc.to_string e)

(* ---- the four check kinds ---- *)

let eval_set cache variant (case : Case.t) =
  match variant.Runner.eval (ctx_for cache case.Case.graph) case.Case.query with
  | ms -> Ok (RS.of_list ms)
  | exception Runner.Eval_failed msg ->
      Error (Printf.sprintf "engine %s failed: %s" variant.Runner.name msg)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
      Error
        (Printf.sprintf "engine %s raised %s" variant.Runner.name
           (Printexc.to_string e))

let differential cache ~expected variant case =
  match eval_set cache variant case with
  | Error msg -> Some msg
  | Ok actual -> RS.diff_summary ~expected ~actual

let check_relation cache d variant ~base =
  let rec eval_all acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        match eval_set cache variant c with
        | Ok rs -> eval_all (rs :: acc) rest
        | Error msg -> Error msg)
  in
  match eval_all [] d.Relation.cases with
  | Error msg -> Error msg
  | Ok derived -> d.Relation.check ~base ~derived

let check_parallel cache (case : Case.t) ~domains =
  let c = ctx_for cache case.Case.graph in
  let seq_stats = Run_stats.create () in
  let par_stats = Run_stats.create () in
  match
    let eng = Runner.engine c in
    let run ?pool ~stats domains =
      Match_result.collect (fun emit ->
          Workload.Engine.run_ext ~stats ?pool ~domains eng
            Workload.Engine.Tsrjoin case.Case.query ~emit)
    in
    let seq = run ~stats:seq_stats 1 in
    let par =
      run ~stats:par_stats
        ~pool:(Exec.Parallel.shared_pool ~at_least:domains)
        domains
    in
    (seq, par)
  with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
      Some
        (Printf.sprintf "%d-domain run raised %s" domains
           (Printexc.to_string e))
  | seq, par -> (
      match
        RS.diff_summary ~expected:(RS.of_list seq) ~actual:(RS.of_list par)
      with
      | Some diff ->
          Some
            (Printf.sprintf "%d-domain result set diverged from sequential: %s"
               domains diff)
      | None ->
          let mismatches =
            List.filter_map
              (fun ((k, a), (_, b)) ->
                if a = b then None
                else Some (Printf.sprintf "%s %d vs %d" k a b))
              (List.combine (Run_stats.counters seq_stats)
                 (Run_stats.counters par_stats))
          in
          if mismatches = [] then None
          else
            Some
              (Printf.sprintf
                 "%d-domain merged Run_stats diverged from sequential: %s"
                 domains
                 (String.concat ", " mismatches)))

let check_analyzer cache (case : Case.t) ~naive_count =
  let ( let* ) = Result.bind in
  let c = ctx_for cache case.Case.graph in
  let eng = Runner.engine c in
  let target = Workload.Engine.target eng in
  let tai = Analysis.Lint.tai target in
  let eq = case.Case.query in
  let q = Equery.core eq in
  let bound =
    Analysis.Bound.analyze ~allen:(Equery.allen eq)
      ~env:(Analysis.Lint.env target) q
  in
  let diags = Analysis.Lint.check_equery target eq in
  (* constraint-propagation soundness: a query flagged unsatisfiable
     must never match under the oracle (covers the no-diagnostic unsat
     cases — e.g. a label with no edges — that Q011 does not restate) *)
  let* () =
    if bound.Analysis.Bound.unsat && naive_count <> 0 then
      Error
        (Printf.sprintf
           "constraint propagation flagged the query unsatisfiable but \
            naive found %d matches"
           naive_count)
    else Ok ()
  in
  let* () =
    if Analysis.Diagnostic.proves_empty diags && naive_count <> 0 then
      Error
        (Printf.sprintf
           "analyzer proved the query empty but naive found %d matches (%s)"
           naive_count
           (String.concat "; "
              (List.map Analysis.Diagnostic.to_string
                 (List.filter
                    (fun d -> d.Analysis.Diagnostic.proves_empty)
                    diags))))
    else Ok ()
  in
  let* () =
    if Analysis.Diagnostic.has_errors diags then
      Error
        (Printf.sprintf
           "analyzer reported an error on a generator-produced query (%s)"
           (String.concat "; " (List.map Analysis.Diagnostic.to_string diags)))
    else Ok ()
  in
  let check_plan name plan =
    match Analysis.Plan_check.check plan with
    | [] -> Ok ()
    | ds ->
        Error
          (Printf.sprintf "%s failed plan invariant analysis: %s" name
             (String.concat "; " (List.map Analysis.Diagnostic.to_string ds)))
  in
  let* () = check_plan "Plan.build" (Tcsq_core.Plan.build tai q) in
  let* () =
    check_plan "Plan.build_adaptive"
      (Tcsq_core.Plan.build_adaptive ~defer_ratio:2.0 tai q)
  in
  check_plan "Plan.of_pivot_order"
    (Tcsq_core.Plan.of_pivot_order q
       (List.init (Query.n_vars q) (fun v -> Query.n_vars q - 1 - v)))

(* ---- variant rosters ---- *)

let base_variants config =
  Runner.standard
  @ [ Runner.adaptive; Runner.cached; Runner.parallel ~domains:2 ]
  @ (if config.inject_fault then [ Runner.broken ] else [])

let diff_variants config =
  base_variants config @ if config.wire then [ Runner.wire ] else []

let engine_names config = List.map (fun v -> v.Runner.name) (diff_variants config)

(* Graph-mutating relations on the wire each need a server for the
   derived graph, so they rotate: one per iteration, on the first
   random query only. Query-only relations ride the base-graph server
   for free on every query. *)
let relation_variants config ~iter ~qi ~n_pool rel =
  let base = base_variants config in
  if not config.wire then base
  else if not rel.Relation.mutates_graph then base @ [ Runner.wire ]
  else begin
    let muts = List.filter (fun r -> r.Relation.mutates_graph) Relation.all in
    let rank =
      let rec go i = function
        | [] -> -1
        | r :: rest -> if r.Relation.name = rel.Relation.name then i else go (i + 1) rest
      in
      go 0 muts
    in
    if qi = n_pool && iter mod List.length muts = rank then
      base @ [ Runner.wire ]
    else base
  end

(* ---- one check, standalone: the --replay / shrink-probe primitive ---- *)

let run_check ~inject_fault (case : Case.t) check =
  let cache = cache () in
  Fun.protect
    ~finally:(fun () -> release cache)
    (fun () ->
      let ( let* ) = Result.bind in
      let of_opt = function None -> Ok () | Some msg -> Error msg in
      match check with
      | Check.Differential { engine } ->
          let* variant = Runner.find ~inject_fault engine in
          guard (fun () ->
              let expected =
                RS.of_list (Naive.evaluate_ext case.Case.graph case.Case.query)
              in
              of_opt (differential cache ~expected variant case))
      | Check.Relation { relation; engine; relseed } ->
          let* rel = Relation.find relation in
          let* variant = Runner.find ~inject_fault engine in
          if Equery.agg case.Case.query <> None then
            (* the harness never issues relation checks on aggregate
               queries (TOP k re-selects under any transformed input),
               so a reproducer that asks for one is corrupt *)
            Error
              (Printf.sprintf
                 "relation %s does not apply to an aggregate query; drop the \
                  aggregate"
                 relation)
          else
            guard (fun () ->
                let* base = eval_set cache variant case in
                let d = rel.Relation.derive case ~relseed in
                check_relation cache d variant ~base)
      | Check.Parallel { domains } ->
          of_opt (check_parallel cache case ~domains)
      | Check.Analyzer ->
          guard (fun () ->
              let naive_count =
                List.length
                  (Naive.evaluate_ext case.Case.graph case.Case.query)
              in
              check_analyzer cache case ~naive_count))

(* ---- the fuzz loop ---- *)

type hit = {
  h_check : Check.t;
  h_detail : string;
  h_iter : int;
  h_case : Case.t;
}

exception Stop of hit

let relseed_of ~seed ~qi ~ri = (seed * 389) + (qi * 31) + ri

let fuzz config =
  let n_queries = ref 0
  and n_diff = ref 0
  and n_rel = ref 0
  and n_par = ref 0
  and n_ana = ref 0 in
  let hit = ref None in
  (try
     for iter = 0 to config.iterations - 1 do
       (* generation mirrors the retired bin/fuzz.exe exactly, so seed
          corpora and reproduce-by-seed instructions carry over *)
       let seed = config.seed + iter in
       let rng = Random.State.make [| seed |] in
       let n_vertices = 3 + Random.State.int rng 5 in
       let n_edges = 20 + Random.State.int rng 60 in
       let n_labels = 1 + Random.State.int rng 3 in
       let domain = 10 + Random.State.int rng 40 in
       let max_len = 1 + Random.State.int rng 12 in
       let g =
         Testkit.random_graph ~seed:((seed * 7) + 1) ~n_vertices ~n_edges
           ~n_labels ~domain ~max_len ()
       in
       (* IO round trips must be lossless *)
       let g = Tgraph.Binary_io.of_bytes (Tgraph.Binary_io.to_bytes g) in
       let ws = Random.State.int rng domain in
       let we = min (domain - 1) (ws + Random.State.int rng domain) in
       let window = Temporal.Interval.make ws (max ws we) in
       let pool = Testkit.query_pool ~n_labels ~window in
       let n_pool = List.length pool in
       let qs =
         List.map Equery.plain
           (pool
           @ List.init 3 (fun j ->
                 Testkit.random_query ~seed:((seed * 13) + j) ~n_labels
                   ~max_edges:4 ~window))
         (* extended queries by default: random NOT/EXISTS/WHERE/agg
            decorations over random cores *)
         @ List.init 3 (fun j ->
               Testkit.random_equery ~seed:((seed * 17) + j) ~n_labels
                 ~max_edges:4 ~window)
       in
       let cache = cache () in
       Fun.protect
         ~finally:(fun () -> release cache)
         (fun () ->
           List.iteri
             (fun qi q ->
               incr n_queries;
               let case = Case.make g q in
               let fail check detail =
                 raise
                   (Stop
                      {
                        h_check = check;
                        h_detail = detail;
                        h_iter = iter;
                        h_case = case;
                      })
               in
               let naive = Naive.evaluate_ext g q in
               let expected = RS.of_list naive in
               incr n_ana;
               (match
                  guard (fun () ->
                      check_analyzer cache case
                        ~naive_count:(List.length naive))
                with
               | Ok () -> ()
               | Error d -> fail Check.Analyzer d);
               List.iter
                 (fun v ->
                   incr n_diff;
                   match differential cache ~expected v case with
                   | None -> ()
                   | Some d ->
                       fail (Check.Differential { engine = v.Runner.name }) d)
                 (diff_variants config);
               let domains = 2 + (iter mod 3) in
               incr n_par;
               (match check_parallel cache case ~domains with
               | None -> ()
               | Some d -> fail (Check.Parallel { domains }) d);
               (* every variant's base result set equals [expected] at
                  this point — its differential check just passed — so
                  relations share the naive base. Aggregate queries are
                  excluded: TOP k re-selects under any transformed
                  input, so no relation's algebra applies (the
                  aggregate-topk relation derives TOP from an
                  aggregate-free base instead). *)
               if Equery.agg q <> None then ()
               else
               List.iteri
                 (fun ri rel ->
                   let relseed = relseed_of ~seed ~qi ~ri in
                   let d = rel.Relation.derive case ~relseed in
                   List.iter
                     (fun v ->
                       incr n_rel;
                       match
                         guard (fun () ->
                             check_relation cache d v ~base:expected)
                       with
                       | Ok () -> ()
                       | Error detail ->
                           fail
                             (Check.Relation
                                {
                                  relation = rel.Relation.name;
                                  engine = v.Runner.name;
                                  relseed;
                                })
                             detail)
                     (relation_variants config ~iter ~qi ~n_pool rel))
                 Relation.all)
             qs);
       if (iter + 1) mod 50 = 0 then
         config.log
           (Printf.sprintf "%d/%d iterations clean" (iter + 1)
              config.iterations)
     done
   with Stop h -> hit := Some h);
  let counts =
    {
      queries = !n_queries;
      differential = !n_diff;
      relation = !n_rel;
      parallel = !n_par;
      analyzer = !n_ana;
    }
  in
  match !hit with
  | None -> { counts; failure = None }
  | Some h ->
      config.log
        (Printf.sprintf "minimizing %s failure from iteration %d..."
           (Check.describe h.h_check) h.h_iter);
      let failing c =
        Result.is_error (run_check ~inject_fault:config.inject_fault c h.h_check)
      in
      let minimized, probes =
        (* a failure that only manifests in warm per-iteration state
           would not survive a fresh standalone probe; keep it unshrunk
           rather than minimize the wrong predicate *)
        if failing h.h_case then
          Shrink.minimize ~failing ~max_probes:config.max_probes h.h_case
        else (h.h_case, 1)
      in
      {
        counts;
        failure =
          Some
            {
              check = h.h_check;
              detail = h.h_detail;
              iteration = h.h_iter;
              case = h.h_case;
              minimized;
              probes;
            };
      }

let first_line s =
  String.trim
    (match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s)

let repro_of_failure config f =
  {
    Repro.check = f.check;
    seed = Some config.seed;
    summary = first_line f.detail;
    case = f.minimized;
  }

let replay ~inject_fault (r : Repro.t) =
  run_check ~inject_fault r.Repro.case r.Repro.check
