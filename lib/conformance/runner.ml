open Semantics

exception Eval_failed of string

(* ---- per-graph context ---- *)

type ctx = {
  g : Tgraph.Graph.t;
  mutable engine : Workload.Engine.t option;
  mutable server : (Tcsq_server.Server.t * Tcsq_server.Client.t) option;
  mutable plan_cache : Workload.Plan_cache.t option;
}

let ctx g = { g; engine = None; server = None; plan_cache = None }
let engine c =
  match c.engine with
  | Some e -> e
  | None ->
      let e = Workload.Engine.prepare c.g in
      c.engine <- Some e;
      e

let plan_cache c =
  match c.plan_cache with
  | Some pc -> pc
  | None ->
      let pc = Workload.Plan_cache.create () in
      c.plan_cache <- Some pc;
      pc

let socket_seq = ref 0

let fresh_socket_path () =
  incr socket_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tcsq-conf-%d-%d.sock" (Unix.getpid ()) !socket_seq)

let server c =
  match c.server with
  | Some s -> s
  | None ->
      let socket_path = fresh_socket_path () in
      let config =
        {
          (Tcsq_server.Server.default_config ~socket_path) with
          Tcsq_server.Server.workers = 2;
          queue_depth = 16;
        }
      in
      let srv = Tcsq_server.Server.start config (engine c) in
      let client =
        try Tcsq_server.Client.connect socket_path
        with e ->
          Tcsq_server.Server.stop srv;
          raise e
      in
      c.server <- Some (srv, client);
      (srv, client)

let release c =
  match c.server with
  | None -> ()
  | Some (srv, client) ->
      c.server <- None;
      Tcsq_server.Client.close client;
      Tcsq_server.Server.stop srv

(* ---- variants ---- *)

type t = { name : string; eval : ctx -> Equery.t -> Match_result.t list }

let engine_variant name ?tsrjoin_config method_ =
  {
    name;
    eval =
      (fun c eq ->
        Match_result.collect (fun emit ->
            Workload.Engine.run_ext ?tsrjoin_config (engine c) method_ eq
              ~emit));
  }

let standard =
  [
    engine_variant "tsrjoin-basic"
      ~tsrjoin_config:Tcsq_core.Tsrjoin.basic_config Workload.Engine.Tsrjoin;
    engine_variant "tsrjoin-opt" Workload.Engine.Tsrjoin;
    engine_variant "binary" Workload.Engine.Binary;
    engine_variant "hybrid" Workload.Engine.Hybrid;
    engine_variant "time" Workload.Engine.Time;
  ]

let adaptive =
  {
    name = "tsrjoin-adaptive";
    eval =
      (fun c eq ->
        let tai = Workload.Engine.tai (engine c) in
        let config =
          {
            Tcsq_core.Tsrjoin.default_config with
            Tcsq_core.Tsrjoin.allen = Equery.allen eq;
          }
        in
        Match_result.collect (fun emit ->
            Equery.run_with
              (fun q ~limit ~emit ->
                let plan =
                  Tcsq_core.Plan.build_adaptive ~defer_ratio:2.0 tai q
                in
                Tcsq_core.Tsrjoin.run ~config ~plan ~limit tai q ~emit)
              c.g eq ~emit));
  }

(* cached-vs-fresh differential: every query runs twice through the
   ctx's one shared plan cache; the second pass must be served from the
   cache (at least one of the two lookups hits — a first-pass miss
   stores, so the second pass hits; with the shape already cached both
   hit) and must reproduce the first pass exactly. The returned result
   set is the cached-plan one, so the harness's cross-variant equality
   check is precisely "cached plan vs cache-free engines". *)
let cached =
  {
    name = "tsrjoin-cached";
    eval =
      (fun c eq ->
        let cache = plan_cache c in
        let e = engine c in
        let hits () = (Workload.Plan_cache.counters cache).Workload.Plan_cache.hits in
        let before = hits () in
        let pass () =
          Match_result.collect (fun emit ->
              Workload.Engine.run_ext ~plan_cache:cache e
                Workload.Engine.Tsrjoin eq ~emit)
        in
        let r1 = pass () in
        let r2 = pass () in
        if hits () <= before then
          raise
            (Eval_failed
               "tsrjoin-cached: repeated query was never served from the \
                plan cache");
        (* a transferred plan may enumerate in a different order (the
           entry can come from an equivalence-class sibling), so the
           two passes are compared as sets *)
        let sort = List.sort Match_result.compare in
        let same =
          List.length r1 = List.length r2
          && List.for_all2 Match_result.equal (sort r1) (sort r2)
        in
        if not same then
          raise
            (Eval_failed "tsrjoin-cached: cached plan changed the result set");
        r2);
  }

let parallel ~domains =
  {
    name = Printf.sprintf "tsrjoin-par%d" domains;
    eval =
      (fun c eq ->
        Match_result.collect (fun emit ->
            Workload.Engine.run_ext
              ~pool:(Exec.Parallel.shared_pool ~at_least:domains)
              ~domains (engine c) Workload.Engine.Tsrjoin eq ~emit));
  }

(* generous wire-path budgets: conformance wants complete result sets,
   not the server's interactive defaults *)
let wire_limit = 1_000_000

let wire =
  {
    name = "wire";
    eval =
      (fun c eq ->
        let _, client = server c in
        (* a COUNT query comes back count-only over the wire; strip the
           aggregate so the server echoes the pieces themselves (COUNT
           is presentation, so the result set is unchanged) *)
        let eq =
          match Equery.agg eq with
          | Some Equery.Count -> Equery.with_agg eq None
          | _ -> eq
        in
        let text = Qlang.render_ext c.g eq in
        match
          Tcsq_server.Client.query ~limit:wire_limit ~max_results:wire_limit
            ~max_intermediate:max_int client text
        with
        | Error msg -> raise (Eval_failed (Printf.sprintf "wire: %s" msg))
        | Ok r when r.Tcsq_server.Protocol.status <> "ok" ->
            raise
              (Eval_failed
                 (Printf.sprintf "wire: status %s%s"
                    r.Tcsq_server.Protocol.status
                    (match r.Tcsq_server.Protocol.message with
                    | Some m -> ": " ^ m
                    | None -> "")))
        | Ok r ->
            let matches = r.Tcsq_server.Protocol.matches in
            (match r.Tcsq_server.Protocol.count with
            | Some n when n <> List.length matches ->
                raise
                  (Eval_failed
                     (Printf.sprintf
                        "wire: count %d disagrees with %d echoed matches" n
                        (List.length matches)))
            | _ -> ());
            matches);
  }

let broken =
  {
    name = "broken";
    eval =
      (fun c eq ->
        match
          Match_result.collect (fun emit ->
              Workload.Engine.run_ext (engine c) Workload.Engine.Tsrjoin eq
                ~emit)
        with
        | [] -> []
        | _ :: rest -> rest);
  }

let find ~inject_fault name =
  let fixed = standard @ [ adaptive; cached; wire ] in
  match List.find_opt (fun v -> v.name = name) fixed with
  | Some v -> Ok v
  | None -> (
      if name = "broken" then
        if inject_fault then Ok broken
        else Error "engine 'broken' is only available under --inject-fault"
      else
        match
          if String.length name > 11 && String.sub name 0 11 = "tsrjoin-par"
          then
            int_of_string_opt
              (String.sub name 11 (String.length name - 11))
          else None
        with
        | Some domains when domains >= 2 -> Ok (parallel ~domains)
        | _ -> Error (Printf.sprintf "unknown engine variant %S" name))
