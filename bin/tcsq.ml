(* tcsq: command-line front end for temporal-clique subgraph querying.

   Subcommands:
     datasets   list the built-in synthetic datasets
     generate   write a dataset (or custom random graph) as CSV
     stats      describe a graph
     query      evaluate one temporal-clique query
     explain    show the TSRJoin plan for a query
     compare    run one query under all four methods
     serve      resident query server over a Unix-domain socket
     client     talk to a running server
     fuzz       differential + metamorphic conformance fuzzing

   Examples:
     tcsq generate --dataset yellow --scale 0.1 -o yellow.csv
     tcsq stats yellow.csv
     tcsq query yellow.csv --pattern 3-star --labels a,b,c --window 0:10000
     tcsq compare --dataset bike --pattern triangle --labels a,b,c \
         --window-frac 0.1
     tcsq serve --dataset yellow --socket /tmp/tcsq.sock
     tcsq client --socket /tmp/tcsq.sock \
         --match 'MATCH (x)-[a]->(y) IN [0, 10000]' *)

open Cmdliner

(* ---------- shared arguments and loaders ---------- *)

let dataset_arg =
  let doc = "Built-in dataset name (yellow, green, bike, divvy, stack, caida)." in
  Arg.(value & opt (some string) None & info [ "dataset" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Edge-count scale factor for built-in datasets." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let graph_file_arg =
  let doc =
    "Graph file: CSV (src,dst,label,ts,te per line) or the binary format \
     (.bin extension)."
  in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let load_graph file dataset scale =
  match (file, dataset) with
  | Some path, None -> (
      try
        if Filename.check_suffix path ".bin" then
          Ok (Tgraph.Binary_io.load path)
        else Ok (Tgraph.Io.load path)
      with
      | Tgraph.Io.Malformed msg -> Error msg
      | Sys_error msg -> Error msg)
  | None, Some name -> (
      match Tgraph.Dataset.of_string name with
      | Some ds -> Ok (Tgraph.Dataset.graph ~scale ds)
      | None -> Error (Printf.sprintf "unknown dataset %S" name))
  | Some _, Some _ -> Error "give either a graph file or --dataset, not both"
  | None, None -> Error "need a graph file or --dataset"

let pattern_arg =
  let doc = "Query pattern: 3-star, 4-chain, triangle, 4-circle, tshape4, ..." in
  Arg.(value & opt string "3-star" & info [ "pattern"; "p" ] ~docv:"SHAPE" ~doc)

let labels_arg =
  let doc =
    "Comma-separated edge labels, one per pattern edge ('*' = any label)."
  in
  Arg.(value & opt (some string) None & info [ "labels"; "l" ] ~docv:"L1,L2,..." ~doc)

let window_arg =
  let doc = "Query window as START:END (inclusive)." in
  Arg.(value & opt (some string) None & info [ "window"; "w" ] ~docv:"WS:WE" ~doc)

let window_frac_arg =
  let doc = "Query window as a fraction of the time domain (centered)." in
  Arg.(value & opt (some float) None & info [ "window-frac" ] ~docv:"F" ~doc)

let method_arg =
  let doc = "Processing method: tsrjoin, binary, hybrid, time." in
  Arg.(value & opt string "tsrjoin" & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let limit_arg =
  let doc = "Stop after printing this many matches." in
  Arg.(value & opt int 20 & info [ "limit"; "n" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Execute TSRJoin across this many domains (cores). 1 = sequential; \
     higher values fan root bindings out over a shared work-stealing \
     domain pool. Other methods ignore this."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let parse_window g window window_frac =
  match (window, window_frac) with
  | Some s, None -> (
      match String.split_on_char ':' s with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some ws, Some we when ws <= we -> Ok (Temporal.Interval.make ws we)
          | _ -> Error (Printf.sprintf "bad window %S" s))
      | _ -> Error (Printf.sprintf "bad window %S (want WS:WE)" s))
  | None, Some frac ->
      if frac <= 0.0 || frac > 1.0 then Error "window fraction must be in (0,1]"
      else Ok (Tgraph.Graph.window_of_fraction g ~frac ~at:0.5)
  | None, None -> Ok (Tgraph.Graph.time_domain g)
  | Some _, Some _ -> Error "give --window or --window-frac, not both"

let match_arg =
  let doc =
    "Textual query, e.g. 'MATCH (x)-[a]->(y)-[b]->(z) IN [0, 100]'. \
     Overrides --pattern/--labels/--window."
  in
  Arg.(value & opt (some string) None & info [ "match" ] ~docv:"QUERY" ~doc)

let parse_query g pattern labels window window_frac =
  let ( let* ) = Result.bind in
  let* shape =
    match Semantics.Pattern.of_string pattern with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown pattern %S" pattern)
  in
  let k = Semantics.Pattern.n_edges shape in
  let* label_ids =
    match labels with
    | None ->
        (* default: the first k labels of the graph *)
        if Tgraph.Graph.n_labels g < k then
          Error (Printf.sprintf "graph has fewer than %d labels; use --labels" k)
        else Ok (Array.init k Fun.id)
    | Some s ->
        let names = String.split_on_char ',' (String.trim s) in
        if List.length names <> k then
          Error (Printf.sprintf "pattern %s needs %d labels, got %d" pattern k
                   (List.length names))
        else begin
          let table = Tgraph.Graph.labels g in
          let rec resolve acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | n :: rest when String.trim n = "*" ->
                resolve (Semantics.Query.any_label :: acc) rest
            | n :: rest -> (
                match Tgraph.Label.find table (String.trim n) with
                | Some id -> resolve (id :: acc) rest
                | None -> Error (Printf.sprintf "unknown label %S" n))
          in
          resolve [] names
        end
  in
  let* window = parse_window g window window_frac in
  Ok (Semantics.Pattern.instantiate shape ~labels:label_ids ~window)

let lasting_arg =
  let doc = "Only return matches whose lifespan lasts at least this long." in
  Arg.(value & opt (some int) None & info [ "lasting" ] ~docv:"D" ~doc)

let apply_lasting lasting q =
  match lasting with
  | Some d -> Semantics.Query.with_min_duration q d
  | None -> q

let apply_lasting_ext lasting eq =
  match lasting with
  | Some d -> Semantics.Equery.with_min_duration eq d
  | None -> eq

(* --match text goes through the full extended surface
   (NOT/EXISTS/WHERE/COUNT/TOP); the --pattern path stays plain *)
let parse_query_or_match g match_ pattern labels window window_frac =
  match match_ with
  | Some text ->
      Result.bind (parse_window g window window_frac) (fun w ->
          Semantics.Qlang.parse_and_compile_ext ~default_window:w g text)
  | None ->
      Result.map Semantics.Equery.plain
        (parse_query g pattern labels window window_frac)

let or_die = function
  | Ok v -> v
  | Error msg ->
      Format.eprintf "tcsq: %s@." msg;
      exit 2

(* The graph, query and method terms below fail through [or_die]: a bad
   value is a "tcsq: <msg>" error with exit 2, not a Cmdliner usage
   error. *)

(* GRAPH or --dataset/--scale, loaded; [~file:false] is the dataset-only
   variant *)
let graph_term ~file =
  let load path dataset scale =
    if (not file) && dataset = None then or_die (Error "--dataset is required");
    or_die (load_graph path dataset scale)
  in
  Term.(
    const load
    $ (if file then graph_file_arg else const None)
    $ dataset_arg $ scale_arg)

let graph = graph_term ~file:true

(* the query flags as given; [query_of] turns them into a query *)
type query_flags = {
  match_ : string option;
  pattern : string;
  labels : string option;
  window : string option;
  window_frac : float option;
  lasting : int option;
}

let query_flags_term ~lasting =
  let flags match_ pattern labels window window_frac lasting =
    { match_; pattern; labels; window; window_frac; lasting }
  in
  Term.(
    const flags $ match_arg $ pattern_arg $ labels_arg $ window_arg
    $ window_frac_arg $ lasting)

let query_flags = query_flags_term ~lasting:lasting_arg

let query_of f g =
  apply_lasting_ext f.lasting
    (or_die
       (parse_query_or_match g f.match_ f.pattern f.labels f.window
          f.window_frac))

(* the query on the subcommand's graph, parsed only when applied *)
let query = Term.(const query_of $ query_flags)

let method_term =
  let of_string s =
    or_die
      (Option.to_result
         ~none:(Printf.sprintf "unknown method %S" s)
         (Workload.Engine.method_of_string s))
  in
  Term.(const of_string $ method_arg)

(* ---------- subcommands ---------- *)

let datasets_cmd =
  let run () =
    Array.iter
      (fun ds ->
        let cfg = Tgraph.Dataset.config ds in
        Format.printf "%-8s %7d edges  %s@." (Tgraph.Dataset.to_string ds)
          cfg.Tgraph.Generator.n_edges (Tgraph.Dataset.describe ds))
      Tgraph.Dataset.all
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the built-in synthetic datasets.")
    Term.(const run $ const ())

let generate_cmd =
  let output =
    Arg.(value & opt string "graph.csv" & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run g output =
    if Filename.check_suffix output ".bin" then Tgraph.Binary_io.save g output
    else Tgraph.Io.save g output;
    Format.printf "wrote %a to %s@." Tgraph.Graph.pp_summary g output
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic dataset as CSV.")
    Term.(const run $ graph_term ~file:false $ output)

let stats_cmd =
  let run g =
    Format.printf "%a@." Tgraph.Stats.pp (Tgraph.Stats.compute g)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Describe a temporal graph.")
    Term.(const run $ graph)

let query_cmd =
  let count_only =
    Arg.(value & flag & info [ "count" ] ~doc:"Print only the match count.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("plain", `Plain); ("json", `Json); ("csv", `Csv) ]) `Plain
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: plain, json or csv.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"TUPLES"
          ~doc:
            "Intermediate-tuple budget; a run that exhausts it stops with \
             a truncation note instead of an error.")
  in
  let run g q m limit domains budget count_only format =
    let q = q g in
    (* a COUNT query is --count spelled in the language *)
    let count_only =
      count_only || Semantics.Equery.agg q = Some Semantics.Equery.Count
    in
    let engine = Workload.Engine.prepare g in
    let stats =
      match budget with
      | None -> Semantics.Run_stats.create ()
      | Some b ->
          Semantics.Run_stats.create
            ~limits:
              { Semantics.Run_stats.max_results = max_int;
                max_intermediate = b }
            ()
    in
    let shown = ref 0 in
    let total = ref 0 in
    let kept = ref [] in
    let t0 = Unix.gettimeofday () in
    let truncated =
      match
        Workload.Engine.run_ext ~stats ~domains engine m q ~emit:(fun mtch ->
            incr total;
            if (not count_only) && !shown < limit then begin
              incr shown;
              match format with
              | `Plain -> Format.printf "%a@." Semantics.Match_result.pp mtch
              | `Json | `Csv -> kept := mtch :: !kept
            end)
      with
      | () -> None
      | exception Semantics.Run_stats.Limit_exceeded reason -> Some reason
    in
    let dt = Unix.gettimeofday () -. t0 in
    (match format with
    | `Plain ->
        if (not count_only) && !total > !shown then
          Format.printf "... and %d more@." (!total - !shown);
        (match truncated with
        | Some reason -> Format.printf "truncated: %s@." reason
        | None -> ());
        Format.printf "%d matches in %.1f ms (%a)@." !total (dt *. 1000.0)
          Semantics.Run_stats.pp stats
    | `Json ->
        print_endline
          (Obs.Json.to_string_lines
             (List.rev_map (Semantics.Match_result.to_json g) !kept))
    | `Csv ->
        print_endline Semantics.Match_result.csv_header;
        List.iter
          (fun mtch -> print_endline (Semantics.Match_result.to_csv mtch))
          (List.rev !kept))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a temporal-clique subgraph query.")
    Term.(
      const run $ graph $ query $ method_term $ limit_arg $ domains_arg
      $ budget_arg $ count_only $ format_arg)

let profile_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's spans as Chrome trace-event JSON (schema \
             trace/v1), loadable in chrome://tracing or Perfetto.")
  in
  let run g q m domains trace_out =
    let q = q g in
    let engine = Workload.Engine.prepare g in
    let stats = Semantics.Run_stats.create () in
    let obs = Obs.Sink.create ~clock:Unix.gettimeofday () in
    let total = ref 0 in
    let t0 = Unix.gettimeofday () in
    Workload.Engine.run_ext ~stats ~obs ~domains engine m q ~emit:(fun _ ->
        incr total);
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%d matches in %.1f ms (%a)@.@." !total (dt *. 1000.0)
      Semantics.Run_stats.pp stats;
    Format.printf "%a" Obs.Trace.pp_summary obs;
    match trace_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Trace.to_chrome_json ~process_name:"tcsq" obs);
        close_out oc;
        Format.printf "wrote %d trace events to %s@." (Obs.Sink.n_events obs)
          path
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Evaluate a query with phase-attributed tracing: prints a \
          per-phase time table (count, total, self, share of the run) \
          and optionally exports a Chrome trace.")
    Term.(const run $ graph $ query $ method_term $ domains_arg $ trace_arg)

let parse_pivot_order s =
  let parts = String.split_on_char ',' (String.trim s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match int_of_string_opt (String.trim p) with
        | Some v -> go (v :: acc) rest
        | None -> Error (Printf.sprintf "bad pivot order %S" s))
  in
  go [] parts

let read_statement_lines path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        List.rev !acc)
  in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Some line)
    lines

let explain_cmd =
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Also execute the chosen plan and report estimated vs measured \
             intermediate cardinality per TSRJoin level, with a \
             misestimation factor per level (P009 above x16).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit each report as one tcsq-explain/v1 JSON object per line.")
  in
  let queries_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Explain every query-language statement in this workload file.")
  in
  let pivot_order_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pivot-order" ] ~docv:"V1,V2,..."
          ~doc:
            "Also estimate the literal plan induced by this pivot-variable \
             order, as a third candidate next to the cost-model and \
             adaptive plans.")
  in
  let run g q queries_file pivot_order json analyze =
    let order =
      match pivot_order with
      | None -> None
      | Some s -> Some (or_die (parse_pivot_order s))
    in
    let target = Analysis.Lint.target_of_graph g in
    let label_names = Tgraph.Label.names (Tgraph.Graph.labels g) in
    (* explain reports on the core pattern: plan choice and cardinality
       estimation ignore decorations (they post-filter or slice) *)
    let queries =
      List.map Semantics.Equery.core
        (match queries_file with
        | Some path ->
            List.map
              (fun line ->
                match Analysis.Lint.check_text target line with
                | Some q, _ -> q
                | None, ds ->
                    or_die
                      (Error
                         (Format.asprintf "%s:@;%a" line
                            (Format.pp_print_list Analysis.Diagnostic.pp)
                            ds)))
              (read_statement_lines path)
        | None -> [ q g ])
    in
    List.iter
      (fun q ->
        let report = Analysis.Explain.analyze ?pivot_order:order target q in
        let analyzed =
          if analyze then Analysis.Explain.run_analyze target report else None
        in
        if json then
          print_endline
            (Obs.Json.to_string
               (Analysis.Explain.to_json ?analyzed ~label_names report))
        else begin
          Format.printf "%a@." (Analysis.Explain.pp ~label_names) report;
          if analyze then
            match analyzed with
            | Some a -> Format.printf "%a@." Analysis.Explain.pp_analyzed a
            | None ->
                Format.printf
                  "analyze: skipped (provably empty effective window)@."
        end)
      queries
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Static cost-annotated report for a query: propagated temporal \
          bounds, the effective window, per-edge and per-TSRJoin-level \
          cardinality estimates, and the planner's ranking rationale.")
    Term.(
      const run $ graph $ query $ queries_arg $ pivot_order_arg $ json_arg
      $ analyze)

let compare_cmd =
  let budget =
    Arg.(
      value
      & opt int 5_000_000
      & info [ "budget" ] ~docv:"TUPLES"
          ~doc:"Per-method intermediate-tuple budget.")
  in
  let run g q budget =
    let q = q g in
    let engine = Workload.Engine.prepare g in
    Format.printf "%-8s %10s %10s %14s %12s@." "method" "matches" "ms"
      "intermediate" "scanned";
    Array.iter
      (fun m ->
        let stats =
          Semantics.Run_stats.create
            ~limits:
              { Semantics.Run_stats.max_results = max_int;
                max_intermediate = budget }
            ()
        in
        let t0 = Unix.gettimeofday () in
        let outcome =
          let n = ref 0 in
          match
            Workload.Engine.run_ext ~stats engine m q ~emit:(fun _ -> incr n)
          with
          | () -> string_of_int !n
          | exception Semantics.Run_stats.Limit_exceeded _ -> "budget!"
        in
        Format.printf "%-8s %10s %10.1f %14d %12d@."
          (Workload.Engine.method_name m)
          outcome
          ((Unix.gettimeofday () -. t0) *. 1000.0)
          stats.Semantics.Run_stats.intermediate
          stats.Semantics.Run_stats.scanned)
      Workload.Engine.all_methods
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run one query under all four methods.")
    Term.(const run $ graph $ query $ budget)

let topk_cmd =
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"How many matches.")
  in
  let run g q k =
    let eq = q g in
    let q =
      if Semantics.Equery.is_plain eq then Semantics.Equery.core eq
      else
        or_die
          (Error
             "tcsq topk takes a plain query; run an extended query with a \
              'TOP k' aggregate through 'tcsq query' instead")
    in
    let tai = Tcsq_core.Tai.build g in
    let top = Tcsq_core.Durable.top_k tai q ~k in
    List.iter
      (fun m ->
        Format.printf "%4d ticks  %a@."
          (Tcsq_core.Durable.durability m)
          Semantics.Match_result.pp m)
      top;
    Format.printf "(%d most durable matches)@." (List.length top)
  in
  Cmd.v
    (Cmd.info "topk" ~doc:"The k most durable matches of a query.")
    Term.(
      const run $ graph
      $ (const query_of $ query_flags_term ~lasting:(const None))
      $ k_arg)

let suite_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Workload file: one query-language statement per line.")
  in
  let run g queries_file m =
    let queries = or_die (Workload.Suite.load g queries_file) in
    let engine = Workload.Engine.prepare g in
    Format.printf "running %d queries with %s@." (List.length queries)
      (Workload.Engine.method_name m);
    let meas = Workload.Runner.run_method engine m queries in
    Format.printf "%a@.%a@." Workload.Runner.pp_header ()
      Workload.Runner.pp_measurement meas
  in
  Cmd.v
    (Cmd.info "run-suite" ~doc:"Execute a saved workload file and report timings.")
    Term.(const run $ graph $ file_arg $ method_term)

let lint_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit diagnostics as a JSON array of reports.")
  in
  let queries_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Lint every query-language statement in this workload file.")
  in
  let pivot_order_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pivot-order" ] ~docv:"V1,V2,..."
          ~doc:
            "Also lint the literal plan induced by this pivot-variable \
             order (no planner repair): a wrong order surfaces as \
             unbound-pivot / unmatched-edge diagnostics.")
  in
  (* windows are parsed leniently here: an inverted window must reach the
     analyzer as a diagnostic, not die as a CLI usage error *)
  let raw_window_diags window =
    match window with
    | None -> []
    | Some s -> (
        match String.split_on_char ':' s with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some ws, Some we ->
                Analysis.Query_check.check_raw_window ~ws ~we
            | _ -> [])
        | _ -> [])
  in
  let run g f queries_file pivot_order json =
    let order =
      match pivot_order with
      | None -> None
      | Some s -> Some (or_die (parse_pivot_order s))
    in
    let target = Analysis.Lint.target_of_graph g in
    (* each linted query: its rendered text plus diagnostics *)
    let reports =
      match queries_file with
      | Some path ->
          List.map
            (fun line ->
              let q, ds = Analysis.Lint.check_text target line in
              (line, q, ds))
            (read_statement_lines path)
      | None -> (
          let window_diags = raw_window_diags f.window in
          if window_diags <> [] then [ ("<window>", None, window_diags) ]
          else
            match f.match_ with
            | Some text ->
                let default_window =
                  match parse_window g f.window f.window_frac with
                  | Ok w -> Some w
                  | Error _ -> None
                in
                let q, ds =
                  Analysis.Lint.check_text ?default_window target text
                in
                [ (text, q, ds) ]
            | None ->
                let q =
                  apply_lasting f.lasting
                    (or_die
                       (parse_query g f.pattern f.labels f.window
                          f.window_frac))
                in
                [ (Semantics.Qlang.render g q,
                   Some (Semantics.Equery.plain q),
                   Analysis.Lint.check_query target q) ])
    in
    let reports =
      match order with
      | None -> reports
      | Some order ->
          List.map
            (fun (text, q, ds) ->
              match q with
              | Some q ->
                  (text, Some q,
                   ds
                   @ Analysis.Lint.check_pivot_order
                       (Semantics.Equery.core q) order)
              | None -> (text, None, ds))
            reports
    in
    let all = List.concat_map (fun (_, _, ds) -> ds) reports in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.List
              (List.map
                 (fun (text, _, ds) ->
                   Obs.Json.Obj
                     [
                       ("query", Obs.Json.String text);
                       ("diagnostics", Analysis.Diagnostic.list_to_json ds);
                     ])
                 reports)))
    else begin
      List.iter
        (fun (text, _, ds) ->
          if ds <> [] then begin
            Format.printf "%s@." text;
            List.iter
              (fun d -> Format.printf "  %a@." Analysis.Diagnostic.pp d)
              ds
          end)
        reports;
      let count sev =
        List.length
          (List.filter (fun d -> d.Analysis.Diagnostic.severity = sev) all)
      in
      Format.printf "%d queries linted: %d errors, %d warnings, %d hints@."
        (List.length reports)
        (count Analysis.Diagnostic.Error)
        (count Analysis.Diagnostic.Warning)
        (count Analysis.Diagnostic.Hint)
    end;
    exit (Analysis.Diagnostic.exit_code all)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze queries (and their plans) without executing \
          them: exit 0 clean, 1 warnings, 2 errors.")
    Term.(
      const run $ graph $ query_flags $ queries_arg $ pivot_order_arg
      $ json_arg)

let socket_arg =
  let doc = "Unix-domain socket path of the query server." in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains executing queries.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; requests beyond it are answered \
             with a typed 'overloaded' response instead of queuing.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request wall-clock deadline; deadline-capped \
             requests answer with a typed truncation.")
  in
  let serve_limit_arg =
    Arg.(
      value & opt int 100
      & info [ "limit" ] ~docv:"N"
          ~doc:"Default maximum matches echoed back per response.")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Write one Chrome trace-event JSON file (req-<seq>.json, \
             schema trace/v1) per sampled query request into DIR.")
  in
  let trace_sample_arg =
    Arg.(
      value & opt int 1
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:"With --trace-dir: trace every Nth query request.")
  in
  let query_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "query-log" ] ~docv:"FILE"
          ~doc:
            "Append one structured JSON line (schema tcsq-qlog/v1) per \
             finished request — any outcome, including rejections — with \
             fingerprint, window, duration, full execution counters and \
             per-level estimated-vs-actual cardinalities.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Requests at or over this wall time are flagged slow: always \
             written to the query log regardless of sampling, and counted \
             in the tcsq_slow_requests_total Prometheus family.")
  in
  let qlog_sample_arg =
    Arg.(
      value & opt float 1.0
      & info [ "qlog-sample" ] ~docv:"RATE"
          ~doc:
            "Keep-rate (0..1) for ordinary query-log lines; slow or \
             non-completed requests are always logged.")
  in
  let plan_cache_size_arg =
    Arg.(
      value & opt int 256
      & info [ "plan-cache-size" ] ~docv:"N"
          ~doc:
            "Capacity of the shared TSRJoin plan cache (LRU entries); 0 \
             disables caching. Entries are invalidated when ingest \
             changes the graph, and re-planned from observed \
             cardinalities after repeated misestimation.")
  in
  let replan_threshold_arg =
    Arg.(
      value
      & opt float Analysis.Explain.misestimation_threshold
      & info [ "replan-threshold" ] ~docv:"FACTOR"
          ~doc:
            "Worst-level misestimation factor beyond which consecutive \
             executions poison a cached plan and trigger an adaptive \
             re-plan (the P009/P010 threshold).")
  in
  let run g socket workers queue deadline_ms limit domains trace_dir
      trace_sample query_log slow_ms qlog_sample plan_cache_size
      replan_threshold =
    let engine = Workload.Engine.prepare g in
    let config =
      {
        (Tcsq_server.Server.default_config ~socket_path:socket) with
        Tcsq_server.Server.workers;
        queue_depth = queue;
        default_deadline_ms = deadline_ms;
        default_limit = limit;
        domains;
        trace_dir;
        trace_sample;
        query_log;
        slow_ms;
        qlog_sample;
        plan_cache_size;
        plan_cache_replan_threshold = replan_threshold;
      }
    in
    let srv =
      try Tcsq_server.Server.start config engine
      with Unix.Unix_error (e, _, arg) ->
        or_die
          (Error
             (Printf.sprintf "cannot listen on %s: %s %s" socket
                (Unix.error_message e) arg))
    in
    Format.printf "tcsq: serving %a on %s (workers %d, queue %d)@."
      Tgraph.Graph.pp_summary g socket workers queue;
    Tcsq_server.Server.wait srv;
    Format.printf "tcsq: server stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a resident query server on a Unix-domain socket: the graph \
          and its indexes are built once, then newline-delimited JSON \
          requests are answered until a shutdown request arrives.")
    Term.(
      const run $ graph $ socket_arg $ workers_arg $ queue_arg $ deadline_arg $ serve_limit_arg $ domains_arg
      $ trace_dir_arg $ trace_sample_arg $ query_log_arg $ slow_ms_arg
      $ qlog_sample_arg $ plan_cache_size_arg $ replan_threshold_arg)

let client_cmd =
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Fetch and print the metrics snapshot.")
  in
  let prom_flag =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Fetch the metrics in Prometheus text exposition format and \
             print them verbatim (not as a JSON line).")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check server liveness.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to shut down (sent last).")
  in
  let stdin_flag =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Relay raw JSON request lines from standard input and print \
             one response line each.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let count_flag =
    Arg.(
      value & flag
      & info [ "count" ] ~doc:"Do not echo matches, just the count.")
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Print the N hottest query-shape fingerprints from the metrics \
             snapshot (request count, slow count, mean latency), hottest \
             first.")
  in
  let subscribe_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "subscribe" ] ~docv:"QUERY"
          ~doc:
            "Register QUERY as a standing query and print the subscribe \
             response (the initial result snapshot); combine with \
             $(b,--watch) to then stream pushed delta notifications.")
  in
  let window_width_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window-width" ] ~docv:"W"
          ~doc:
            "Make the subscription's window slide: width-W, ending at the \
             newest edge end, re-derived on every ingest batch. Without \
             this the query's own window is fixed.")
  in
  let watch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "watch" ] ~docv:"N"
          ~doc:
            "After sending the requests, keep reading frames and print \
             each one, exiting after N pushed delta notifications.")
  in
  let run socket match_ m deadline_ms limit count_only metrics prom ping
      shutdown stdin_mode top subscribe window_width watch =
    let client =
      try Tcsq_server.Client.connect socket
      with Unix.Unix_error (e, _, _) ->
        or_die
          (Error
             (Printf.sprintf "cannot connect to %s: %s" socket
                (Unix.error_message e)))
    in
    let failures = ref 0 in
    (* print the server's response verbatim; remember failures for the
       exit code *)
    let roundtrip line =
      Tcsq_server.Client.send_raw client line;
      match Tcsq_server.Client.recv_raw client with
      | Error msg -> or_die (Error msg)
      | Ok response -> (
          print_endline response;
          match Tcsq_server.Protocol.parse_response response with
          | Ok r
            when r.Tcsq_server.Protocol.status = "ok"
                 || r.Tcsq_server.Protocol.status = "truncated" ->
              ()
          | Ok _ | Error _ -> incr failures)
    in
    if ping then
      roundtrip (Obs.Json.to_string (Tcsq_server.Client.op_json "ping"));
    (match match_ with
    | Some text ->
        roundtrip
          (Obs.Json.to_string
             (Tcsq_server.Client.query_json ~method_:m ?deadline_ms ~limit
                ~count_only text))
    | None -> ());
    (match subscribe with
    | Some text ->
        (* a syntax error is a usage error (exit 2), caught before the
           round-trip; label resolution still happens server-side *)
        (match Semantics.Qlang.parse text with
        | Error e ->
            or_die
              (Error
                 (Printf.sprintf "subscribe query (at offset %d): %s"
                    e.Semantics.Qlang.position e.Semantics.Qlang.message))
        | Ok _ -> ());
        roundtrip
          (Obs.Json.to_string
             (Tcsq_server.Client.subscribe_json ?window_width text))
    | None -> ());
    if stdin_mode then begin
      try
        while true do
          let line = input_line stdin in
          if String.trim line <> "" then roundtrip line
        done
      with End_of_file -> ()
    end;
    (match watch with
    | None -> ()
    | Some n ->
        (* stream frames as they arrive; only pushed notifications count
           toward N, interleaved plain responses are printed verbatim *)
        let seen = ref 0 in
        while !seen < n do
          match Tcsq_server.Client.recv_raw client with
          | Error msg -> or_die (Error msg)
          | Ok line -> (
              print_endline line;
              flush stdout;
              match Tcsq_server.Protocol.parse_response line with
              | Ok r when Tcsq_server.Protocol.is_notification r -> incr seen
              | Ok _ | Error _ -> ())
        done);
    if metrics then
      roundtrip
        (Obs.Json.to_string (Tcsq_server.Client.op_json "metrics"));
    if prom then (
      match Tcsq_server.Client.metrics_prom client with
      | Ok text -> print_string text
      | Error msg ->
          Printf.eprintf "tcsq: metrics_prom failed: %s\n%!" msg;
          incr failures);
    (match top with
    | None -> ()
    | Some n -> (
        (* hottest query shapes: the server's snapshot already orders
           its fingerprint list by request count *)
        match Tcsq_server.Client.metrics client with
        | Error msg ->
            Printf.eprintf "tcsq: metrics failed: %s\n%!" msg;
            incr failures
        | Ok snap -> (
            match Obs.Json.mem_list "fingerprints" snap with
            | None | Some [] -> print_endline "no fingerprints recorded"
            | Some fps ->
                Printf.printf "%-16s  %8s  %6s  %10s  %7s  %8s\n"
                  "fingerprint" "count" "slow" "mean_ms" "cached" "replans";
                List.iteri
                  (fun i fp ->
                    if i < n then
                      let s k =
                        Option.value ~default:"?"
                          (Obs.Json.mem_string k fp)
                      in
                      let d k =
                        Option.value ~default:0
                          (Obs.Json.mem_int k fp)
                      in
                      let f k =
                        Option.value ~default:0.0
                          (Obs.Json.mem_float k fp)
                      in
                      Printf.printf "%-16s  %8d  %6d  %10.3f  %7d  %8d\n"
                        (s "fingerprint") (d "count") (d "slow") (f "mean_ms")
                        (d "cached") (d "replanned"))
                  fps)));
    if shutdown then
      roundtrip
        (Obs.Json.to_string (Tcsq_server.Client.op_json "shutdown"));
    Tcsq_server.Client.close client;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running tcsq server and print each JSON \
          response line; exits nonzero if any response is an error or \
          an overload shed.")
    Term.(
      const run $ socket_arg $ match_arg $ method_term $ deadline_arg
      $ limit_arg $ count_flag $ metrics_flag $ prom_flag $ ping_flag
      $ shutdown_flag $ stdin_flag $ top_arg $ subscribe_arg
      $ window_width_arg $ watch_arg)

let fuzz_cmd =
  let iterations_arg =
    Arg.(
      value & opt int 200
      & info [ "iterations"; "i" ] ~docv:"N"
          ~doc:
            "Fuzz iterations (one random graph + 21 queries each: the \
             15-shape pool, 3 random plain, 3 random extended).")
  in
  let seed_arg =
    Arg.(
      value & opt int 20260705
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed; iteration $(i)i derives everything from S+$(i)i, \
             exactly like the retired bin/fuzz.exe.")
  in
  let wire_flag =
    Arg.(
      value & flag
      & info [ "wire" ]
          ~doc:
            "Also push checks through the server wire path (an in-process \
             server per graph): the wire joins every differential and \
             every query-only relation; graph-mutating relations rotate \
             through it once per iteration.")
  in
  let inject_fault_flag =
    Arg.(
      value & flag
      & info [ "inject-fault" ]
          ~doc:
            "Register the deliberately broken engine variant (drops one \
             match), to exercise the shrinker and reproducer pipeline.")
  in
  let max_probes_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-probes" ] ~docv:"N" ~doc:"Shrinker probe budget.")
  in
  let repro_out_arg =
    Arg.(
      value
      & opt string "tcsq-fuzz.repro"
      & info [ "repro-out" ] ~docv:"FILE"
          ~doc:"Where to write the minimized reproducer on a failure.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute the check recorded in a reproducer file instead \
             of fuzzing: exit 0 if it passes (the failure is gone), 1 if \
             it still reproduces.")
  in
  let indent s =
    String.concat "\n  " (String.split_on_char '\n' s)
  in
  let run iterations seed wire inject_fault max_probes repro_out replay =
    match replay with
    | Some path ->
        let r = or_die (Conformance.Repro.load path) in
        Format.printf "replaying %s@.  check: %s@.  case: %s@." path
          (Conformance.Check.describe r.Conformance.Repro.check)
          (Conformance.Case.brief r.Conformance.Repro.case);
        (match Conformance.Harness.replay ~inject_fault r with
        | Ok () ->
            Format.printf "clean: the recorded failure does not reproduce@."
        | Error detail ->
            Format.printf "reproduces: %s@." (indent detail);
            exit 1)
    | None ->
        let t0 = Unix.gettimeofday () in
        (* progress and timing go to stderr: stdout is the deterministic
           record that golden tests pin down *)
        let log msg =
          Printf.eprintf "  %s (%.1fs)\n%!" msg (Unix.gettimeofday () -. t0)
        in
        let config =
          {
            Conformance.Harness.iterations;
            seed;
            wire;
            inject_fault;
            max_probes;
            log;
          }
        in
        Format.printf "fuzzing %d iterations from seed %d@." iterations seed;
        Format.printf "engines: %s@."
          (String.concat ", " (Conformance.Harness.engine_names config));
        Format.printf "relations: %s@."
          (String.concat ", " Conformance.Harness.relation_names);
        let outcome = Conformance.Harness.fuzz config in
        let c = outcome.Conformance.Harness.counts in
        (match outcome.Conformance.Harness.failure with
        | None ->
            Format.printf
              "OK: %d queries clean (%d differential, %d relation, %d \
               parallel, %d analyzer checks)@."
              c.Conformance.Harness.queries c.Conformance.Harness.differential
              c.Conformance.Harness.relation c.Conformance.Harness.parallel
              c.Conformance.Harness.analyzer
        | Some f ->
            Format.printf "FAIL %s at iteration %d@.  %s@."
              (Conformance.Check.describe f.Conformance.Harness.check)
              f.Conformance.Harness.iteration
              (indent f.Conformance.Harness.detail);
            Format.printf "found on: %s@."
              (Conformance.Case.brief f.Conformance.Harness.case);
            Format.printf "minimized to: %s (%d probes)@."
              (Conformance.Case.brief f.Conformance.Harness.minimized)
              f.Conformance.Harness.probes;
            let repro = Conformance.Harness.repro_of_failure config f in
            Conformance.Repro.save repro repro_out;
            Format.printf "reproducer written to %s@." repro_out;
            Format.printf "replay: tcsq fuzz --replay %s%s@." repro_out
              (if inject_fault then " --inject-fault" else "");
            exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Conformance-fuzz the engines: random graphs and queries checked \
          differentially against the brute-force oracle, through the \
          static analyzer, across a multi-domain run, and under a suite of \
          metamorphic relations — on the first divergence, a delta-debugged \
          minimal reproducer file is written.")
    Term.(
      const run $ iterations_arg $ seed_arg $ wire_flag $ inject_fault_flag
      $ max_probes_arg $ repro_out_arg $ replay_arg)

let main =
  let doc = "temporal-clique subgraph query processing (TSRJoin)" in
  Cmd.group (Cmd.info "tcsq" ~version:"1.0.0" ~doc)
    [
      datasets_cmd; generate_cmd; stats_cmd; query_cmd; profile_cmd;
      explain_cmd; compare_cmd; topk_cmd; suite_cmd; lint_cmd;
      serve_cmd; client_cmd; fuzz_cmd;
    ]

let () = exit (Cmd.eval main)
