(* Social-network scenario from the paper's introduction: pairs of users
   who simultaneously followed common accounts inside a query week.

   The pattern is a "double 2-star": variables x0 and x1 both point at
   x2 and x3 with 'follows' edges, and all four edges must share a
   common moment inside the window.

   Also demonstrates: loading/saving graphs through the CSV codec, and
   comparing the four engines on the same query.

   Run with:  dune exec examples/social_costars.exe *)

let build_network () =
  let cfg : Tgraph.Generator.config =
    {
      topology = Power_law { n_vertices = 500; exponent = 0.9 };
      n_edges = 5_000;
      n_labels = 1 (* follows *);
      domain = 365 (* one year in days *);
      mean_duration = 30.0 (* followships last ~a month *);
      label_affinity = None;
      seed = 7;
    }
  in
  Tgraph.Generator.generate cfg

let () =
  let g = build_network () in

  (* Round-trip through the CSV codec, as a deployment would. *)
  let path = Filename.temp_file "social" ".csv" in
  Tgraph.Io.save g path;
  let g = Tgraph.Io.load path in
  Sys.remove path;
  Format.printf "loaded %a@." Tgraph.Graph.pp_summary g;

  let follows = Option.get (Tgraph.Label.find (Tgraph.Graph.labels g) "a") in
  (* first week of August: days 213..219 *)
  let window = Temporal.Interval.make 213 219 in
  let q =
    Semantics.Query.make ~n_vars:4
      ~edges:
        [ (follows, 0, 2); (follows, 0, 3); (follows, 1, 2); (follows, 1, 3) ]
      ~window
  in

  let engine = Workload.Engine.prepare g in
  Format.printf "co-follower pairs in the window, by engine:@.";
  Array.iter
    (fun m ->
      (* a work budget keeps the weaker baselines honest but bounded,
         like the paper's timeouts *)
      let stats =
        Semantics.Run_stats.create
          ~limits:
            { Semantics.Run_stats.max_results = 2_000_000;
              max_intermediate = 20_000_000 }
          ()
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match Workload.Engine.count ~stats engine m q with
        | n -> Printf.sprintf "%8d matches " n
        | exception Semantics.Run_stats.Limit_exceeded _ -> "  (budget hit) "
      in
      Format.printf "  %-8s %s %8.1f ms  %9d intermediate tuples@."
        (Workload.Engine.method_name m)
        outcome
        ((Unix.gettimeofday () -. t0) *. 1000.0)
        stats.Semantics.Run_stats.intermediate)
    Workload.Engine.all_methods;

  (* Distinct user pairs behind the edge-level matches. *)
  let module P = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let pairs = ref P.empty in
  Workload.Engine.run_ext engine Workload.Engine.Tsrjoin
    (Semantics.Equery.plain q) ~emit:(fun m ->
      let e0 = Tgraph.Graph.edge g m.Semantics.Match_result.edges.(0) in
      let e2 = Tgraph.Graph.edge g m.Semantics.Match_result.edges.(2) in
      let a = Tgraph.Edge.src e0 and b = Tgraph.Edge.src e2 in
      if a <> b then pairs := P.add (min a b, max a b) !pairs);
  Format.printf "distinct user pairs sharing 2 followees simultaneously: %d@."
    (P.cardinal !pairs)
