(* The paper's motivating scenario: traffic jams as temporal cliques.

   Vertices are road intersections, edges are road segments whose label
   is the congestion status and whose interval is the duration of that
   status. A "traffic jam of length k" is a k-chain of roads that were
   all congested at the same time.

   Run with:  dune exec examples/traffic_jams.exe *)

let () =
  (* A synthetic rush-hour city: reuse the Yellow-taxi-shaped generator
     but relabel it as congestion statuses. *)
  let cfg : Tgraph.Generator.config =
    {
      topology = Grid { rows = 12; cols = 12 };
      n_edges = 18_000;
      n_labels = 2 (* congested, fluid *);
      domain = 24 * 60 (* one day in minutes *);
      mean_duration = 25.0;
      label_affinity = None;
      seed = 2026;
    }
  in
  let g = Tgraph.Generator.generate cfg in
  let labels = Tgraph.Graph.labels g in
  (* the generator names labels "a", "b", ...; read label 0 as
     "congested" *)
  let congested = Option.get (Tgraph.Label.find labels "a") in

  let engine = Workload.Engine.prepare g in

  (* All traffic jams involving 3 consecutive roads during the evening
     rush hour, 17:00-19:00. *)
  let rush_hour = Temporal.Interval.make (17 * 60) (19 * 60) in
  let jam_chain k window =
    Semantics.Query.make ~n_vars:(k + 1)
      ~edges:(List.init k (fun i -> (congested, i, i + 1)))
      ~window
  in
  let q = jam_chain 3 rush_hour in
  let stats = Semantics.Run_stats.create () in
  (* Count the jams and keep the three longest-lasting ones. *)
  let n_jams = ref 0 in
  let longest = Semantics.Match_result.Top_k.create 3 in
  Workload.Engine.run_ext ~stats engine Workload.Engine.Tsrjoin
    (Semantics.Equery.plain q) ~emit:(fun m ->
      incr n_jams;
      Semantics.Match_result.Top_k.offer longest m);
  Format.printf "rush hour 17:00-19:00: %d three-road jams@." !n_jams;
  List.iteri
    (fun i m ->
      let hops =
        Array.to_list m.Semantics.Match_result.edges
        |> List.map (fun id ->
               let e = Tgraph.Graph.edge g id in
               Printf.sprintf "%d->%d" (Tgraph.Edge.src e) (Tgraph.Edge.dst e))
      in
      Format.printf "  jam %d: %s jointly congested %a (%d min)@." (i + 1)
        (String.concat " " hops)
        Temporal.Interval.pp m.Semantics.Match_result.life
        (Semantics.Match_result.durability m))
    (Semantics.Match_result.Top_k.drain longest);

  (* Same pattern at day scale: the window is the whole day. *)
  let whole_day = Temporal.Interval.make 0 ((24 * 60) - 1) in
  let day_count =
    Workload.Engine.count engine Workload.Engine.Tsrjoin (jam_chain 3 whole_day)
  in
  Format.printf "whole day: %d three-road jams@." day_count;

  (* And a harder shape: a congested 4-circle (gridlock around a block). *)
  let gridlock =
    Semantics.Query.make ~n_vars:4
      ~edges:
        [ (congested, 0, 1); (congested, 1, 2); (congested, 2, 3); (congested, 3, 0) ]
      ~window:whole_day
  in
  Format.printf "whole day: %d gridlocked blocks (congested 4-circles)@."
    (Workload.Engine.count engine Workload.Engine.Tsrjoin gridlock);

  (* Jams per hour: one shared evaluation over the whole day, bucketed. *)
  let day_jams =
    Semantics.Match_result.collect (fun emit ->
        Workload.Engine.run_ext engine Workload.Engine.Tsrjoin
          (Semantics.Equery.plain (jam_chain 3 whole_day))
          ~emit)
  in
  let hist =
    Semantics.Analytics.lifespan_histogram ~n_buckets:24 ~over:whole_day day_jams
  in
  Format.printf "jams per hour:@.";
  Array.iteri
    (fun h (_, count) ->
      if count > 0 then
        Format.printf "  %02d:00  %s %d@." h
          (String.make (min 60 (count / 120)) '#')
          count)
    hist;
  (match Semantics.Analytics.peak ~n_buckets:24 ~over:whole_day day_jams with
  | Some (bucket, count) ->
      Format.printf "worst hour: starts at minute %d with %d jams active@."
        (Temporal.Interval.ts bucket) count
  | None -> ());

  (* The same question asked per 2-hour sliding slices shares one
     evaluation pass (Multi_window) instead of 12 separate queries. *)
  let tai = Workload.Engine.tai engine in
  let slices =
    Tcsq_core.Multi_window.sliding tai (jam_chain 3 whole_day) ~width:(2 * 60)
      ~stride:(2 * 60) ~over:whole_day
  in
  Format.printf "2h slices (shared evaluation):@.";
  List.iter
    (fun (w, ms) ->
      Format.printf "  %s: %d jams@."
        (Temporal.Interval.to_string w)
        (List.length ms))
    slices;
  Format.printf "engine counters: %a@." Semantics.Run_stats.pp stats
