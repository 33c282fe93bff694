(* Bibliographic scenario from the paper's introduction: triangles of
   researchers who all collaborated with each other at the same time, at
   some point inside a decade-long window.

   Demonstrates window scaling (decade vs single year) and the effect of
   the LFTO optimizations on a real query, using the ablation knobs of
   the public API.

   Run with:  dune exec examples/collab_triangles.exe *)

let () =
  let cfg : Tgraph.Generator.config =
    {
      topology = Power_law { n_vertices = 600; exponent = 1.0 };
      n_edges = 15_000;
      n_labels = 3 (* collab kinds: coauthor, grant, committee *);
      domain = 40 * 12 (* 40 years in months *);
      mean_duration = 18.0 (* collaborations last ~1.5 years *);
      label_affinity = None;
      seed = 1990;
    }
  in
  let g = Tgraph.Generator.generate cfg in
  let labels = Tgraph.Graph.labels g in
  let coauthor = Option.get (Tgraph.Label.find labels "a") in
  let tai = Tcsq_core.Tai.build g in

  let triangle window =
    Semantics.Query.make ~n_vars:3
      ~edges:[ (coauthor, 0, 1); (coauthor, 1, 2); (coauthor, 2, 0) ]
      ~window
  in
  (* the 1990s: months 240..359 of a domain starting at 1970 *)
  let nineties = triangle (Temporal.Interval.make 240 359) in
  let y1995 = triangle (Temporal.Interval.make 300 311) in

  let plan = Tcsq_core.Plan.build tai nineties in
  Format.printf "%a@." Tcsq_core.Plan.pp plan;

  let run name q config =
    let stats = Semantics.Run_stats.create () in
    let t0 = Unix.gettimeofday () in
    let n = Tcsq_core.Tsrjoin.count ~stats ~config tai q in
    Format.printf
      "  %-28s %5d triangles  %6.2f ms  scanned %6d  enum steps %7d@." name n
      ((Unix.gettimeofday () -. t0) *. 1000.0)
      stats.Semantics.Run_stats.scanned stats.Semantics.Run_stats.enum_steps
  in
  Format.printf "decade window (the 1990s):@.";
  run "basic LFTO (Algorithm 1)" nineties Tcsq_core.Tsrjoin.basic_config;
  run "optimized LFTO (Algorithm 4)" nineties Tcsq_core.Tsrjoin.default_config;
  Format.printf "single-year window (1995):@.";
  run "basic LFTO (Algorithm 1)" y1995 Tcsq_core.Tsrjoin.basic_config;
  run "optimized LFTO (Algorithm 4)" y1995 Tcsq_core.Tsrjoin.default_config;

  (* Top-5 most durable triangles of the decade (streamed through a
     bounded heap; memory stays O(k)). *)
  Format.printf "most durable collaborations:@.";
  let top = Semantics.Match_result.Top_k.create 5 in
  Tcsq_core.Tsrjoin.run tai nineties
    ~emit:(Semantics.Match_result.Top_k.offer top);
  List.iter
    (fun m ->
      let people =
        Array.to_list m.Semantics.Match_result.edges
        |> List.concat_map (fun id ->
               let e = Tgraph.Graph.edge g id in
               [ Tgraph.Edge.src e; Tgraph.Edge.dst e ])
        |> List.sort_uniq compare
        |> List.map string_of_int
      in
      Format.printf "  {%s} together during %a (%d months)@."
        (String.concat ", " people)
        Temporal.Interval.pp m.Semantics.Match_result.life
        (Temporal.Interval.length m.Semantics.Match_result.life))
    (Semantics.Match_result.Top_k.drain top);

  (* the durable-query variant: triangles lasting at least 2 years *)
  Format.printf "triangles lasting >= 24 months in the decade: %d@."
    (Tcsq_core.Tsrjoin.count tai
       (Semantics.Query.with_min_duration nineties 24))
