(* Streaming scenario: a network-monitoring dashboard ingesting
   connection events continuously while answering a standing
   temporal-clique question over the trailing window.

   Demonstrates the incremental index path (Incremental / Tai.merge):
   appended batches fold into the TAI without re-sorting, and queries
   between batches always see the up-to-date graph. The standing
   question is the paper's DDoS example: stars of simultaneous
   connections onto one victim.

   Run with:  dune exec examples/streaming_ingest.exe *)

let () =
  (* start from one hour of history *)
  let base_cfg : Tgraph.Generator.config =
    {
      topology = Power_law { n_vertices = 300; exponent = 1.1 };
      n_edges = 6_000;
      n_labels = 1 (* connects *);
      domain = 3_600 (* one hour in seconds *);
      mean_duration = 30.0;
      label_affinity = None;
      seed = 404;
    }
  in
  let base = Tgraph.Generator.generate base_cfg in
  let connects =
    Option.get (Tgraph.Label.find (Tgraph.Graph.labels base) "a")
  in
  let inc = Tcsq_core.Incremental.create ~merge_threshold:500 base in

  (* the standing question: 3 sources connected to the same target at
     the same moment, within the trailing 5 minutes *)
  let attack_star ~now =
    Semantics.Query.make ~n_vars:4
      ~edges:[ (connects, 1, 0); (connects, 2, 0); (connects, 3, 0) ]
      ~window:(Temporal.Interval.make (max 0 (now - 300)) now)
  in

  let rng = Random.State.make [| 405 |] in
  let now = ref 3_600 in
  Format.printf "tick  ingested  pending  suspicious-stars  ms@.";
  for tick = 1 to 6 do
    (* ten minutes of new traffic per tick, with an injected burst onto
       one victim on tick 4 *)
    let burst = tick = 4 in
    let n_new = 800 in
    for i = 1 to n_new do
      let ts = !now + (i * 600 / n_new) in
      let src, dst =
        if burst && i mod 4 = 0 then (Random.State.int rng 300, 13)
        else (Random.State.int rng 300, Random.State.int rng 300)
      in
      if src <> dst then
        ignore
          (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl:connects ~ts
             ~te:(ts + 20 + Random.State.int rng 40))
    done;
    now := !now + 600;
    let t0 = Unix.gettimeofday () in
    let stars =
      Tcsq_core.Tsrjoin.evaluate (Tcsq_core.Incremental.tai inc)
        (attack_star ~now:!now)
    in
    Format.printf "%4d  %8d  %7d  %16d  %.1f@." tick
      (Tcsq_core.Incremental.n_edges inc)
      (Tcsq_core.Incremental.pending inc)
      (List.length stars)
      ((Unix.gettimeofday () -. t0) *. 1000.0);
    if burst then begin
      (* who is under attack? count stars per victim *)
      let per_victim = Hashtbl.create 16 in
      List.iter
        (fun m ->
          let e = Tgraph.Graph.edge (Tcsq_core.Incremental.graph inc)
                    m.Semantics.Match_result.edges.(0) in
          let v = Tgraph.Edge.dst e in
          Hashtbl.replace per_victim v
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_victim v)))
        stars;
      Hashtbl.iter
        (fun victim count ->
          if count > 100 then
            Format.printf "  ALERT: vertex %d hit by %d simultaneous-star \
                           matches@." victim count)
        per_victim
    end
  done
