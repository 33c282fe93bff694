(* The paper's network-security scenario over an imported contact
   sequence: find denial-of-service stars — many sources connected to
   one victim at the same moment — in a SNAP-style "src dst timestamp"
   log, using wildcard labels (connection kinds don't matter) and a
   durability floor (sustained attacks only).

   Run with:  dune exec examples/intrusion_contacts.exe *)

let () =
  (* synthesize a contact log on disk, as if exported from a collector:
     background traffic plus a hot minute against one victim *)
  let path = Filename.temp_file "netflow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let rng = Random.State.make [| 443 |] in
      output_string oc "# src dst unix_time\n";
      for _ = 1 to 8_000 do
        Printf.fprintf oc "%d %d %d\n" (Random.State.int rng 200)
          (Random.State.int rng 200)
          (Random.State.int rng 3_600)
      done;
      (* the attack: bots 150..169 hammer victim 7 around t = 2000 *)
      for bot = 150 to 169 do
        for burst = 0 to 2 do
          Printf.fprintf oc "%d 7 %d\n" bot (1990 + (burst * 15) + (bot mod 7))
        done
      done;
      close_out oc;

      (* each contact held open for 60 seconds *)
      let g = Tgraph.Io.load_contacts ~duration:60 path in
      Format.printf "loaded %a from the contact log@." Tgraph.Graph.pp_summary g;

      let engine = Workload.Engine.prepare g in
      (* 4 distinct sources on one target, all alive simultaneously for
         at least 30 seconds, somewhere in the night window *)
      let q =
        Result.get_ok
          (Semantics.Qlang.parse_and_compile g
             "MATCH (v)<-[*]-(a), (v)<-[*]-(b), (v)<-[*]-(c), (v)<-[*]-(d) \
              IN [1800, 2400] LASTING 30")
      in
      (* a result budget is the alert threshold: past 100K star
         embeddings something is burning, no need to enumerate the rest
         of a combinatorial explosion *)
      let stats =
        Semantics.Run_stats.create
          ~limits:
            { Semantics.Run_stats.max_results = 100_000;
              max_intermediate = max_int }
          ()
      in
      let t0 = Unix.gettimeofday () in
      let victims = Hashtbl.create 8 in
      let outcome =
        match
          Workload.Engine.run_ext ~stats engine Workload.Engine.Tsrjoin
            (Semantics.Equery.plain q) ~emit:(fun m ->
              let e =
                Tgraph.Graph.edge g m.Semantics.Match_result.edges.(0)
              in
              let v = Tgraph.Edge.dst e in
              Hashtbl.replace victims v
                (1 + Option.value ~default:0 (Hashtbl.find_opt victims v)))
        with
        | () -> "complete"
        | exception Semantics.Run_stats.Limit_exceeded _ -> "THRESHOLD HIT"
      in
      Format.printf "%s after %d stars in %.1f ms@." outcome
        stats.Semantics.Run_stats.results
        ((Unix.gettimeofday () -. t0) *. 1000.0);
      Hashtbl.iter
        (fun v count ->
          if count > 10_000 then
            Format.printf "ALERT: >= %d concurrent attack stars on host %d@."
              count v)
        victims;

      (* triage: when was host 7 busiest? *)
      let host7 =
        Result.get_ok
          (Semantics.Qlang.parse_and_compile g
             "MATCH (v)<-[*]-(a) IN [0, 3659]")
      in
      let inbound =
        Semantics.Match_result.collect (fun emit ->
            Workload.Engine.run_ext engine Workload.Engine.Tsrjoin
              (Semantics.Equery.plain host7) ~emit:(fun m ->
                let e =
                  Tgraph.Graph.edge g m.Semantics.Match_result.edges.(0)
                in
                if Tgraph.Edge.dst e = 7 then emit m))
      in
      match
        Semantics.Analytics.peak ~n_buckets:60
          ~over:(Tgraph.Graph.time_domain g) inbound
      with
      | Some (bucket, n) ->
          Format.printf "host 7 peak: %d concurrent inbound connections near %a@."
            n Temporal.Interval.pp bucket
      | None -> Format.printf "host 7 saw no traffic@.")
