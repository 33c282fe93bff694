(* Tests for time-respecting journeys and earliest-arrival reachability,
   cross-checked against a brute-force journey search. *)

open Tpath

let window a b = Temporal.Interval.make a b

let graph () =
  (* a temporal line with a shortcut that expires too early:
     0 -> 1 valid [0,5]; 1 -> 2 valid [3,8]; 2 -> 3 valid [10,12];
     0 -> 3 valid [0,1] (shortcut); 3 -> 0 valid [20,21] (back edge) *)
  Tgraph.Graph.of_edge_list
    [
      (0, 1, 0, 0, 5);
      (1, 2, 0, 3, 8);
      (2, 3, 0, 10, 12);
      (0, 3, 0, 0, 1);
      (3, 0, 0, 20, 21);
    ]

let test_earliest_arrival_basic () =
  let g = graph () in
  let r = Reachability.earliest_arrival g ~src:0 in
  Alcotest.(check (option int)) "self" (Some 0) (Reachability.arrival r 0);
  Alcotest.(check (option int)) "v1" (Some 0) (Reachability.arrival r 1);
  Alcotest.(check (option int)) "v2 waits for the edge" (Some 3)
    (Reachability.arrival r 2);
  (* v3 via the shortcut at time 0 beats the long way (10) *)
  Alcotest.(check (option int)) "v3 shortcut" (Some 0) (Reachability.arrival r 3);
  Alcotest.(check int) "all reachable" 4 (Reachability.reachable_count r)

let test_earliest_arrival_window () =
  let g = graph () in
  (* departing at or after t = 2: the shortcut (ends at 1) is unusable *)
  let r = Reachability.earliest_arrival ~window:(window 2 30) g ~src:0 in
  Alcotest.(check (option int)) "v1" (Some 2) (Reachability.arrival r 1);
  Alcotest.(check (option int)) "v2" (Some 3) (Reachability.arrival r 2);
  Alcotest.(check (option int)) "v3 long way" (Some 10) (Reachability.arrival r 3);
  (* tight arrival deadline cuts v3 *)
  let r9 = Reachability.earliest_arrival ~window:(window 2 9) g ~src:0 in
  Alcotest.(check bool) "v3 unreachable by 9" false (Reachability.reachable r9 3)

let test_time_respect () =
  (* edge into v2 only BEFORE the edge out of v1 exists: not a journey *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 10, 12); (1, 2, 0, 0, 5) ] in
  let r = Reachability.earliest_arrival g ~src:0 in
  Alcotest.(check bool) "v1 reachable" true (Reachability.reachable r 1);
  Alcotest.(check bool) "v2 needs time travel" false (Reachability.reachable r 2)

let test_journey_reconstruction () =
  let g = graph () in
  let r = Reachability.earliest_arrival ~window:(window 2 30) g ~src:0 in
  match Reachability.journey_to r 3 with
  | None -> Alcotest.fail "expected a journey to v3"
  | Some j -> (
      Alcotest.(check int) "hops" 3 (Journey.length j);
      Alcotest.(check int) "arrival" 10 j.Journey.arrival;
      match Journey.verify g ~src:0 j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "journey does not verify: %s" e)

let test_journey_verify_rejects () =
  let g = graph () in
  let bad = { Journey.edges = [ 0; 2 ]; departure = 0; arrival = 10 } in
  (* 0: 0->1, 2: 2->3 — disconnected *)
  Alcotest.(check bool) "disconnected rejected" true
    (Result.is_error (Journey.verify g ~src:0 bad));
  let late = { Journey.edges = [ 3 ]; departure = 2; arrival = 2 } in
  (* shortcut departs at 2 but expires at 1 *)
  Alcotest.(check bool) "late departure rejected" true
    (Result.is_error (Journey.verify g ~src:0 late));
  let wrong_arrival = { Journey.edges = [ 0 ]; departure = 0; arrival = 9 } in
  (* edge 0 ends at 5 *)
  Alcotest.(check bool) "impossible arrival rejected" true
    (Result.is_error (Journey.verify g ~src:0 wrong_arrival))

(* brute force: DFS over edge sequences with at most |V| hops *)
let brute_reachable g ~src ~ws ~we =
  let n = Tgraph.Graph.n_vertices g in
  let best = Array.make n max_int in
  best.(src) <- ws;
  let rec explore u at depth =
    if depth < n then
      Tgraph.Graph.iter_edges
        (fun e ->
          if Tgraph.Edge.src e = u then begin
            let depart = max at (Tgraph.Edge.ts e) in
            if depart <= Tgraph.Edge.te e && depart <= we then begin
              let v = Tgraph.Edge.dst e in
              if depart < best.(v) then begin
                best.(v) <- depart;
                explore v depart (depth + 1)
              end
            end
          end)
        g
  in
  explore src ws 0;
  Array.map (fun a -> if a = max_int then None else Some a) best

let prop_matches_brute =
  QCheck.Test.make ~name:"earliest arrival = brute force" ~count:100
    QCheck.(pair (int_range 0 5000) (int_range 0 25))
    (fun (seed, ws) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:7 ~n_edges:30 ~n_labels:2
          ~domain:30 ~max_len:8 ()
      in
      let we = ws + 10 in
      let src = seed mod Tgraph.Graph.n_vertices g in
      let r = Reachability.earliest_arrival ~window:(window ws we) g ~src in
      let expected = brute_reachable g ~src ~ws ~we in
      let ok = ref true in
      Array.iteri
        (fun v e -> if Reachability.arrival r v <> e then ok := false)
        expected;
      !ok)

let prop_journeys_verify =
  QCheck.Test.make ~name:"reconstructed journeys verify" ~count:100
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:6 ~n_edges:25 ~n_labels:2
          ~domain:25 ~max_len:6 ()
      in
      let src = seed mod Tgraph.Graph.n_vertices g in
      let r = Reachability.earliest_arrival g ~src in
      let ok = ref true in
      for v = 0 to Tgraph.Graph.n_vertices g - 1 do
        match Reachability.journey_to r v with
        | None -> ()
        | Some j -> (
            match Journey.verify g ~src j with Ok () -> () | Error _ -> ok := false)
      done;
      !ok)

(* ---------- latest departure / fastest ---------- *)

let test_latest_departure_basic () =
  let g = graph () in
  (* reach v3 by the domain end: via 2->3 (valid [10,12]) or the
     shortcut 0->3 (valid [0,1]) *)
  let departs = Reachability.latest_departure g ~dst:3 in
  Alcotest.(check int) "dst itself" 21 departs.(3);
  Alcotest.(check int) "v2 leaves by 12" 12 departs.(2);
  (* from v1: 1->2 must happen by 8, then 2->3 at 10: leave v1 by 8 *)
  Alcotest.(check int) "v1 leaves by 8" 8 departs.(1);
  (* from v0: either shortcut (by 1) or 0->1 by 5: 5 wins *)
  Alcotest.(check int) "v0 leaves by 5" 5 departs.(0)

let test_latest_departure_unreachable () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 10, 12); (1, 2, 0, 0, 5) ] in
  let departs = Reachability.latest_departure g ~dst:2 in
  Alcotest.(check bool) "v0 cannot reach v2" true (departs.(0) = min_int);
  Alcotest.(check int) "v1 can, by 5" 5 departs.(1)

let test_fastest_duration () =
  (* waiting at the source must not count: first edge [0,10], second
     [9,9]: depart at 9, duration 1 *)
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 10); (1, 2, 0, 9, 9) ] in
  Alcotest.(check (option int)) "instantaneous" (Some 1)
    (Reachability.fastest_duration g ~src:0 ~dst:2);
  (* forced wait: second edge strictly later *)
  let g2 = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 4); (1, 2, 0, 8, 9) ] in
  Alcotest.(check (option int)) "forced wait 4..8" (Some 5)
    (Reachability.fastest_duration g2 ~src:0 ~dst:2);
  Alcotest.(check (option int)) "self" (Some 1)
    (Reachability.fastest_duration g ~src:1 ~dst:1);
  Alcotest.(check (option int)) "unreachable" None
    (Reachability.fastest_duration g ~src:2 ~dst:0)

(* brute force over edge sequences with <= |V| hops, at their latest
   feasible schedules *)
let brute_fastest g ~src ~dst ~ws ~we =
  let n = Tgraph.Graph.n_vertices g in
  let best = ref None in
  let edges = Tgraph.Graph.edges g in
  let rec extend seq_rev at hops =
    if hops < n then
      Array.iter
        (fun e ->
          if Tgraph.Edge.src e = at then begin
            let seq_rev = e :: seq_rev in
            if Tgraph.Edge.dst e = dst then begin
              (* latest schedule backward *)
              let rec caps acc bound = function
                | [] -> acc
                | e :: rest ->
                    let b = min bound (min (Tgraph.Edge.te e) we) in
                    caps (b :: acc) b rest
              in
              let bounds = caps [] max_int seq_rev in
              (* bounds are per-edge caps in forward order *)
              let seq = List.rev seq_rev in
              let rec forward t = function
                | [], [] -> Some t
                | e :: rest, b :: brest ->
                    let instant = max t (max ws (Tgraph.Edge.ts e)) in
                    if instant > b then None
                    else forward instant (rest, brest)
                | _ -> assert false
              in
              (* departure = first instant of the latest schedule: walk
                 forward with instants as late as caps allow from the
                 first cap *)
              match (seq, bounds) with
              | e0 :: _, b0 :: _ ->
                  let depart = b0 in
                  if depart >= max ws (Tgraph.Edge.ts e0) then begin
                    match forward depart (seq, bounds) with
                    | Some arrive ->
                        let d = arrive - depart + 1 in
                        (match !best with
                        | Some b when b <= d -> ()
                        | Some _ | None -> best := Some d)
                    | None -> ()
                  end
              | _ -> ()
            end;
            extend seq_rev (Tgraph.Edge.dst e) (hops + 1)
          end)
        edges
  in
  extend [] src 0;
  !best

let prop_fastest_matches_brute =
  QCheck.Test.make ~name:"fastest duration = brute force" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 0 15))
    (fun (seed, ws) ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:5 ~n_edges:15 ~n_labels:1
          ~domain:25 ~max_len:8 ()
      in
      let we = ws + 12 in
      let src = seed mod 5 and dst = (seed / 7) mod 5 in
      if src = dst then true
      else
        Reachability.fastest_duration
          ~window:(window ws we) g ~src ~dst
        = brute_fastest g ~src ~dst ~ws ~we)

let prop_latest_departure_consistent =
  QCheck.Test.make
    ~name:"latest departure: departing then is feasible, later is not"
    ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Test_util.random_graph ~seed ~n_vertices:6 ~n_edges:25 ~n_labels:1
          ~domain:25 ~max_len:6 ()
      in
      (* a vertex id no edge uses is not in the graph: 25 random edges
         can leave the highest of the 6 ids unused *)
      let n = Tgraph.Graph.n_vertices g in
      let dst = seed mod n in
      let departs = Reachability.latest_departure g ~dst in
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> dst && departs.(v) > min_int then begin
          (* departing at departs.(v) reaches dst *)
          let r =
            Reachability.earliest_arrival
              ~window:(window departs.(v) (Temporal.Interval.te (Tgraph.Graph.time_domain g)))
              g ~src:v
          in
          if not (Reachability.reachable r dst) then ok := false;
          (* departing any later does not *)
          let domain_end = Temporal.Interval.te (Tgraph.Graph.time_domain g) in
          if departs.(v) < domain_end then begin
            let r' =
              Reachability.earliest_arrival
                ~window:(window (departs.(v) + 1) domain_end)
                g ~src:v
            in
            if Reachability.reachable r' dst then ok := false
          end
        end
      done;
      !ok)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tpath"
    [
      ( "reachability",
        [
          Alcotest.test_case "earliest arrival" `Quick test_earliest_arrival_basic;
          Alcotest.test_case "window restricts" `Quick test_earliest_arrival_window;
          Alcotest.test_case "time respecting" `Quick test_time_respect;
        ] );
      ( "journeys",
        [
          Alcotest.test_case "reconstruction verifies" `Quick test_journey_reconstruction;
          Alcotest.test_case "verify rejects bad journeys" `Quick
            test_journey_verify_rejects;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "latest departure" `Quick test_latest_departure_basic;
          Alcotest.test_case "latest departure unreachable" `Quick
            test_latest_departure_unreachable;
          Alcotest.test_case "fastest duration" `Quick test_fastest_duration;
        ] );
      qsuite "properties"
        [
          prop_matches_brute;
          prop_journeys_verify;
          prop_fastest_matches_brute;
          prop_latest_departure_consistent;
        ];
    ]
