(* Coverage sweep for modules whose behaviour is otherwise only
   exercised indirectly: Volcano overflow behaviour, Sti_index lookups,
   Time_pipeline expansion orders, JSON encoding, Runner CSV,
   Engine method parsing, Durable helpers. *)

open Semantics

let window a b = Temporal.Interval.make a b

(* ---------- Volcano overflow ---------- *)

let mk_tuple q i =
  let t = Relops.Tuple.initial q in
  t.Relops.Tuple.binds.(0) <- i;
  t

let test_volcano_overflow_rebatching () =
  (* a flat_map producing 3000 outputs from one input must split them
     into <= 1024-tuple batches *)
  let q = Query.make ~n_vars:1 ~edges:[ (0, 0, 0) ] ~window:(window 0 1) in
  let op =
    Relops.Volcano.source (List.to_seq [ mk_tuple q 0 ])
    |> Relops.Volcano.flat_map (fun t -> List.init 3000 (fun _ -> t))
  in
  let sizes = ref [] in
  let rec go () =
    match Relops.Volcano.next op with
    | None -> ()
    | Some b ->
        sizes := Array.length b :: !sizes;
        go ()
  in
  go ();
  Alcotest.(check int) "total" 3000 (List.fold_left ( + ) 0 !sizes);
  Alcotest.(check bool) "all bounded" true
    (List.for_all (fun s -> s <= Relops.Volcano.batch_size) !sizes);
  Alcotest.(check int) "batch count" 3 (List.length !sizes)

let test_volcano_empty_source () =
  let op = Relops.Volcano.source Seq.empty in
  Alcotest.(check bool) "none" true (Relops.Volcano.next op = None)

(* ---------- Sti_index ---------- *)

let test_sti_index () =
  let g =
    Tgraph.Graph.of_edge_list
      [ (0, 1, 0, 0, 5); (1, 2, 1, 3, 8); (2, 0, 0, 6, 9) ]
  in
  let idx = Relops.Sti_index.build g in
  Alcotest.(check int) "label 0 relation" 2
    (Temporal.Sti.length (Relops.Sti_index.sti idx ~lbl:0));
  Alcotest.(check int) "label 1 relation" 1
    (Temporal.Sti.length (Relops.Sti_index.sti idx ~lbl:1));
  Alcotest.(check int) "unknown label" 0
    (Temporal.Sti.length (Relops.Sti_index.sti idx ~lbl:7));
  Alcotest.(check bool) "size accounted" true (Relops.Sti_index.size_words idx > 0);
  let item = Temporal.Span_item.make 1 (window 3 8) in
  Alcotest.(check int) "edge resolution" 1
    (Tgraph.Edge.id (Relops.Sti_index.edge_of_item idx item))

(* ---------- JSON encoding (Obs.Json, Match_result) ---------- *)

let test_json_escaping () =
  let escape_string s = Obs.Json.to_string (Obs.Json.String s) in
  Alcotest.(check string) "plain" "\"abc\"" (escape_string "abc");
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (escape_string "a\"b\\c");
  Alcotest.(check string) "newline" "\"a\\nb\"" (escape_string "a\nb");
  Alcotest.(check string) "control char" "\"\\u0001\""
    (escape_string "\001")

let test_json_match () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 2, 7) ] in
  let m = Match_result.make [| 0 |] (window 2 7) in
  let json = Obs.Json.to_string (Match_result.to_json g m) in
  Alcotest.(check bool) "mentions lifespan" true
    (Option.is_some
       (String.index_opt json 'l'));
  (* structural smoke checks: balanced braces/brackets *)
  let count c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check string) "exact text"
    "{\"edges\": [{\"id\": 0, \"src\": 0, \"dst\": 1, \"label\": \"l0\", \
     \"ts\": 2, \"te\": 7}], \"lifespan\": {\"ts\": 2, \"te\": 7}}"
    json;
  let mj = Match_result.to_json g m in
  let arr = Obs.Json.to_string_lines [ mj; mj ] in
  Alcotest.(check bool) "array form" true (arr.[0] = '[' && arr.[String.length arr - 1] = ']');
  Alcotest.(check string) "one match per line"
    (Printf.sprintf "[%s,\n %s]" json json) arr;
  Alcotest.(check string) "csv row" "0,2,7" (Match_result.to_csv m)

(* ---------- Runner CSV ---------- *)

let test_runner_csv () =
  let g =
    Test_util.random_graph ~seed:95 ~n_vertices:5 ~n_edges:50 ~n_labels:2
      ~domain:30 ~max_len:8 ()
  in
  let engine = Workload.Engine.prepare g in
  let q = Query.make ~n_vars:2 ~edges:[ (0, 0, 1) ] ~window:(window 0 29) in
  let meas = Workload.Runner.run_method engine Workload.Engine.Tsrjoin [ q; q ] in
  let row = Workload.Runner.to_csv_row ~tag:"t,x" meas in
  let fields = String.split_on_char ',' row in
  let header_fields =
    String.split_on_char ',' ("a,b," ^ Workload.Runner.csv_header)
  in
  Alcotest.(check int) "field count matches header" (List.length header_fields)
    (List.length fields);
  Alcotest.(check string) "method field" "tsrjoin" (List.nth fields 2);
  Alcotest.(check string) "query count" "2" (List.nth fields 3);
  (* percentiles are sane *)
  Alcotest.(check bool) "p50 <= p95" true
    (meas.Workload.Runner.p50_seconds <= meas.Workload.Runner.p95_seconds +. 1e-9)

(* ---------- method / dataset parsing ---------- *)

let test_method_parsing () =
  Alcotest.(check bool) "roundtrip" true
    (Array.for_all
       (fun m ->
         Workload.Engine.method_of_string (Workload.Engine.method_name m)
         = Some m)
       Workload.Engine.all_methods);
  Alcotest.(check bool) "alias" true
    (Workload.Engine.method_of_string "TSRJ" = Some Workload.Engine.Tsrjoin);
  Alcotest.(check bool) "unknown" true
    (Workload.Engine.method_of_string "quantum" = None)

(* ---------- Durable helper ---------- *)

let test_durability_helper () =
  let m = Match_result.make [| 0 |] (window 3 7) in
  Alcotest.(check int) "durability = length" 5 (Tcsq_core.Durable.durability m)

(* ---------- Slice / Tsr fringe ---------- *)

let test_tsr_of_edges_sorts () =
  let e i ts te =
    Tgraph.Edge.make ~id:i ~src:0 ~dst:i ~lbl:0 (window ts te)
  in
  let tsr = Tcsq_core.Tsr.of_edges [| e 0 5 9; e 1 1 2; e 2 3 3 |] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 0 ]
    (List.map Tgraph.Edge.id (Tcsq_core.Tsr.to_list tsr));
  Alcotest.(check int) "lower bound" 1 (Tcsq_core.Tsr.lower_bound_start tsr 2);
  Alcotest.(check int) "upper bound" 2 (Tcsq_core.Tsr.upper_bound_start tsr 3);
  Alcotest.check_raises "make validates" (Invalid_argument "") (fun () ->
      try
        ignore
          (Tcsq_core.Tsr.make
             (Triejoin.Slice.full [| e 0 5 9; e 1 1 2 |]))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let () =
  Alcotest.run "misc"
    [
      ( "volcano",
        [
          Alcotest.test_case "overflow rebatching" `Quick test_volcano_overflow_rebatching;
          Alcotest.test_case "empty source" `Quick test_volcano_empty_source;
        ] );
      ("sti_index", [ Alcotest.test_case "lookups" `Quick test_sti_index ]);
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "match serialization" `Quick test_json_match;
        ] );
      ("runner", [ Alcotest.test_case "csv rows" `Quick test_runner_csv ]);
      ("engine", [ Alcotest.test_case "method parsing" `Quick test_method_parsing ]);
      ("durable", [ Alcotest.test_case "durability" `Quick test_durability_helper ]);
      ("tsr", [ Alcotest.test_case "of_edges and bounds" `Quick test_tsr_of_edges_sorts ]);
    ]
