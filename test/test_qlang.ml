(* Tests for the textual query language: lexing/parsing, compilation
   against a graph, error reporting, and end-to-end equivalence with
   programmatically built queries. *)

open Semantics

let graph () =
  Tgraph.Graph.of_edge_list ~labels:(Tgraph.Label.of_names [| "a"; "b"; "c" |])
    [
      (0, 1, 0, 0, 5); (1, 2, 1, 3, 8); (2, 0, 2, 4, 9); (0, 2, 1, 2, 4);
    ]

let ok = function
  | Ok v -> v
  | Error (e : Qlang.error) ->
      Alcotest.failf "parse failed at %d: %s" e.Qlang.position e.Qlang.message

let test_parse_simple () =
  let ast = ok (Qlang.parse "MATCH (x)-[a]->(y) IN [0, 10]") in
  Alcotest.(check int) "edges" 1 (Qlang.n_edges ast);
  Alcotest.(check int) "vars" 2 (Qlang.n_vars ast);
  Alcotest.(check (option (pair int int))) "window" (Some (0, 10)) (Qlang.window ast);
  Alcotest.(check (array string)) "names" [| "x"; "y" |] (Qlang.var_names ast)

let test_parse_chain_sugar () =
  let ast = ok (Qlang.parse "match (x)-[a]->(y)-[b]->(z)-[c]->(x)") in
  Alcotest.(check int) "edges" 3 (Qlang.n_edges ast);
  Alcotest.(check int) "vars" 3 (Qlang.n_vars ast);
  Alcotest.(check (option (pair int int))) "no window" None (Qlang.window ast)

let test_parse_incoming_edges () =
  let ast = ok (Qlang.parse "MATCH (hub)<-[a]-(f1), (hub)<-[b]-(f2) IN [1, 2]") in
  Alcotest.(check int) "edges" 2 (Qlang.n_edges ast);
  Alcotest.(check int) "vars" 3 (Qlang.n_vars ast)

let test_parse_anonymous () =
  let ast = ok (Qlang.parse "MATCH ()-[a]->()-[b]->()") in
  Alcotest.(check int) "three fresh vars" 3 (Qlang.n_vars ast);
  Alcotest.(check (array string)) "names" [| "$0"; "$1"; "$2" |] (Qlang.var_names ast)

let test_parse_comments_and_case () =
  let ast =
    ok
      (Qlang.parse
         "# temporal clique\nMaTcH (x)-[a]->(y) # star\nIn [3, 4]")
  in
  Alcotest.(check int) "edges" 1 (Qlang.n_edges ast)

let test_parse_errors () =
  let fails input =
    match Qlang.parse input with
    | Ok _ -> Alcotest.failf "expected %S to fail" input
    | Error _ -> ()
  in
  fails "";
  fails "MATCH";
  fails "(x)-[a]->(y)";
  fails "MATCH (x)";
  fails "MATCH (x)-[a]->";
  fails "MATCH (x)-[a]-(y)";
  fails "MATCH (x)-[]->(y)";
  fails "MATCH (x)-[a]->(y) IN [5]";
  fails "MATCH (x)-[a]->(y) IN [9, 5]";
  fails "MATCH (x)-[a]->(y) trailing";
  fails "MATCH (x)-[a]->(y) IN [1, 2] extra"

(* a literal past max_int is a syntax error at the literal, not an
   escaping [Failure "int_of_string"] *)
let test_error_positions () =
  List.iter
    (fun (input, what, position) ->
      match Qlang.parse input with
      | Ok _ -> Alcotest.failf "expected %S to fail" input
      | Error e -> Alcotest.(check int) what position e.Qlang.position)
    [
      ("MATCH (x)=[a]->(y)", "position of '='", 9);
      ( "MATCH (x)-[a]->(y) IN [0, 99999999999999999999]",
        "position of the out-of-range literal", 26 );
    ]

let test_compile_resolves_labels () =
  let g = graph () in
  let q =
    Result.get_ok
      (Qlang.parse_and_compile g "MATCH (x)-[a]->(y)-[b]->(z) IN [0, 9]")
  in
  Alcotest.(check int) "edges" 2 (Query.n_edges q);
  Alcotest.(check int) "label a" 0 (Query.edge q 0).Query.lbl;
  Alcotest.(check int) "label b" 1 (Query.edge q 1).Query.lbl;
  Alcotest.(check int) "shared var" (Query.edge q 0).Query.dst_var
    (Query.edge q 1).Query.src_var

let test_compile_unknown_label () =
  let g = graph () in
  match Qlang.parse_and_compile g "MATCH (x)-[zzz]->(y) IN [0, 9]" with
  | Ok _ -> Alcotest.fail "expected unknown-label error"
  | Error msg ->
      Alcotest.(check bool) "mentions the label" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'z'))

let test_compile_needs_window () =
  let g = graph () in
  (match Qlang.parse_and_compile g "MATCH (x)-[a]->(y)" with
  | Ok _ -> Alcotest.fail "expected missing-window error"
  | Error _ -> ());
  match
    Qlang.parse_and_compile ~default_window:(Temporal.Interval.make 0 9) g
      "MATCH (x)-[a]->(y)"
  with
  | Ok q -> Alcotest.(check int) "default window" 9 (Query.we q)
  | Error e -> Alcotest.fail e

let test_end_to_end_equivalence () =
  (* the textual triangle equals the programmatic triangle *)
  let g =
    Test_util.random_graph ~seed:55 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let textual =
    Result.get_ok
      (Qlang.parse_and_compile g
         "MATCH (x)-[l0]->(y)-[l1]->(z)-[l2]->(x) IN [5, 30]")
  in
  let programmatic =
    Query.make ~n_vars:3
      ~edges:[ (0, 0, 1); (1, 1, 2); (2, 2, 0) ]
      ~window:(Temporal.Interval.make 5 30)
  in
  let tai = Tcsq_core.Tai.build g in
  Test_util.check_same_results ~msg:"qlang vs programmatic"
    (Tcsq_core.Tsrjoin.evaluate tai programmatic)
    (Tcsq_core.Tsrjoin.evaluate tai textual)

let test_self_loop () =
  let g = Tgraph.Graph.of_edge_list [ (0, 0, 0, 1, 5); (0, 1, 0, 2, 6) ] in
  let q =
    Result.get_ok (Qlang.parse_and_compile g "MATCH (x)-[l0]->(x) IN [0, 9]")
  in
  let tai = Tcsq_core.Tai.build g in
  match Tcsq_core.Tsrjoin.evaluate tai q with
  | [ m ] -> Alcotest.(check int) "self loop edge" 0 m.Match_result.edges.(0)
  | ms -> Alcotest.failf "expected the self loop only, got %d" (List.length ms)

let test_wildcard_label () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (0, 2, 1, 2, 8) ] in
  let q =
    Result.get_ok (Qlang.parse_and_compile g "MATCH (x)-[*]->(y) IN [0, 9]")
  in
  Alcotest.(check int) "wildcard label" Query.any_label (Query.edge q 0).Query.lbl;
  let tai = Tcsq_core.Tai.build g in
  Alcotest.(check int) "matches both labels" 2
    (List.length (Tcsq_core.Tsrjoin.evaluate tai q));
  (* render keeps the star *)
  let text = Qlang.render g q in
  Alcotest.(check bool) "renders star" true
    (Option.is_some (String.index_opt text '*'));
  Alcotest.(check int) "reparses" 2
    (List.length
       (Tcsq_core.Tsrjoin.evaluate tai
          (Result.get_ok (Qlang.parse_and_compile g text))))

let test_render_roundtrip () =
  let g =
    Test_util.random_graph ~seed:77 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  (* the same edges 25 ticks earlier, across time 0, plus two at the
     bottom of the int range *)
  let early =
    Tgraph.Graph.of_edge_list ~labels:(Tgraph.Graph.labels g)
      ((0, 1, 0, min_int, min_int + 2)
      :: (1, 2, 1, min_int + 1, min_int + 4)
      :: List.init (Tgraph.Graph.n_edges g) (fun i ->
             let e = Tgraph.Graph.edge g i in
             Tgraph.Edge.(src e, dst e, lbl e, ts e - 25, te e - 25)))
  in
  List.iter
    (fun (g, ws, we) ->
      let window = Temporal.Interval.make ws we in
      let tai = Tcsq_core.Tai.build g in
      List.iteri
        (fun i q ->
          let text = Qlang.render g q in
          match Qlang.parse_and_compile g text with
          | Error e -> Alcotest.failf "query %d: %S did not reparse: %s" i text e
          | Ok q' ->
              Alcotest.(check bool)
                (Printf.sprintf "query %d keeps its window (%s)" i text)
                true
                (Temporal.Interval.equal window (Query.window q'));
              Test_util.check_same_results
                ~msg:(Printf.sprintf "query %d roundtrip (%s)" i text)
                (Tcsq_core.Tsrjoin.evaluate tai q)
                (Tcsq_core.Tsrjoin.evaluate tai q'))
        (Test_util.query_pool ~n_labels:3 ~window))
    [
      (g, 8, 30);
      (early, -20, -1);
      (early, -25, 5);
      (early, min_int, -1);
      (early, min_int, min_int + 3);
      (early, min_int + 1, min_int + 2);
    ]

let prop_render_roundtrip_random =
  QCheck.Test.make ~name:"render/parse roundtrip on random structures"
    ~count:150
    QCheck.(pair (int_range 0 100_000) (int_range 1 10))
    (fun (qseed, d) ->
      let g =
        Test_util.random_graph ~seed:4242 ~n_vertices:6 ~n_edges:80 ~n_labels:3
          ~domain:40 ~max_len:10 ()
      in
      let q =
        Query.with_min_duration
          (Testkit.random_query ~seed:qseed ~n_labels:3 ~max_edges:4
             ~window:(Temporal.Interval.make 5 30))
          d
      in
      let tai = Tcsq_core.Tai.build g in
      match Qlang.parse_and_compile g (Qlang.render g q) with
      | Error _ -> false
      | Ok q' ->
          Match_result.Result_set.equal
            (Match_result.Result_set.of_list (Tcsq_core.Tsrjoin.evaluate tai q))
            (Match_result.Result_set.of_list (Tcsq_core.Tsrjoin.evaluate tai q')))

let () =
  Alcotest.run "qlang"
    [
      ( "parse",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "chain sugar" `Quick test_parse_chain_sugar;
          Alcotest.test_case "incoming edges" `Quick test_parse_incoming_edges;
          Alcotest.test_case "anonymous nodes" `Quick test_parse_anonymous;
          Alcotest.test_case "comments and case" `Quick test_parse_comments_and_case;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
        ] );
      ( "compile",
        [
          Alcotest.test_case "resolves labels" `Quick test_compile_resolves_labels;
          Alcotest.test_case "unknown label" `Quick test_compile_unknown_label;
          Alcotest.test_case "window defaulting" `Quick test_compile_needs_window;
          Alcotest.test_case "end-to-end equivalence" `Quick test_end_to_end_equivalence;
          Alcotest.test_case "self loop" `Quick test_self_loop;
          Alcotest.test_case "wildcard label" `Quick test_wildcard_label;
          Alcotest.test_case "render roundtrip" `Quick test_render_roundtrip;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_render_roundtrip_random ] );
    ]
