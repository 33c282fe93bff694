(* Differential and endpoint-convention tests for the extended
   relational operators: NOT antijoin, EXISTS semijoin, WHERE Allen
   constraints, and aggregates. Every operator family is checked
   naive-oracle-vs-engine across all four methods; hand-built graphs
   pin the closed-interval +1 conventions (a single shared tick is
   OVERLAPS, adjacency is MEETS and already clique-infeasible); QCheck
   properties tie Interval's closed semantics to the Allen
   classification and the Ivlset arithmetic the operators run on. *)

open Semantics
module RS = Match_result.Result_set
module I = Temporal.Interval
module Allen = Temporal.Allen
module Ivlset = Temporal.Ivlset

let eok g s =
  match Qlang.parse_and_compile_ext g s with
  | Ok eq -> eq
  | Error msg -> Alcotest.failf "parse failed on %S: %s" s msg

let eid g src dst =
  match
    Tgraph.Graph.fold_edges
      (fun acc e ->
        if Tgraph.Edge.src e = src && Tgraph.Edge.dst e = dst then
          Some (Tgraph.Edge.id e)
        else acc)
      None g
  with
  | Some id -> id
  | None -> Alcotest.failf "no edge %d->%d in the test graph" src dst

let check_rs name expected actual =
  let expected = RS.of_list expected and actual = RS.of_list actual in
  match RS.diff_summary ~expected ~actual with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" name d

(* every engine method must agree with the naive extended oracle *)
let check_all_methods name g eq =
  let expected = RS.of_list (Naive.evaluate_ext g eq) in
  let engine = Workload.Engine.prepare g in
  Array.iter
    (fun m ->
      let actual = RS.of_list (Test_util.run_ext engine m eq) in
      match RS.diff_summary ~expected ~actual with
      | None -> ()
      | Some d ->
          Alcotest.failf "%s: %s diverges from naive: %s" name
            (Workload.Engine.method_name m) d)
    Workload.Engine.all_methods

(* ---- hand-built antijoin / semijoin cases ---- *)

(* one a-edge with a b-edge out of its head at [3,5], and a second
   a-edge whose head has no b successor at all *)
let hand_graph () =
  Tgraph.Graph.of_edge_list
    ~labels:(Tgraph.Label.of_names [| "a"; "b"; "c" |])
    [ (0, 1, 0, 0, 9); (1, 2, 1, 3, 5); (3, 4, 0, 2, 7) ]

let test_antijoin_subtracts () =
  let g = hand_graph () in
  let e0 = eid g 0 1 and e2 = eid g 3 4 in
  let mk es ts te = Match_result.make es (I.make ts te) in
  let eq = eok g "MATCH (x)-[a]->(y) NOT (y)-[b]->() IN [0, 9]" in
  check_rs "matched union carved out of the lifespan"
    [ mk [| e0 |] 0 2; mk [| e0 |] 6 9; mk [| e2 |] 2 7 ]
    (Naive.evaluate_ext g eq);
  check_all_methods "antijoin" g eq;
  (* closed lengths through the duration floor: [0,2] lasts 3 ticks *)
  let at d = Naive.evaluate_ext g (Equery.with_min_duration eq d) in
  check_rs "LASTING 3 keeps the 3-tick piece"
    [ mk [| e0 |] 0 2; mk [| e0 |] 6 9; mk [| e2 |] 2 7 ]
    (at 3);
  check_rs "LASTING 4 drops exactly the 3-tick piece"
    [ mk [| e0 |] 6 9; mk [| e2 |] 2 7 ]
    (at 4);
  check_all_methods "durable antijoin" g (Equery.with_min_duration eq 4)

let test_empty_antijoin_is_plain () =
  let g = hand_graph () in
  let plainq = eok g "MATCH (x)-[a]->(y) IN [0, 9]" in
  (* label c exists in the vocabulary but matches no edge: the antijoin
     subtracts nothing and must equal the plain join exactly *)
  let eq = eok g "MATCH (x)-[a]->(y) NOT (y)-[c]->() IN [0, 9]" in
  check_rs "NOT over an unmatched label = plain join"
    (Naive.evaluate_ext g plainq)
    (Naive.evaluate_ext g eq);
  check_all_methods "empty antijoin" g eq

let test_semijoin_intersects () =
  let g = hand_graph () in
  let e0 = eid g 0 1 in
  let eq = eok g "MATCH (x)-[a]->(y) EXISTS (y)-[b]->() IN [0, 9]" in
  check_rs "lifespan intersected with the witness union"
    [ Match_result.make [| e0 |] (I.make 3 5) ]
    (Naive.evaluate_ext g eq);
  check_all_methods "semijoin" g eq;
  (* a witness nothing matches empties the whole result *)
  let none = eok g "MATCH (x)-[a]->(y) EXISTS (y)-[c]->() IN [0, 9]" in
  check_rs "EXISTS over an unmatched label is empty" []
    (Naive.evaluate_ext g none);
  check_all_methods "empty semijoin" g none

(* ---- Allen endpoint conventions ---- *)

(* e0/e1 share exactly tick 5 (OVERLAPS under closed intervals); e2/e3
   are adjacent (4+1 = 5, MEETS) so they have no common lifespan and the
   clique semantics already excludes the pair *)
let allen_graph () =
  Tgraph.Graph.of_edge_list
    ~labels:(Tgraph.Label.of_names [| "a"; "b" |])
    [ (0, 1, 0, 0, 5); (1, 2, 1, 5, 9); (3, 4, 0, 0, 4); (4, 5, 1, 5, 9) ]

let test_classify_conventions () =
  let c a b = Allen.to_string (Allen.classify a b) in
  Alcotest.(check string)
    "one shared tick is overlaps" "overlaps"
    (c (I.make 0 5) (I.make 5 9));
  Alcotest.(check string)
    "adjacent (te+1 = ts) is meets" "meets"
    (c (I.make 0 4) (I.make 5 9));
  Alcotest.(check string)
    "a one-tick gap is before" "before"
    (c (I.make 0 3) (I.make 5 9));
  Alcotest.(check string)
    "shared tick reversed is overlapped-by" "overlapped-by"
    (c (I.make 5 9) (I.make 0 5));
  Alcotest.(check string)
    "adjacency reversed is met-by" "met-by"
    (c (I.make 5 9) (I.make 0 4))

let test_allen_filters () =
  let g = allen_graph () in
  let e0 = eid g 0 1 and e1 = eid g 1 2 in
  let touching = [ Match_result.make [| e0; e1 |] (I.make 5 5) ] in
  let q s = eok g ("MATCH (x)-[a0: a]->(y)-[a1: b]->(z)" ^ s ^ " IN [0, 9]") in
  check_rs "only the tick-sharing pair forms a clique" touching
    (Naive.evaluate_ext g (q ""));
  check_rs "OVERLAPS keeps the single shared tick" touching
    (Naive.evaluate_ext g (q " WHERE a0 OVERLAPS a1"));
  check_rs "MEETS finds nothing: adjacent edges are not a clique" []
    (Naive.evaluate_ext g (q " WHERE a0 MEETS a1"));
  check_rs "BEFORE finds nothing either" []
    (Naive.evaluate_ext g (q " WHERE a0 BEFORE a1"));
  check_rs "the inverse form keeps the same match" touching
    (Naive.evaluate_ext g (q " WHERE a1 OVERLAPPED_BY a0"));
  List.iter
    (fun s -> check_all_methods ("allen" ^ s) g (q s))
    [
      "";
      " WHERE a0 OVERLAPS a1";
      " WHERE a0 MEETS a1";
      " WHERE a0 BEFORE a1";
      " WHERE a1 OVERLAPPED_BY a0";
    ]

(* ---- aggregates ---- *)

(* the test's own durability top-k: sort the whole list, take k *)
let sort_top_k ~k ms =
  let longer a b =
    let c = Int.compare (Match_result.durability b) (Match_result.durability a) in
    if c <> 0 then c else Match_result.compare a b
  in
  List.filteri (fun i _ -> i < k) (List.sort longer ms)

let test_aggregates () =
  let g = hand_graph () in
  let base = Naive.evaluate_ext g (eok g "MATCH (x)-[a]->(y) IN [0, 9]") in
  let engine = Workload.Engine.prepare g in
  let cq = eok g "MATCH (x)-[a]->(y) IN [0, 9] COUNT" in
  Alcotest.(check int) "naive count" (List.length base)
    (List.length (Naive.evaluate_ext g cq));
  let tq = eok g "MATCH (x)-[a]->(y) IN [0, 9] TOP 1" in
  (* a COUNT query reports the number of streamed pieces: for every
     shape (plain, TOP k, decorated) that equals the collected result *)
  List.iter
    (fun (name, eq, expected) ->
      Array.iter
        (fun m ->
          List.iter
            (fun domains ->
              let n = List.length (Test_util.run_ext ~domains engine m eq) in
              let what =
                Printf.sprintf "%s %s domains %d"
                  (Workload.Engine.method_name m) name domains
              in
              Alcotest.(check int) (what ^ " count") expected n)
            [ 1; 3 ])
        Workload.Engine.all_methods)
    [
      ("COUNT", cq, List.length base);
      ("TOP 1", tq, 1);
      ( "NOT",
        eok g "MATCH (x)-[a]->(y) NOT (y)-[b]->() IN [0, 9] COUNT",
        3 );
      ( "EXISTS TOP 1",
        eok g "MATCH (x)-[a]->(y) EXISTS (y)-[b]->() IN [0, 9] TOP 1",
        1 );
    ];
  let expected = sort_top_k ~k:1 base in
  Alcotest.(check int) "top-1 selects one match" 1 (List.length expected);
  check_rs "naive TOP 1 = durability selection" expected
    (Naive.evaluate_ext g tq);
  Array.iter
    (fun m ->
      check_rs
        (Workload.Engine.method_name m ^ " TOP 1")
        expected
        (Test_util.run_ext engine m tq))
    Workload.Engine.all_methods;
  (* a run cut short by its budget emits none of the TOP k selection *)
  Array.iter
    (fun m ->
      let stats = Run_stats.create ~limits:(Run_stats.with_max_results 1) () in
      let n = ref 0 in
      match
        Workload.Engine.run_ext ~stats engine m tq ~emit:(fun _ -> incr n)
      with
      | () -> Alcotest.failf "%s: TOP 1 ran past a 1-result budget"
                (Workload.Engine.method_name m)
      | exception Run_stats.Limit_exceeded _ ->
          Alcotest.(check int)
            (Workload.Engine.method_name m ^ " truncated TOP 1 emits nothing")
            0 !n)
    Workload.Engine.all_methods

(* ---- per-family differential over random graphs ---- *)

let clause_of q lbl =
  {
    Equery.lbl;
    src = Equery.Var (Query.edge q 0).Query.src_var;
    dst = Equery.Any;
  }

let family_case name mk () =
  for seed = 0 to 7 do
    let g =
      Testkit.random_graph ~seed ~n_vertices:5 ~n_edges:30 ~n_labels:3
        ~domain:20 ~max_len:6 ()
    in
    let window = I.make 0 19 in
    let q =
      Testkit.random_query ~seed:((seed * 3) + 1) ~n_labels:3 ~max_edges:2
        ~window
    in
    check_all_methods (Printf.sprintf "%s seed %d" name seed) g (mk seed q)
  done

let anti_family seed q = Equery.with_anti (Equery.plain q) [ clause_of q (seed mod 3) ]
let semi_family seed q = Equery.with_semi (Equery.plain q) [ clause_of q (seed mod 3) ]

let allen_family seed q =
  if Query.n_edges q < 2 then Equery.plain q
  else
    Equery.with_allen (Equery.plain q)
      [ (0, Allen.all.(seed mod Array.length Allen.all), 1) ]

let top_family seed q = Equery.make ~agg:(Equery.Top (1 + (seed mod 3))) q

(* ---- properties ---- *)

(* the closed-interval conventions behind the operators: Before/Meets
   sit one tick apart, overlap agrees between the Allen classification,
   Interval, and Ivlset, and adjacency fuses in the interval sets *)
let prop_allen_conventions =
  QCheck.Test.make ~name:"closed-interval Allen conventions" ~count:500
    QCheck.(
      quad (int_range 0 40) (int_range 0 8) (int_range 0 40) (int_range 0 8))
    (fun (sa, la, sb, lb) ->
      let a = I.make sa (sa + la) and b = I.make sb (sb + lb) in
      let rel = Allen.classify a b in
      let sa' = Ivlset.of_interval a and sb' = Ivlset.of_interval b in
      let claim name cond =
        if not cond then
          QCheck.Test.fail_reportf "%s violated for [%d,%d] %s [%d,%d]" name
            (I.ts a) (I.te a) (Allen.to_string rel) (I.ts b) (I.te b)
      in
      claim "Before = strict gap" ((rel = Allen.Before) = (I.te a + 1 < I.ts b));
      claim "Meets = adjacency" ((rel = Allen.Meets) = (I.te a + 1 = I.ts b));
      claim "overlap agreement" (Allen.overlaps_in_time rel = I.overlaps a b);
      claim "intersection agreement"
        ((not (Ivlset.is_empty (Ivlset.inter sa' sb'))) = I.overlaps a b);
      claim "classify commutes with inverse"
        (Allen.classify b a = Allen.inverse rel);
      claim "union fuses unless a gap separates"
        (List.length (Ivlset.to_list (Ivlset.union sa' sb')) = 1
        = (rel <> Allen.Before && rel <> Allen.After));
      claim "difference empties exactly on containment"
        (Ivlset.is_empty (Ivlset.diff sa' sb')
        = List.mem rel [ Allen.Starts; Allen.During; Allen.Finishes; Allen.Equal ]);
      true)

let prop_render_roundtrip =
  QCheck.Test.make ~name:"render_ext / parse_and_compile_ext fixpoint"
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g =
        Testkit.random_graph ~seed ~n_vertices:5 ~n_edges:20 ~n_labels:3
          ~domain:20 ~max_len:6 ()
      in
      let eq =
        Testkit.random_equery ~seed:((seed * 5) + 2) ~n_labels:3 ~max_edges:3
          ~window:(I.make 0 19)
      in
      (* roundtripping renumbers variables by appearance, so the render
         of the reparse is the canonical form: it must be a true
         fixpoint, and the reparse must keep the same matches *)
      let reparse s =
        match Qlang.parse_and_compile_ext g s with
        | Ok eq -> eq
        | Error msg ->
            QCheck.Test.fail_reportf "reparse failed on %S: %s" s msg
      in
      let eq' = reparse (Qlang.render_ext g eq) in
      let s' = Qlang.render_ext g eq' in
      let s'' = Qlang.render_ext g (reparse s') in
      if not (String.equal s' s'') then
        QCheck.Test.fail_reportf "canonical form is not a fixpoint:\n%S\n%S" s'
          s'';
      if
        not
          (RS.equal
             (RS.of_list (Naive.evaluate_ext g eq))
             (RS.of_list (Naive.evaluate_ext g eq')))
      then QCheck.Test.fail_reportf "roundtrip changed the matches of %S" s';
      true)

let prop_differential =
  QCheck.Test.make ~name:"extended engines = naive oracle" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g =
        Testkit.random_graph ~seed ~n_vertices:5 ~n_edges:25 ~n_labels:3
          ~domain:20 ~max_len:6 ()
      in
      let eq =
        Testkit.random_equery ~seed:((seed * 7) + 3) ~n_labels:3 ~max_edges:3
          ~window:(I.make 0 19)
      in
      let expected = RS.of_list (Naive.evaluate_ext g eq) in
      let engine = Workload.Engine.prepare g in
      Array.for_all
        (fun m ->
          let actual = RS.of_list (Test_util.run_ext engine m eq) in
          match RS.diff_summary ~expected ~actual with
          | None -> true
          | Some d ->
              QCheck.Test.fail_reportf "%s diverges from naive: %s"
                (Workload.Engine.method_name m) d)
        Workload.Engine.all_methods)

(* streaming TOP k through [run_ext] (a bounded heap fed per piece,
   from the serialized emit under [domains > 1]) equals sorting the
   whole aggregate-free naive result and taking k *)
let prop_streamed_top_k =
  QCheck.Test.make ~name:"streamed TOP k = sort-and-take" ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, k) ->
      let g =
        Testkit.random_graph ~seed ~n_vertices:5 ~n_edges:30 ~n_labels:3
          ~domain:20 ~max_len:6 ()
      in
      let q =
        Testkit.random_query ~seed:((seed * 3) + 1) ~n_labels:3 ~max_edges:3
          ~window:(I.make 0 19)
      in
      let engine = Workload.Engine.prepare g in
      List.for_all
        (fun (shape, eq) ->
          let expected = sort_top_k ~k (Naive.evaluate_ext g eq) in
          let eq = Equery.with_agg eq (Some (Equery.Top k)) in
          Array.for_all
            (fun m ->
              List.for_all
                (fun domains ->
                  List.equal Match_result.equal expected
                    (Test_util.run_ext ~domains engine m eq)
                  || QCheck.Test.fail_reportf "%s %s core, domains %d: TOP %d \
                                               differs from sort-and-take"
                       (Workload.Engine.method_name m) shape domains k)
                [ 1; 3 ])
            Workload.Engine.all_methods)
        [
          ("plain", Equery.plain q);
          ("NOT", anti_family seed q);
          ("EXISTS", semi_family seed q);
          ("Allen", allen_family seed q);
        ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "relops_ext"
    [
      ( "antijoin",
        [
          Alcotest.test_case "subtracts matched intervals" `Quick
            test_antijoin_subtracts;
          Alcotest.test_case "empty antijoin = plain join" `Quick
            test_empty_antijoin_is_plain;
          Alcotest.test_case "differential" `Quick
            (family_case "antijoin" anti_family);
        ] );
      ( "semijoin",
        [
          Alcotest.test_case "intersects witness union" `Quick
            test_semijoin_intersects;
          Alcotest.test_case "differential" `Quick
            (family_case "semijoin" semi_family);
        ] );
      ( "allen",
        [
          Alcotest.test_case "classify endpoint conventions" `Quick
            test_classify_conventions;
          Alcotest.test_case "meets vs overlaps off by one" `Quick
            test_allen_filters;
          Alcotest.test_case "differential" `Quick
            (family_case "allen" allen_family);
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "COUNT and TOP k" `Quick test_aggregates;
          Alcotest.test_case "differential" `Quick
            (family_case "top" top_family);
        ]
        @ qsuite [ prop_streamed_top_k ] );
      ( "properties",
        qsuite
          [ prop_allen_conventions; prop_render_roundtrip; prop_differential ]
      );
    ]
