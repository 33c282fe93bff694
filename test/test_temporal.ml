(* Unit and property tests for the temporal substrate: Interval,
   Span_item, Vec, Min_heap, Relation, Coverage. *)

open Temporal

let interval = Alcotest.testable Interval.pp Interval.equal

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

(* ---------- Interval ---------- *)

let test_interval_make () =
  let i = Interval.make 3 7 in
  Alcotest.(check int) "ts" 3 (Interval.ts i);
  Alcotest.(check int) "te" 7 (Interval.te i);
  Alcotest.(check int) "length" 5 (Interval.length i);
  check_invalid "te < ts rejected" (fun () -> ignore (Interval.make 5 4));
  Alcotest.(check (option interval))
    "make_opt empty" None (Interval.make_opt 5 4);
  Alcotest.(check (option interval))
    "make_opt ok"
    (Some (Interval.make 4 5))
    (Interval.make_opt 4 5)

let test_interval_point () =
  let p = Interval.point 9 in
  Alcotest.(check int) "length 1" 1 (Interval.length p);
  Alcotest.(check bool) "contains" true (Interval.contains p 9);
  Alcotest.(check bool) "not contains" false (Interval.contains p 8)

let test_interval_overlap () =
  let a = Interval.make 1 5 and b = Interval.make 5 9 and c = Interval.make 6 9 in
  Alcotest.(check bool) "closed endpoints touch" true (Interval.overlaps a b);
  Alcotest.(check bool) "disjoint" false (Interval.overlaps a c);
  Alcotest.(check bool) "window" true (Interval.overlaps_window a ~ws:5 ~we:100);
  Alcotest.(check bool) "window miss" false (Interval.overlaps_window a ~ws:6 ~we:100)

let test_interval_intersect () =
  let a = Interval.make 1 5 and b = Interval.make 3 9 in
  Alcotest.(check (option interval))
    "intersect" (Some (Interval.make 3 5)) (Interval.intersect a b);
  Alcotest.(check (option interval))
    "disjoint" None
    (Interval.intersect a (Interval.make 6 7));
  Alcotest.check interval "intersect_exn" (Interval.make 3 5)
    (Interval.intersect_exn a b);
  check_invalid "intersect_exn disjoint" (fun () ->
      ignore (Interval.intersect_exn a (Interval.make 6 7)))

let test_interval_span_before () =
  let a = Interval.make 1 3 and b = Interval.make 7 9 in
  Alcotest.check interval "span" (Interval.make 1 9) (Interval.span a b);
  Alcotest.(check bool) "before" true (Interval.before a b);
  Alcotest.(check bool) "not before" false (Interval.before b a);
  Alcotest.(check bool) "touching not before"
    false
    (Interval.before (Interval.make 1 7) b)

let test_interval_compare () =
  let sorted =
    List.sort Interval.compare
      [ Interval.make 3 4; Interval.make 1 9; Interval.make 1 2 ]
  in
  Alcotest.(check (list interval))
    "start then end"
    [ Interval.make 1 2; Interval.make 1 9; Interval.make 3 4 ]
    sorted

(* property: intersect is the largest interval contained in both *)
let prop_intersect_sound =
  QCheck.Test.make ~name:"intersect sound and commutative" ~count:500
    QCheck.(quad small_int small_nat small_int small_nat)
    (fun (a, da, b, db) ->
      let x = Interval.make a (a + da) and y = Interval.make b (b + db) in
      match (Interval.intersect x y, Interval.intersect y x) with
      | None, None -> not (Interval.overlaps x y)
      | Some i, Some j ->
          Interval.equal i j
          && Interval.ts i = max (Interval.ts x) (Interval.ts y)
          && Interval.te i = min (Interval.te x) (Interval.te y)
      | Some _, None | None, Some _ -> false)

(* ---------- Vec ---------- *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop_exn v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  check_invalid "oob get" (fun () -> ignore (Vec.get v 99))

let test_vec_insert_sorted () =
  let v = Vec.create () in
  List.iter (Vec.insert_sorted ~cmp:Int.compare v) [ 5; 1; 9; 3; 7; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5; 7; 9 ] (Vec.to_list v)

let test_vec_remove_prefix () =
  let v = Vec.of_list [ 1; 2; 3; 10; 2 ] in
  let n = Vec.remove_prefix (fun x -> x < 5) v in
  Alcotest.(check int) "removed" 3 n;
  Alcotest.(check (list int)) "rest" [ 10; 2 ] (Vec.to_list v)

let test_vec_filter_in_place () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let n = Vec.filter_in_place (fun x -> x mod 2 = 0) v in
  Alcotest.(check int) "removed" 3 n;
  Alcotest.(check (list int)) "kept in order" [ 2; 4; 6 ] (Vec.to_list v)

let prop_vec_insert_sorted =
  QCheck.Test.make ~name:"insert_sorted keeps order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.insert_sorted ~cmp:Int.compare v) xs;
      Vec.to_list v = List.sort Int.compare xs)

(* ---------- Min_heap ---------- *)

let test_heap_order () =
  let h = Min_heap.create ~cmp:Int.compare () in
  List.iter (Min_heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Min_heap.pop h with
    | Some x ->
        out := x :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Min_heap.create ~cmp:Int.compare () in
      List.iter (Min_heap.push h) xs;
      let rec drain acc =
        match Min_heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort Int.compare xs)

(* ---------- Span_item / Relation ---------- *)

let items_of l = Array.of_list (List.map (fun (id, a, b) -> Span_item.make id (Interval.make a b)) l)

let test_relation_sorting () =
  let r = Relation.of_items (items_of [ (1, 5, 9); (2, 1, 3); (3, 1, 2) ]) in
  Alcotest.(check (list int))
    "sorted ids" [ 3; 2; 1 ]
    (List.map Span_item.id (Array.to_list (Relation.items r)))

let test_relation_bounds () =
  let r = Relation.of_items (items_of [ (0, 1, 4); (1, 3, 5); (2, 3, 9); (3, 7, 8) ]) in
  Alcotest.(check int) "lower 3" 1 (Relation.lower_bound_start r 3);
  Alcotest.(check int) "upper 3" 3 (Relation.upper_bound_start r 3);
  Alcotest.(check int) "lower past end" 4 (Relation.lower_bound_start r 100);
  Alcotest.(check int) "lower before" 0 (Relation.lower_bound_start r (-5))

let test_relation_window_count () =
  let r = Relation.of_items (items_of [ (0, 1, 2); (1, 3, 5); (2, 8, 9) ]) in
  Alcotest.(check int) "count" 1 (Relation.count_window r ~ws:4 ~we:7);
  Alcotest.(check int) "all" 3 (Relation.count_window r ~ws:0 ~we:100)

let test_relation_of_sorted_rejects () =
  check_invalid "unsorted rejected" (fun () ->
      ignore (Relation.of_sorted (items_of [ (0, 5, 6); (1, 1, 2) ])))

(* ---------- Coverage ---------- *)

(* brute-force earliest concurrent *)
let brute_ec items t =
  Array.to_list items
  |> List.filter (fun it -> Interval.contains (Span_item.ivl it) t)
  |> List.map Span_item.ts
  |> function
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

let test_coverage_simple () =
  (* Fig. 6 flavour: one interval [0,5], so eC(t) = 0 on [0,5]. *)
  let items = items_of [ (0, 0, 5) ] in
  let c = Coverage.build items in
  Alcotest.(check int) "one tuple" 1 (Coverage.n_tuples c);
  let tup = Option.get (Coverage.get_coverage_tuple c 1) in
  Alcotest.(check int) "cs" 0 tup.Coverage.cs;
  Alcotest.(check int) "ce" 5 tup.Coverage.ce;
  Alcotest.(check int) "ec" 0 tup.Coverage.ec;
  Alcotest.(check (option int)) "eC(1)" (Some 0) (Coverage.earliest_concurrent c 1);
  Alcotest.(check (option int)) "gap" None (Coverage.earliest_concurrent c 6)

let test_coverage_chain () =
  (* [0,5], [3,8], [10,12]: eC = 0 on [0,5], 3 on [6,8], gap 9, 10 on
     [10,12]. *)
  let items = items_of [ (0, 0, 5); (1, 3, 8); (2, 10, 12) ] in
  let c = Coverage.build items in
  Alcotest.(check (option int)) "t=4" (Some 0) (Coverage.earliest_concurrent c 4);
  Alcotest.(check (option int)) "t=6" (Some 3) (Coverage.earliest_concurrent c 6);
  Alcotest.(check (option int)) "t=9" None (Coverage.earliest_concurrent c 9);
  Alcotest.(check (option int)) "t=10" (Some 10) (Coverage.earliest_concurrent c 10);
  (* getCoverageTuple falls forward to the next tuple on gaps *)
  let tup = Option.get (Coverage.get_coverage_tuple c 9) in
  Alcotest.(check int) "gap falls forward" 10 tup.Coverage.cs;
  Alcotest.(check (option Alcotest.reject)) "past the end"
    None
    (Coverage.get_coverage_tuple c 13);
  (* the accessor form gives the same tuples and checks start order *)
  let spans = [| (0, 5); (3, 8); (10, 12) |] in
  let of_run spans =
    Coverage.of_run (Array.length spans)
      ~ts:(fun i -> fst spans.(i))
      ~te:(fun i -> snd spans.(i))
  in
  Alcotest.(check bool) "of_run = build" true
    (Coverage.tuples (of_run spans) = Coverage.tuples c);
  Alcotest.check_raises "of_run rejects a decreasing start"
    (Invalid_argument "Coverage.of_run: not in start order") (fun () ->
      ignore (of_run [| (3, 8); (0, 5) |]))

let test_coverage_merges_runs () =
  (* Two intervals starting together: single earliest concurrent run. *)
  let items = items_of [ (0, 2, 4); (1, 2, 6) ] in
  let c = Coverage.build items in
  Alcotest.(check int) "merged" 1 (Coverage.n_tuples c)

(* no time follows [max_int], so a tuple ending there is the last one;
   [ce + 1] would wrap to [min_int] and restart the sweep *)
let test_coverage_ends_at_max_int () =
  let tuples spans =
    List.map
      (fun { Coverage.cs; ce; ec } -> (cs, ce, ec))
      (Array.to_list (Coverage.tuples (Coverage.build (items_of spans))))
  in
  let triple = Alcotest.(list (triple int int int)) in
  Alcotest.check triple "[0, max_int]" [ (0, max_int, 0) ]
    (tuples [ (0, 0, max_int) ]);
  Alcotest.check triple "[min_int, max_int]"
    [ (min_int, max_int, min_int) ]
    (tuples [ (0, min_int, max_int) ]);
  Alcotest.check triple "later items covered"
    [ (1, max_int, 1) ]
    (tuples [ (0, 1, max_int); (1, 3, 9); (2, 5, max_int) ]);
  Alcotest.check triple "after a gap"
    [ (0, 4, 0); (7, max_int, 7) ]
    (tuples [ (0, 0, 4); (1, 7, max_int) ])

let gen_items =
  QCheck.Gen.(
    list_size (int_range 0 25)
      (pair (int_range 0 40) (int_range 0 8) >|= fun (s, d) -> (s, s + d)))

let arb_items =
  QCheck.make gen_items ~print:(fun l ->
      String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) l))

let sorted_items spans =
  let items =
    Array.of_list (List.mapi (fun i (a, b) -> Span_item.make i (Interval.make a b)) spans)
  in
  Span_item.sort_by_start items;
  items

let prop_coverage_matches_brute =
  QCheck.Test.make ~name:"coverage = brute-force earliest concurrent"
    ~count:300 arb_items (fun spans ->
      let items = sorted_items spans in
      let c = Coverage.build items in
      let ok = ref true in
      for t = -2 to 55 do
        if Coverage.earliest_concurrent c t <> brute_ec items t then ok := false
      done;
      !ok)

let prop_coverage_tuples_sorted_disjoint =
  QCheck.Test.make ~name:"coverage tuples sorted, disjoint, ec <= cs"
    ~count:300 arb_items (fun spans ->
      let items = sorted_items spans in
      let tuples = Coverage.tuples (Coverage.build items) in
      let ok = ref true in
      Array.iteri
        (fun i { Coverage.cs; ce; ec } ->
          if not (cs <= ce && ec <= cs) then ok := false;
          if i > 0 && tuples.(i - 1).Coverage.ce >= cs then ok := false)
        tuples;
      !ok)

let prop_coverage_runs_maximal =
  QCheck.Test.make ~name:"coverage never splits a contiguous equal-ec run"
    ~count:300 arb_items (fun spans ->
      let tuples = Coverage.tuples (Coverage.build (sorted_items spans)) in
      let ok = ref true in
      for i = 1 to Array.length tuples - 1 do
        let prev = tuples.(i - 1) and cur = tuples.(i) in
        if prev.Coverage.ec = cur.Coverage.ec && prev.Coverage.ce + 1 = cur.Coverage.cs
        then ok := false
      done;
      !ok)

(* the tuple array the brute-force step function yields: maximal runs of
   consecutive timestamps with the same defined eC *)
let brute_tuples items ~lo ~hi =
  let out = ref [] in
  for t = lo to hi do
    match (brute_ec items t, !out) with
    | None, _ -> ()
    | Some ec, (cs, ce, ec') :: rest when ec = ec' && ce + 1 = t ->
        out := (cs, t, ec) :: rest
    | Some ec, acc -> out := (t, t, ec) :: acc
  done;
  List.rev !out

let prop_coverage_tuples_match_brute =
  QCheck.Test.make ~name:"coverage tuples = merged brute-force step function"
    ~count:300 arb_items (fun spans ->
      let items = sorted_items spans in
      let tuples =
        Array.to_list
          (Array.map
             (fun { Coverage.cs; ce; ec } -> (cs, ce, ec))
             (Coverage.tuples (Coverage.build items)))
      in
      tuples = brute_tuples items ~lo:(-2) ~hi:55)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "temporal"
    [
      ( "interval",
        [
          Alcotest.test_case "make / length" `Quick test_interval_make;
          Alcotest.test_case "point" `Quick test_interval_point;
          Alcotest.test_case "overlap" `Quick test_interval_overlap;
          Alcotest.test_case "intersect" `Quick test_interval_intersect;
          Alcotest.test_case "span / before" `Quick test_interval_span_before;
          Alcotest.test_case "compare orders" `Quick test_interval_compare;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push / get / pop" `Quick test_vec_basics;
          Alcotest.test_case "insert_sorted" `Quick test_vec_insert_sorted;
          Alcotest.test_case "remove_prefix" `Quick test_vec_remove_prefix;
          Alcotest.test_case "filter_in_place" `Quick test_vec_filter_in_place;
        ] );
      ( "min_heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
        ] );
      ( "relation",
        [
          Alcotest.test_case "of_items sorts" `Quick test_relation_sorting;
          Alcotest.test_case "binary search bounds" `Quick test_relation_bounds;
          Alcotest.test_case "count_window" `Quick test_relation_window_count;
          Alcotest.test_case "of_sorted validates" `Quick test_relation_of_sorted_rejects;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "single interval" `Quick test_coverage_simple;
          Alcotest.test_case "chained intervals and gap" `Quick test_coverage_chain;
          Alcotest.test_case "equal-ec runs merged" `Quick test_coverage_merges_runs;
          Alcotest.test_case "ends at max_int" `Quick
            test_coverage_ends_at_max_int;
        ] );
      qsuite "interval-properties" [ prop_intersect_sound ];
      qsuite "vec-properties" [ prop_vec_insert_sorted ];
      qsuite "heap-properties" [ prop_heap_sorts ];
      qsuite "coverage-properties"
        [
          prop_coverage_matches_brute;
          prop_coverage_tuples_sorted_disjoint;
          prop_coverage_runs_maximal;
          prop_coverage_tuples_match_brute;
        ];
    ]
