(* Tests for Allen's interval algebra over closed integer intervals. *)

open Temporal

let interval a b = Interval.make a b

(* ---------- Allen relations ---------- *)

let test_allen_examples () =
  let check name expected a b =
    Alcotest.(check string)
      name
      (Allen.to_string expected)
      (Allen.to_string (Allen.classify a b))
  in
  check "before" Allen.Before (interval 1 3) (interval 5 9);
  check "meets (adjacent ticks)" Allen.Meets (interval 1 3) (interval 4 9);
  check "overlaps" Allen.Overlaps (interval 1 5) (interval 3 9);
  check "starts" Allen.Starts (interval 1 3) (interval 1 9);
  check "during" Allen.During (interval 3 5) (interval 1 9);
  check "finishes" Allen.Finishes (interval 5 9) (interval 1 9);
  check "equal" Allen.Equal (interval 2 4) (interval 2 4);
  check "contains" Allen.Contains (interval 1 9) (interval 3 5);
  check "after" Allen.After (interval 8 9) (interval 1 3);
  check "met-by" Allen.Met_by (interval 4 9) (interval 1 3);
  (* shared single tick is an overlap for closed integer intervals *)
  check "shared endpoint overlaps" Allen.Overlaps (interval 1 3) (interval 3 9)

let arb_interval_pair =
  QCheck.make
    QCheck.Gen.(
      quad (int_range 0 20) (int_range 0 8) (int_range 0 20) (int_range 0 8))
    ~print:(fun (a, da, b, db) ->
      Printf.sprintf "[%d,%d] vs [%d,%d]" a (a + da) b (b + db))

let prop_allen_unique =
  QCheck.Test.make ~name:"exactly one Allen relation holds" ~count:500
    arb_interval_pair (fun (a, da, b, db) ->
      let x = interval a (a + da) and y = interval b (b + db) in
      let rel = Allen.classify x y in
      (* the classification is a function, so uniqueness means: the
         inverse classification matches, and the overlap predicate agrees
         with Interval.overlaps *)
      Allen.classify y x = Allen.inverse rel
      && Allen.overlaps_in_time rel = Interval.overlaps x y)

let prop_allen_inverse_involution =
  QCheck.Test.make ~name:"inverse is an involution" ~count:1
    QCheck.unit (fun () ->
      Array.for_all (fun r -> Allen.inverse (Allen.inverse r) = r) Allen.all)

let test_allen_all_reachable () =
  (* every one of the 13 relations is produced by some pair *)
  let seen = Hashtbl.create 13 in
  for a = 0 to 6 do
    for da = 0 to 4 do
      for b = 0 to 6 do
        for db = 0 to 4 do
          Hashtbl.replace seen
            (Allen.classify (interval a (a + da)) (interval b (b + db)))
            ()
        done
      done
    done
  done;
  Alcotest.(check int) "13 relations" 13 (Hashtbl.length seen)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "temporal_extra"
    [
      ( "allen",
        [
          Alcotest.test_case "examples" `Quick test_allen_examples;
          Alcotest.test_case "all 13 reachable" `Quick test_allen_all_reachable;
        ] );
      qsuite "allen-properties" [ prop_allen_unique; prop_allen_inverse_involution ];
    ]
