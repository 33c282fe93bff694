(* Tests for the start-time index (STI) that the TIME baseline scans:
   range bounds over dead prefixes and gaps, and window enumeration
   cross-checked against brute force. *)

open Temporal

let items_of l =
  Array.of_list
    (List.map (fun (id, a, b) -> Span_item.make id (Interval.make a b)) l)

let rel l = Relation.of_items (items_of l)

let gen_rel =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (pair (int_range 0 50) (int_range 0 10) >|= fun (s, d) -> (s, s + d)))

(* ---------- STI ---------- *)

let test_sti_scan_range_skips () =
  (* Relation: [0,2] [1,9] [3,4] [12,14]. Window [8,13]: eC(8) = 1, so the
     scan starts at the edge starting at 1 (index 1), skipping [0,2]. *)
  let r = rel [ (0, 0, 2); (1, 1, 9); (2, 3, 4); (3, 12, 14) ] in
  let sti = Sti.build r in
  let start, stop = Sti.scan_range sti ~ws:8 ~we:13 in
  Alcotest.(check int) "start skips dead prefix" 1 start;
  Alcotest.(check int) "stop after last in-window start" 4 stop

let test_sti_scan_range_gap () =
  (* Nothing alive at ws: scan starts at the first later edge. *)
  let r = rel [ (0, 0, 2); (1, 10, 11) ] in
  let sti = Sti.build r in
  let start, stop = Sti.scan_range sti ~ws:5 ~we:20 in
  Alcotest.(check int) "start" 1 start;
  Alcotest.(check int) "stop" 2 stop

let test_sti_dead_relation () =
  let r = rel [ (0, 0, 2) ] in
  let sti = Sti.build r in
  let start, stop = Sti.scan_range sti ~ws:5 ~we:20 in
  Alcotest.(check int) "empty range" 0 (stop - start)

let brute_window items ~ws ~we =
  Array.to_list items
  |> List.filter (fun it -> Interval.overlaps_window (Span_item.ivl it) ~ws ~we)
  |> List.map Span_item.id
  |> List.sort compare

let prop_sti_enum_window =
  QCheck.Test.make ~name:"STI window enumeration = brute" ~count:300
    QCheck.(pair (make gen_rel) (pair (int_range 0 50) (int_range 0 20)))
    (fun (spans, (ws, width)) ->
      let items = items_of (List.mapi (fun i (a, b) -> (i, a, b)) spans) in
      Span_item.sort_by_start items;
      let sti = Sti.build (Relation.of_sorted items) in
      let we = ws + width in
      let acc = ref [] in
      let _ = Sti.enum_window sti ~ws ~we ~f:(fun it -> acc := Span_item.id it :: !acc) in
      List.sort compare !acc = brute_window items ~ws ~we)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "sti"
    [
      ( "sti",
        [
          Alcotest.test_case "scan_range skips dead prefix" `Quick test_sti_scan_range_skips;
          Alcotest.test_case "scan_range over gap" `Quick test_sti_scan_range_gap;
          Alcotest.test_case "dead relation" `Quick test_sti_dead_relation;
        ] );
      qsuite "sti-properties" [ prop_sti_enum_window ];
    ]
