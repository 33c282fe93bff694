(* Tests for LFTO (Algorithm 1) and its optimized variant (Algorithms
   2-4): brute-force ground truth, equivalence across every optimization
   flag combination, and the skip behaviours on the paper-shaped
   fixture. *)

open Tcsq_core
open Tgraph

let interval = Alcotest.testable Temporal.Interval.pp Temporal.Interval.equal

(* Build a TSR (with coverage) from (id, ts, te) triples; ids must be
   distinct across TSRs of one test. *)
let tsr_of triples =
  let edges =
    Array.of_list
      (List.map
         (fun (id, ts, te) ->
           Edge.make ~id ~src:0 ~dst:id ~lbl:0 (Temporal.Interval.make ts te))
         triples)
  in
  Array.sort Edge.compare_by_start edges;
  let coverage = Temporal.Coverage.build (Array.map Edge.to_span edges) in
  Tsr.make ~coverage (Triejoin.Slice.full edges)

let collect_basic tsrs ~ws ~we =
  let acc = ref [] in
  Lfto.run ~tsrs ~ws ~we
    ~emit:(fun members life ->
      acc := (Array.to_list (Array.map Edge.id members), life) :: !acc)
    ();
  List.sort compare !acc

let collect_opt config tsrs ~ws ~we =
  let acc = ref [] in
  Lfto_opt.run ~config ~tsrs ~ws ~we
    ~emit:(fun members life ->
      acc := (Array.to_list (Array.map Edge.id members), life) :: !acc)
    ();
  List.sort compare !acc

let brute tsrs ~ws ~we =
  let k = Array.length tsrs in
  let acc = ref [] in
  let rec go i chosen life =
    if i = k then acc := (List.rev chosen, Option.get life) :: !acc
    else
      Tsr.iter
        (fun e ->
          if Temporal.Interval.overlaps_window (Edge.ivl e) ~ws ~we then
            let life' =
              match life with
              | None -> Some (Edge.ivl e)
              | Some l -> Temporal.Interval.intersect l (Edge.ivl e)
            in
            match life' with
            | Some _ -> go (i + 1) (Edge.id e :: chosen) life'
            | None -> ())
        tsrs.(i)
  in
  go 0 [] None;
  List.sort compare !acc

let all_configs =
  [
    Lfto_opt.all_off;
    { Lfto_opt.use_eci = true; use_del_skip = false; use_lazy = false };
    { Lfto_opt.use_eci = false; use_del_skip = true; use_lazy = false };
    { Lfto_opt.use_eci = false; use_del_skip = false; use_lazy = true };
    { Lfto_opt.use_eci = true; use_del_skip = true; use_lazy = false };
    { Lfto_opt.use_eci = true; use_del_skip = false; use_lazy = true };
    { Lfto_opt.use_eci = false; use_del_skip = true; use_lazy = true };
    Lfto_opt.all_on;
  ]

(* The G1-shaped fixture of the paper's running example: three TSRs, one
   produced match (e4, e8, e12, [15, 15]) in window [10, 20]. *)
let g1_r1 = [ (1, 0, 5); (2, 6, 9); (3, 11, 12); (4, 13, 15); (5, 18, 19) ]
let g1_r2 = [ (6, 2, 4); (7, 7, 10); (8, 13, 15); (9, 17, 18); (10, 19, 20) ]
let g1_r3 = [ (11, 3, 6); (12, 15, 16) ]
let g1_tsrs () = [| tsr_of g1_r1; tsr_of g1_r2; tsr_of g1_r3 |]

let test_basic_paper_example () =
  match collect_basic (g1_tsrs ()) ~ws:10 ~we:20 with
  | [ (ids, life) ] ->
      Alcotest.(check (list int)) "members" [ 4; 8; 12 ] ids;
      Alcotest.check interval "lifespan" (Temporal.Interval.make 15 15) life
  | other -> Alcotest.failf "expected exactly one match, got %d" (List.length other)

let test_basic_matches_brute () =
  let tsrs = g1_tsrs () in
  Alcotest.(check bool) "equal" true
    (collect_basic tsrs ~ws:10 ~we:20 = brute tsrs ~ws:10 ~we:20)

let test_opt_all_configs_paper_example () =
  let expected = collect_basic (g1_tsrs ()) ~ws:10 ~we:20 in
  List.iteri
    (fun i config ->
      Alcotest.(check bool)
        (Printf.sprintf "config %d equals basic" i)
        true
        (collect_opt config (g1_tsrs ()) ~ws:10 ~we:20 = expected))
    all_configs

let test_optimize_start_point_skips_backward () =
  (* Algorithm 2 on the fixture: all three scanners should start at the
     earliest concurrent of the first jointly-covered time >= 10, i.e.
     at e4 (13), e8 (13), e12 (15), skipping e1, e6, e11, e2, e7, e3. *)
  match Lfto_opt.optimize_start_point (g1_tsrs ()) ~ws:10 with
  | None -> Alcotest.fail "expected a start point"
  | Some starts ->
      Alcotest.(check (array int)) "start times" [| 13; 13; 15 |] starts

let test_optimize_start_point_none () =
  (* relations die out before the window: provably no match *)
  let tsrs = [| tsr_of [ (1, 0, 5) ]; tsr_of [ (2, 0, 9) ] |] in
  Alcotest.(check bool) "no start point" true
    (Lfto_opt.optimize_start_point tsrs ~ws:50 = None)

let test_opt_scans_fewer_edges () =
  let scanned config =
    let stats = Semantics.Run_stats.create () in
    Lfto_opt.run ~stats ~config ~tsrs:(g1_tsrs ()) ~ws:10 ~we:20
      ~emit:(fun _ _ -> ())
      ();
    stats.Semantics.Run_stats.scanned
  in
  let baseline = scanned Lfto_opt.all_off in
  let optimized = scanned Lfto_opt.all_on in
  Alcotest.(check int) "baseline scans all 12 edges" 12 baseline;
  (* ECI skips the 6 backward edges; delSkip cuts forward edges (e10). *)
  Alcotest.(check bool)
    (Printf.sprintf "optimized scans fewer (%d < %d)" optimized baseline)
    true (optimized < baseline);
  Alcotest.(check bool) "optimized scans at most 5" true (optimized <= 5)

let test_del_skip_aborts () =
  (* With only the forward cut on: the sweep stops once relation 3 is
     exhausted and its active list empties. *)
  let events = ref [] in
  let config = { Lfto_opt.use_eci = false; use_del_skip = true; use_lazy = true } in
  Lfto_opt.run ~config
    ~trace:(fun ev -> events := ev :: !events)
    ~tsrs:(g1_tsrs ()) ~ws:10 ~we:20
    ~emit:(fun _ _ -> ())
    ();
  Alcotest.(check bool) "sweep aborted" true
    (List.exists (function Lfto.Sweep_aborted -> true | _ -> false) !events)

let test_window_straddlers_only () =
  (* all edges start before the window but live into it: the transition
     flush must still produce the combination *)
  let tsrs = [| tsr_of [ (1, 0, 12) ]; tsr_of [ (2, 3, 15) ] |] in
  let expected = [ ([ 1; 2 ], Temporal.Interval.make 3 12) ] in
  Alcotest.(check bool) "basic" true (collect_basic tsrs ~ws:10 ~we:20 = expected);
  List.iter
    (fun config ->
      Alcotest.(check bool) "optimized" true
        (collect_opt config tsrs ~ws:10 ~we:20 = expected))
    all_configs

let test_single_relation () =
  let tsrs = [| tsr_of [ (1, 0, 5); (2, 8, 12); (3, 30, 31) ] |] in
  let got = collect_basic tsrs ~ws:10 ~we:20 in
  Alcotest.(check bool) "singleton combos" true
    (got = [ ([ 2 ], Temporal.Interval.make 8 12) ])

let test_empty_relation () =
  let tsrs = [| tsr_of [ (1, 0, 5) ]; Tsr.empty |] in
  Alcotest.(check (list (pair (list int) interval)))
    "no combos" [] (collect_basic tsrs ~ws:0 ~we:10);
  List.iter
    (fun config ->
      Alcotest.(check (list (pair (list int) interval)))
        "no combos opt" []
        (collect_opt config tsrs ~ws:0 ~we:10))
    all_configs

(* ---------- randomized equivalence ---------- *)

let gen_tsr_spans =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (pair (int_range 0 40) (int_range 0 10) >|= fun (s, d) -> (s, s + d)))

let arb_case =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 1 4) gen_tsr_spans)
        (pair (int_range 0 35) (int_range 0 15)))
    ~print:(fun (rels, (ws, width)) ->
      let s l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) l) in
      Printf.sprintf "%s @ [%d,%d]" (String.concat " | " (List.map s rels)) ws (ws + width))

let make_case (rels, (ws, width)) =
  let next = ref 0 in
  let tsrs =
    Array.of_list
      (List.map
         (fun spans ->
           tsr_of
             (List.map
                (fun (a, b) ->
                  incr next;
                  (!next, a, b))
                spans))
         rels)
  in
  (tsrs, ws, ws + width)

let prop_basic_matches_brute =
  QCheck.Test.make ~name:"LFTO basic = brute force" ~count:400 arb_case
    (fun case ->
      let tsrs, ws, we = make_case case in
      collect_basic tsrs ~ws ~we = brute tsrs ~ws ~we)

let prop_opt_matches_basic =
  QCheck.Test.make ~name:"optimized LFTO = basic (all flag combos)"
    ~count:250 arb_case (fun case ->
      let tsrs, ws, we = make_case case in
      let expected = collect_basic tsrs ~ws ~we in
      List.for_all
        (fun config -> collect_opt config tsrs ~ws ~we = expected)
        all_configs)

(* ---------- the one-relation sweep ---------- *)

(* One relation's edges as (ts, te) pairs around the window start [ws]:
   free spans, spans ending at [ws - 1] or [ws], spans starting at
   [ws], and repeated starts (equal-start batches). *)
let gen_one_case =
  QCheck.Gen.(
    int_range 0 45 >>= fun ws ->
    let span =
      frequency
        [
          (3, pair (int_range 0 40) (int_range 0 10) >|= fun (s, d) -> (s, s + d));
          (1, int_range 0 5 >|= fun d -> (ws - 1 - d, ws - 1));
          (1, int_range 0 5 >|= fun d -> (ws - d, ws));
          (1, int_range 0 5 >|= fun d -> (ws, ws + d));
        ]
    in
    let spans =
      list_size (int_range 0 14) span >>= fun spans ->
      (* repeat some starts with other ends *)
      list_size (int_range 0 4) (pair (int_range 0 40) (int_range 0 6))
      >|= fun extra ->
      match spans with
      | [] -> spans
      | _ ->
          spans
          @ List.map
              (fun (pick, d) ->
                let s, _ = List.nth spans (pick mod List.length spans) in
                (s, s + d))
              extra
    in
    quad spans (return ws) (int_range 0 10) bool)

let arb_one_case =
  QCheck.make gen_one_case ~print:(fun (spans, ws, width, coverage) ->
      Printf.sprintf "%s @ [%d,%d]%s"
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) spans))
        ws (ws + width)
        (if coverage then " with coverage" else ""))

let one_tsr spans ~coverage =
  let edges =
    Array.of_list
      (List.mapi
         (fun id (ts, te) ->
           Edge.make ~id ~src:0 ~dst:id ~lbl:0 (Temporal.Interval.make ts te))
         spans)
  in
  Array.sort Edge.compare_by_start edges;
  if coverage then
    Tsr.make
      ~coverage:(Temporal.Coverage.build (Array.map Edge.to_span edges))
      (Triejoin.Slice.full edges)
  else Tsr.make (Triejoin.Slice.full edges)

exception Stop_emit

(* A one-relation run: every emit as (ids, life, counters at the emit),
   in order, then the counters at the end. A no-op [trace] forces the
   general sweep. [stop_after n] raises from the n-th emit. *)
let one_run ?ctx ~general ?(stop_after = max_int) config tsr ~ws ~we =
  let stats = Semantics.Run_stats.create () in
  let acc = ref [] in
  let trace = if general then Some (fun (_ : Lfto.trace_event) -> ()) else None in
  (try
     Lfto_opt.run ~stats ?trace ?ctx ~config ~tsrs:[| tsr |] ~ws ~we
       ~emit:(fun members life ->
         acc :=
           ( Array.to_list (Array.map Edge.id members),
             life,
             Semantics.Run_stats.counters stats )
           :: !acc;
         if List.length !acc >= stop_after then raise Stop_emit)
       ()
   with Stop_emit -> ());
  (List.rev !acc, Semantics.Run_stats.counters stats)

let prop_one_relation_sweep =
  QCheck.Test.make ~name:"one-relation sweep = general sweep" ~count:400
    arb_one_case (fun (spans, ws, width, coverage) ->
      let tsr = one_tsr spans ~coverage and we = ws + width in
      let ctx = Lfto_opt.create_context () in
      List.for_all
        (fun config ->
          let ((emits, final) as general) =
            one_run ~general:true config tsr ~ws ~we
          in
          let n = List.length emits in
          one_run ~ctx ~general:false config tsr ~ws ~we = general
          (* stopped from [emit] after each number of calls *)
          && List.for_all
               (fun stop_after ->
                 one_run ~ctx ~general:false ~stop_after config tsr ~ws ~we
                 = one_run ~general:true ~stop_after config tsr ~ws ~we)
               (List.init n (fun i -> i + 1))
          (* [count] is the same pass without emit *)
          &&
          let stats = Semantics.Run_stats.create () in
          Lfto_opt.count ~stats ~ctx ~config ~tsrs:[| tsr |] ~ws ~we
            ~max_count:max_int ()
          = Some n
          && Semantics.Run_stats.counters stats = final)
        all_configs)

(* The one-relation sweep allocates nothing per edge: with [emit]
   ignored, a warm context makes the same minor words on 1K and 10K
   edges, a quarter of them starting before the window and half of
   those still alive at its start. *)
let test_one_relation_allocation () =
  let minor_words n =
    let edges =
      Array.init n (fun id ->
          let ts = id / 2 in
          let te = if id mod 4 = 0 then ts + (n / 4) else ts + (id mod 3) in
          Edge.make ~id ~src:0 ~dst:id ~lbl:0 (Temporal.Interval.make ts te))
    in
    Array.sort Edge.compare_by_start edges;
    let tsr =
      Tsr.make
        ~coverage:(Temporal.Coverage.build (Array.map Edge.to_span edges))
        (Triejoin.Slice.full edges)
    in
    let ctx = Lfto_opt.create_context () in
    let stats = Semantics.Run_stats.create () in
    let emit _ _ = () in
    let ws = n / 8 and we = n in
    let go () =
      Lfto_opt.run ~stats ~ctx ~config:Lfto_opt.all_on ~tsrs:[| tsr |] ~ws ~we
        ~emit ()
    in
    go ();
    let before = Gc.minor_words () in
    go ();
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%d edges emitted" n)
      true
      (stats.Semantics.Run_stats.enum_steps > n / 2);
    words
  in
  let small = minor_words 1_000 and large = minor_words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "1K edges %.0f words, 10K edges %.0f words" small large)
    true
    (Float.abs (large -. small) <= 64.0)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lfto"
    [
      ( "basic",
        [
          Alcotest.test_case "paper example" `Quick test_basic_paper_example;
          Alcotest.test_case "matches brute force" `Quick test_basic_matches_brute;
          Alcotest.test_case "single relation" `Quick test_single_relation;
          Alcotest.test_case "empty relation" `Quick test_empty_relation;
        ] );
      ( "optimized",
        [
          Alcotest.test_case "all configs on paper example" `Quick
            test_opt_all_configs_paper_example;
          Alcotest.test_case "Algorithm 2 skips backward edges" `Quick
            test_optimize_start_point_skips_backward;
          Alcotest.test_case "Algorithm 2 proves emptiness" `Quick
            test_optimize_start_point_none;
          Alcotest.test_case "scans fewer edges" `Quick test_opt_scans_fewer_edges;
          Alcotest.test_case "delSkip aborts" `Quick test_del_skip_aborts;
          Alcotest.test_case "window straddlers" `Quick test_window_straddlers_only;
          Alcotest.test_case "one-relation sweep allocates nothing per edge"
            `Quick test_one_relation_allocation;
        ] );
      qsuite "properties"
        [
          prop_basic_matches_brute;
          prop_opt_matches_basic;
          prop_one_relation_sweep;
        ];
    ]
