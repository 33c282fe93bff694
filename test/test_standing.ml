(* Standing-query tests: the subscription registry's delta pushes are
   checked against the oracle — at every ingest-batch boundary the
   accumulated deltas (initial snapshot + added - retracted) must equal
   a fresh re-query of the current graph — plus sliding-window
   retractions, multi-subscriber fan-out through one shared
   Multi_window group, and the end-to-end wire path (subscribe frame,
   pushed delta notifications, unsubscribe, label interning on
   ingest). *)

open Semantics
open Tcsq_server

module MS = Set.Make (struct
  type t = Match_result.t

  let compare = Match_result.compare
end)

let window a b = Temporal.Interval.make a b

let random_extra rng n ~n_vertices ~n_labels ~domain =
  List.init n (fun _ ->
      let ts = Random.State.int rng domain in
      ( Random.State.int rng n_vertices,
        Random.State.int rng n_vertices,
        Random.State.int rng n_labels,
        ts,
        min (domain - 1) (ts + Random.State.int rng 8) ))

(* a recording subscriber: accumulates the standing set exactly the way
   a wire client would, with sanity checks on every delta *)
let recorder () =
  let acc = ref MS.empty in
  let deltas = ref [] in
  let push (d : Subscription.delta) =
    let added = MS.of_list d.Subscription.added in
    let retracted = MS.of_list d.Subscription.retracted in
    if not (MS.is_empty (MS.inter added !acc)) then
      Alcotest.fail "delta re-added a standing match";
    if not (MS.subset retracted !acc) then
      Alcotest.fail "delta retracted a match that was not standing";
    acc := MS.diff (MS.union !acc added) retracted;
    if MS.cardinal !acc <> d.Subscription.total then
      Alcotest.failf "delta total %d but accumulated %d"
        d.Subscription.total (MS.cardinal !acc);
    deltas := d :: !deltas
  in
  (acc, deltas, push)

let check_acc ~msg acc expected =
  let expected = MS.of_list expected in
  if not (MS.equal !acc expected) then
    Alcotest.failf "%s: accumulated %d standing matches, fresh re-query %d"
      msg (MS.cardinal !acc) (MS.cardinal expected)

(* ---- delta oracle: accumulated deltas == fresh re-query ---- *)

let test_delta_oracle () =
  let g =
    Test_util.random_graph ~seed:7 ~n_vertices:5 ~n_edges:30 ~n_labels:3
      ~domain:30 ~max_len:8 ()
  in
  let inc = Tcsq_core.Incremental.of_tai ~merge_threshold:6 g (Tcsq_core.Tai.build g) in
  let subs = Subscription.create () in
  let engine0 =
    Workload.Engine.prepare_with_tai g (Tcsq_core.Incremental.tai inc)
  in
  let parse text =
    match Qlang.parse_and_compile_ext g text with
    | Ok eq -> eq
    | Error msg -> Alcotest.failf "parse %S: %s" text msg
  in
  let plain = parse "MATCH (x)-[l0]->(y)-[l1]->(z) IN [0, 29]" in
  let decorated = parse "MATCH (x)-[l0]->(y) NOT (y)-[l2]->(x) IN [0, 29]" in
  let acc_p, _, push_p = recorder () in
  let acc_d, _, push_d = recorder () in
  let _, _, init_p = Subscription.subscribe subs ~engine:engine0 ~push:push_p plain in
  let _, _, init_d =
    Subscription.subscribe subs ~engine:engine0 ~push:push_d decorated
  in
  acc_p := MS.of_list init_p;
  acc_d := MS.of_list init_d;
  check_acc ~msg:"plain snapshot" acc_p (Naive.evaluate_ext g plain);
  check_acc ~msg:"decorated snapshot" acc_d (Naive.evaluate_ext g decorated);
  let rng = Random.State.make [| 8 |] in
  for batch = 1 to 5 do
    List.iter
      (fun (src, dst, lbl, ts, te) ->
        ignore (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
      (random_extra rng
         (1 + Random.State.int rng 6)
         ~n_vertices:5 ~n_labels:3 ~domain:30);
    let gb = Tcsq_core.Incremental.graph inc in
    let engine =
      Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc)
    in
    Subscription.on_ingest subs ~engine ~generation:batch;
    check_acc
      ~msg:(Printf.sprintf "plain, batch %d" batch)
      acc_p
      (Naive.evaluate_ext gb plain);
    check_acc
      ~msg:(Printf.sprintf "decorated, batch %d" batch)
      acc_d
      (Naive.evaluate_ext gb decorated)
  done

(* ---- sliding windows retract matches the window leaves behind ---- *)

let test_sliding_retraction () =
  let g =
    Tgraph.Graph.of_edge_list
      [ (0, 1, 0, 0, 2); (1, 2, 0, 1, 3); (2, 3, 0, 2, 4) ]
  in
  let inc = Tcsq_core.Incremental.of_tai g (Tcsq_core.Tai.build g) in
  let subs = Subscription.create () in
  let engine0 =
    Workload.Engine.prepare_with_tai g (Tcsq_core.Incremental.tai inc)
  in
  let eq =
    match Qlang.parse_and_compile_ext g "MATCH (x)-[l0]->(y) IN [0, 100]" with
    | Ok eq -> eq
    | Error msg -> Alcotest.fail msg
  in
  let acc, deltas, push = recorder () in
  let sub, w0, initial =
    Subscription.subscribe subs ~engine:engine0 ~window_width:5 ~push eq
  in
  acc := MS.of_list initial;
  (* stream head is 4, so the sliding window starts at [0, 4] *)
  Alcotest.(check (pair int int))
    "initial sliding window" (0, 4)
    (Temporal.Interval.ts w0, Temporal.Interval.te w0);
  Alcotest.(check int) "all three edges match initially" 3
    (List.length initial);
  (* push the stream head to 20: the window becomes [16, 20], every old
     match must be retracted and only the new edge stands *)
  ignore (Tcsq_core.Incremental.add_edge inc ~src:3 ~dst:4 ~lbl:0 ~ts:17 ~te:20);
  let gb = Tcsq_core.Incremental.graph inc in
  let engine =
    Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc)
  in
  Subscription.on_ingest subs ~engine ~generation:1;
  (match !deltas with
  | [ d ] ->
      Alcotest.(check int) "sub id" sub d.Subscription.sub;
      Alcotest.(check (pair int int))
        "advanced window" (16, 20)
        ( Temporal.Interval.ts d.Subscription.window,
          Temporal.Interval.te d.Subscription.window );
      Alcotest.(check int) "three retractions" 3
        (List.length d.Subscription.retracted);
      Alcotest.(check int) "one addition" 1
        (List.length d.Subscription.added)
  | ds -> Alcotest.failf "expected exactly one delta, got %d" (List.length ds));
  check_acc ~msg:"post-advance standing set" acc
    (Naive.evaluate_ext gb (Equery.with_window eq (window 16 20)))

(* ---- two subscribers on one shape share a group and agree ---- *)

let test_fanout () =
  let g =
    Test_util.random_graph ~seed:9 ~n_vertices:4 ~n_edges:20 ~n_labels:2
      ~domain:20 ~max_len:6 ()
  in
  let inc = Tcsq_core.Incremental.of_tai g (Tcsq_core.Tai.build g) in
  let subs = Subscription.create () in
  let engine0 =
    Workload.Engine.prepare_with_tai g (Tcsq_core.Incremental.tai inc)
  in
  let eq =
    match Qlang.parse_and_compile_ext g "MATCH (x)-[l0]->(y) IN [0, 19]" with
    | Ok eq -> eq
    | Error msg -> Alcotest.fail msg
  in
  let acc1, d1, push1 = recorder () in
  let acc2, d2, push2 = recorder () in
  (* same plain core, different windows: one fixed, one sliding — they
     land in the same Multi_window group keyed by the core pattern *)
  let _, _, i1 = Subscription.subscribe subs ~engine:engine0 ~push:push1 eq in
  let _, _, i2 =
    Subscription.subscribe subs ~engine:engine0 ~window_width:8 ~push:push2 eq
  in
  acc1 := MS.of_list i1;
  acc2 := MS.of_list i2;
  Alcotest.(check int) "both registered" 2 (Subscription.active subs);
  let rng = Random.State.make [| 10 |] in
  for batch = 1 to 3 do
    List.iter
      (fun (src, dst, lbl, ts, te) ->
        ignore (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
      (random_extra rng 4 ~n_vertices:4 ~n_labels:2 ~domain:20);
    let gb = Tcsq_core.Incremental.graph inc in
    let engine =
      Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc)
    in
    Subscription.on_ingest subs ~engine ~generation:batch;
    let hi = Temporal.Interval.te (Tgraph.Graph.time_domain gb) in
    check_acc
      ~msg:(Printf.sprintf "fixed-window sub, batch %d" batch)
      acc1
      (Naive.evaluate_ext gb eq);
    check_acc
      ~msg:(Printf.sprintf "sliding sub, batch %d" batch)
      acc2
      (Naive.evaluate_ext gb (Equery.with_window eq (window (hi - 7) hi)))
  done;
  Alcotest.(check int) "one delta per batch, sub 1" 3 (List.length !d1);
  Alcotest.(check int) "one delta per batch, sub 2" 3 (List.length !d2);
  (* unsubscribe the first: later batches only reach the second *)
  let removed = Subscription.unsubscribe subs ~conn:None 0 in
  Alcotest.(check bool) "unsubscribed" true removed;
  Alcotest.(check int) "one left" 1 (Subscription.active subs);
  ignore (Tcsq_core.Incremental.add_edge inc ~src:0 ~dst:1 ~lbl:0 ~ts:2 ~te:5);
  let gb = Tcsq_core.Incremental.graph inc in
  let engine =
    Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc)
  in
  Subscription.on_ingest subs ~engine ~generation:4;
  Alcotest.(check int) "no further deltas after unsubscribe" 3
    (List.length !d1);
  Alcotest.(check int) "survivor keeps receiving" 4 (List.length !d2)

(* ---- the delta rule = the full-refresh diff, batch by batch ---- *)

(* [subscribe] one random standing query, append 1-4 random batches and
   check every pushed delta against Naive: [added] and [retracted] are
   the two differences between the fresh results before and after the
   batch. Cores are random (wildcards, self loops, disconnected parts),
   plain ones sometimes LASTING; a quarter are decorated and must keep
   the full re-evaluation. Windows are fixed or sliding. Batch edges
   start anywhere in the domain (out of order), may touch vertices the
   graph has never seen, and one batch in three carries a label
   interned just before it. *)
let prop_delta_is_refresh_diff =
  QCheck.Test.make ~name:"delta = full-refresh diff (vs Naive)" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 22 |] in
      let n_labels = 3 and domain = 40 and n_vertices = 5 in
      let g =
        Test_util.random_graph ~seed ~n_vertices
          ~n_edges:(8 + Random.State.int rng 25)
          ~n_labels ~domain ~max_len:10 ()
      in
      let ws = Random.State.int rng domain in
      let w = window ws (ws + Random.State.int rng 25) in
      let eq =
        if Random.State.int rng 4 = 0 then
          Testkit.random_equery ~seed ~n_labels ~max_edges:3 ~window:w
        else
          let q = Testkit.random_query ~seed ~n_labels ~max_edges:3 ~window:w in
          Equery.plain
            (if Random.State.bool rng then q
             else Query.with_min_duration q (1 + Random.State.int rng 6))
      in
      let width =
        if Random.State.bool rng then None
        else Some (3 + Random.State.int rng 25)
      in
      let expected_window gb =
        match width with
        | None -> Query.window (Equery.core eq)
        | Some width ->
            let hi = Temporal.Interval.te (Tgraph.Graph.time_domain gb) in
            window (hi - width + 1) hi
      in
      let fresh gb =
        MS.of_list (Naive.evaluate_ext gb (Equery.with_window eq (expected_window gb)))
      in
      let inc =
        Tcsq_core.Incremental.of_tai ~merge_threshold:1 g (Tcsq_core.Tai.build g)
      in
      let subs = Subscription.create () in
      let deltas = ref [] in
      let _, _, initial =
        Subscription.subscribe subs
          ~engine:(Workload.Engine.prepare_with_tai g (Tcsq_core.Incremental.tai inc))
          ?window_width:width
          ~push:(fun d -> deltas := d :: !deltas)
          eq
      in
      if not (MS.equal (MS.of_list initial) (fresh g)) then
        QCheck.Test.fail_report "initial snapshot differs from Naive";
      let labels = Tgraph.Graph.labels g in
      let prev = ref (fresh g) in
      for batch = 1 to 1 + Random.State.int rng 4 do
        let fresh_label =
          if Random.State.int rng 3 = 0 then
            Some
              (Tgraph.Label.intern labels (Printf.sprintf "new%d" batch))
          else None
        in
        for _ = 1 to 1 + Random.State.int rng 5 do
          let lbl =
            match fresh_label with
            | Some l when Random.State.bool rng -> l
            | _ -> Random.State.int rng n_labels
          in
          let ts = Random.State.int rng (domain + 10) in
          ignore
            (Tcsq_core.Incremental.add_edge inc
               ~src:(Random.State.int rng (n_vertices + 2))
               ~dst:(Random.State.int rng (n_vertices + 2))
               ~lbl ~ts ~te:(ts + Random.State.int rng 10))
        done;
        let gb = Tcsq_core.Incremental.graph inc in
        deltas := [];
        Subscription.on_ingest subs
          ~engine:(Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc))
          ~generation:batch;
        let next = fresh gb in
        let same what expected actual =
          if not (List.equal Match_result.equal (MS.elements expected) actual)
          then
            QCheck.Test.fail_reportf "batch %d: %s has %d matches, Naive %d"
              batch what (List.length actual) (MS.cardinal expected)
        in
        (match !deltas with
        | [ d ] ->
            same "added" (MS.diff next !prev) d.Subscription.added;
            same "retracted" (MS.diff !prev next) d.Subscription.retracted;
            if
              not
                (Temporal.Interval.equal d.Subscription.window
                   (expected_window gb))
            then QCheck.Test.fail_reportf "batch %d: wrong window" batch;
            if d.Subscription.total <> MS.cardinal next then
              QCheck.Test.fail_reportf "batch %d: wrong total" batch
        | ds ->
            QCheck.Test.fail_reportf "batch %d: %d deltas, expected 1" batch
              (List.length ds));
        prev := next
      done;
      true)

(* NOT is not monotone in its right input: an antijoin edge arriving in
   a fixed window cuts a standing match's lifespan, so the old piece is
   retracted and the shorter ones added. A delta that only looked for
   matches of new edges would miss both. *)
let test_decorated_full_refresh () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 10); (2, 3, 1, 0, 1) ] in
  let inc = Tcsq_core.Incremental.of_tai g (Tcsq_core.Tai.build g) in
  let subs = Subscription.create () in
  let eq =
    match
      Qlang.parse_and_compile_ext g "MATCH (x)-[l0]->(y) NOT (y)-[l1]->(x) IN [0, 20]"
    with
    | Ok eq -> eq
    | Error msg -> Alcotest.fail msg
  in
  let acc, deltas, push = recorder () in
  let _, _, initial =
    Subscription.subscribe subs
      ~engine:(Workload.Engine.prepare_with_tai g (Tcsq_core.Incremental.tai inc))
      ~push eq
  in
  acc := MS.of_list initial;
  Alcotest.(check int) "one standing piece" 1 (List.length initial);
  ignore (Tcsq_core.Incremental.add_edge inc ~src:1 ~dst:0 ~lbl:1 ~ts:4 ~te:5);
  let gb = Tcsq_core.Incremental.graph inc in
  Subscription.on_ingest subs
    ~engine:(Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc))
    ~generation:1;
  (match !deltas with
  | [ d ] ->
      Alcotest.(check int) "the old piece is retracted" 1
        (List.length d.Subscription.retracted);
      Alcotest.(check int) "two shorter pieces are added" 2
        (List.length d.Subscription.added)
  | ds -> Alcotest.failf "expected one delta, got %d" (List.length ds));
  check_acc ~msg:"after the antijoin edge" acc (Naive.evaluate_ext gb eq)

(* TOP k is not monotone either: a longer match arriving evicts the k-th
   one. A standing selection must equal the re-queried one at every
   batch, in a fixed and a sliding window alike. *)
let test_standing_top_k () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:5 ~n_edges:30 ~n_labels:3
      ~domain:30 ~max_len:8 ()
  in
  List.iter
    (fun (k, window_width) ->
      let inc = Tcsq_core.Incremental.of_tai g (Tcsq_core.Tai.build g) in
      let subs = Subscription.create () in
      let eq =
        match
          Qlang.parse_and_compile_ext g
            (Printf.sprintf "MATCH (x)-[l0]->(y)-[l1]->(z) IN [0, 29] TOP %d" k)
        with
        | Ok eq -> eq
        | Error msg -> Alcotest.fail msg
      in
      let acc, _, push = recorder () in
      let _, w, initial =
        Subscription.subscribe subs
          ~engine:(Workload.Engine.prepare_with_tai g (Tcsq_core.Tai.build g))
          ?window_width ~push eq
      in
      acc := MS.of_list initial;
      let name = Printf.sprintf "TOP %d, %s" k
          (match window_width with None -> "fixed" | Some _ -> "sliding") in
      check_acc ~msg:(name ^ ", snapshot") acc
        (Naive.evaluate_ext g (Equery.with_window eq w));
      let rng = Random.State.make [| k |] in
      for batch = 1 to 5 do
        List.iter
          (fun (src, dst, lbl, ts, te) ->
            ignore (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl ~ts ~te))
          (random_extra rng 4 ~n_vertices:5 ~n_labels:3
             ~domain:(30 + (5 * batch)));
        let gb = Tcsq_core.Incremental.graph inc in
        Subscription.on_ingest subs
          ~engine:
            (Workload.Engine.prepare_with_tai gb (Tcsq_core.Incremental.tai inc))
          ~generation:batch;
        let w =
          match window_width with
          | None -> w
          | Some width ->
              let head = Temporal.Interval.te (Tgraph.Graph.time_domain gb) in
              window (head - width + 1) head
        in
        check_acc
          ~msg:(Printf.sprintf "%s, batch %d" name batch)
          acc
          (Naive.evaluate_ext gb (Equery.with_window eq w))
      done)
    [ (1, None); (3, None); (1, Some 10); (3, Some 10) ]

(* ---- end-to-end over the wire ---- *)

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcsq-standing-%d-%d.sock" (Unix.getpid ()) !n)

let with_server g f =
  let engine = Workload.Engine.prepare g in
  let socket_path = fresh_socket_path () in
  let config =
    { (Server.default_config ~socket_path) with Server.workers = 2 }
  in
  let srv = Server.start config engine in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f socket_path)

let ingest_line edges =
  let edge (src, dst, label, ts, te) =
    Printf.sprintf
      {|{"src": %d, "dst": %d, "label": "%s", "ts": %d, "te": %d}|} src dst
      label ts te
  in
  Printf.sprintf {|{"op": "ingest", "edges": [%s]}|}
    (String.concat ", " (List.map edge edges))

let ok_raw client line =
  match Client.request_raw client line with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      if r.Protocol.status <> "ok" then
        Alcotest.failf "expected ok, got %s (%s)" r.Protocol.status
          (Option.value r.Protocol.message ~default:"");
      r

let test_wire_subscribe_ingest () =
  let g =
    Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5); (1, 2, 1, 2, 8) ]
  in
  with_server g (fun path ->
      let watcher = Client.connect path in
      let feeder = Client.connect path in
      Fun.protect
        ~finally:(fun () ->
          Client.close watcher;
          Client.close feeder)
        (fun () ->
          let sub, r =
            match
              Client.subscribe ~id:"w" watcher "MATCH (x)-[l0]->(y) IN [0, 50]"
            with
            | Ok (sub, r) -> (sub, r)
            | Error msg -> Alcotest.failf "subscribe: %s" msg
          in
          Alcotest.(check int) "snapshot count" 1
            (Option.value ~default:(-1) (Json.mem_int "count" r.Protocol.json));
          (* the ingest ack is written after the deltas, so once the
             feeder sees its ack the watcher's delta is on the wire *)
          let ack =
            ok_raw feeder
              (ingest_line [ (2, 3, "l0", 3, 9); (3, 0, "l1", 4, 10) ])
          in
          Alcotest.(check (option int))
            "appended" (Some 2)
            (Json.mem_int "appended" ack.Protocol.json);
          (match Client.next_frame watcher with
          | Ok (`Delta (d, _)) ->
              Alcotest.(check int) "delta for our sub" sub
                d.Protocol.delta_sub;
              Alcotest.(check (option string))
                "tag" (Some "w") d.Protocol.delta_tag;
              Alcotest.(check int) "one new match" 1
                (List.length d.Protocol.delta_added);
              Alcotest.(check int) "nothing retracted" 0
                (List.length d.Protocol.delta_retracted);
              Alcotest.(check (option int))
                "total" (Some 2) d.Protocol.delta_total
          | Ok (`Response _) -> Alcotest.fail "expected a delta notification"
          | Error msg -> Alcotest.failf "watcher read: %s" msg);
          (* unsubscribe, ingest again: the next frame on the watcher
             must be its own ping response, not a delta *)
          (match Client.unsubscribe watcher sub with
          | Ok true -> ()
          | Ok false -> Alcotest.fail "unsubscribe reported not-removed"
          | Error msg -> Alcotest.failf "unsubscribe: %s" msg);
          ignore (ok_raw feeder (ingest_line [ (0, 3, "l0", 5, 11) ]));
          ignore (Client.send_raw watcher {|{"op": "ping"}|});
          match Client.recv watcher with
          | Ok r ->
              Alcotest.(check bool) "ping response, not a delta" false
                (Protocol.is_notification r)
          | Error msg -> Alcotest.failf "post-unsubscribe read: %s" msg))

(* only the subscribing connection may unsubscribe: another connection
   naming the same id is answered "removed": false and the subscription
   keeps receiving deltas *)
let test_wire_unsubscribe_scoped () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  with_server g (fun path ->
      let owner = Client.connect path in
      let other = Client.connect path in
      Fun.protect
        ~finally:(fun () ->
          Client.close owner;
          Client.close other)
        (fun () ->
          let sub =
            match Client.subscribe owner "MATCH (x)-[l0]->(y) IN [0, 50]" with
            | Ok (sub, _) -> sub
            | Error msg -> Alcotest.failf "subscribe: %s" msg
          in
          let unsubscribe client =
            match Client.unsubscribe client sub with
            | Ok removed -> removed
            | Error msg -> Alcotest.failf "unsubscribe: %s" msg
          in
          Alcotest.(check bool) "another connection removes nothing" false
            (unsubscribe other);
          ignore (ok_raw other (ingest_line [ (1, 2, "l0", 3, 9) ]));
          (match Client.next_frame owner with
          | Ok (`Delta (d, _)) ->
              Alcotest.(check int) "still subscribed" sub d.Protocol.delta_sub
          | Ok (`Response _) -> Alcotest.fail "expected a delta notification"
          | Error msg -> Alcotest.failf "owner read: %s" msg);
          Alcotest.(check bool) "the owner removes it" true (unsubscribe owner)))

(* ingest may introduce labels the label table has never seen: they are
   interned, and both the analyzer and the query path see them *)
let test_wire_label_interning () =
  let g = Tgraph.Graph.of_edge_list [ (0, 1, 0, 0, 5) ] in
  with_server g (fun path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* unknown label before the ingest: the analyzer rejects it *)
          (match Client.query client "MATCH (x)-[fresh]->(y) IN [0, 50]" with
          | Ok r ->
              Alcotest.(check string) "unknown label rejected" "error"
                r.Protocol.status
          | Error msg -> Alcotest.failf "transport: %s" msg);
          let ack = ok_raw client (ingest_line [ (1, 2, "fresh", 3, 9) ]) in
          Alcotest.(check (option int))
            "appended with a new label" (Some 1)
            (Json.mem_int "appended" ack.Protocol.json);
          let r = ok_raw client "{\"op\": \"query\", \"query\": \"MATCH (x)-[fresh]->(y) IN [0, 50]\", \"method\": \"tsrjoin\"}" in
          Alcotest.(check (option int))
            "the interned label now matches" (Some 1)
            (Json.mem_int "count" r.Protocol.json)))

let () =
  Alcotest.run "standing"
    [
      ( "deltas",
        [
          Alcotest.test_case "accumulated deltas = fresh re-query" `Quick
            test_delta_oracle;
          Alcotest.test_case "sliding windows retract" `Quick
            test_sliding_retraction;
          Alcotest.test_case "fan-out and unsubscribe" `Quick test_fanout;
          Alcotest.test_case "decorated queries refresh in full" `Quick
            test_decorated_full_refresh;
          Alcotest.test_case "standing TOP k = re-query" `Quick
            test_standing_top_k;
        ]
        (* Kept in this suite: a longer suite name widens Alcotest's name
           column and truncates the displayed name of the wire cases. *)
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            [ prop_delta_is_refresh_diff ] );
      ( "wire",
        [
          Alcotest.test_case "subscribe / ingest / delta / unsubscribe"
            `Quick test_wire_subscribe_ingest;
          Alcotest.test_case "labels intern on ingest" `Quick
            test_wire_label_interning;
          Alcotest.test_case "unsubscribe is per connection" `Quick
            test_wire_unsubscribe_scoped;
        ] );
    ]
