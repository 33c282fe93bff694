(* End-to-end tests for the query server: an in-process server on a
   Unix-domain socket, exercised by real client connections.

   - differential: concurrent clients on separate domains, one per
     processing method, each running the shared query pool; every
     response's match set must equal the naive oracle's.
   - fault injection: a non-selective query under a wall-clock deadline
     must come back as a typed truncation quickly, and the server must
     stay healthy afterwards.
   - golden metrics: the server's aggregate counters must equal the
     sums that Workload.Runner measures for the same workload.
   - admission control: a 1-worker/1-slot server pipelined six slow
     queries must shed most of them with typed "overloaded" responses.
   - protocol errors: malformed JSON, unknown labels, provably-empty
     windows, ping. *)

open Semantics
open Tcsq_server

let window a b = Temporal.Interval.make a b

(* ---- server harness ---- *)

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcsq-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(workers = 2) ?(queue_depth = 16) ?default_deadline_ms g f =
  let engine = Workload.Engine.prepare g in
  let socket_path = fresh_socket_path () in
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.workers;
      queue_depth;
      default_deadline_ms;
    }
  in
  let srv = Server.start config engine in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv engine socket_path)

let ok_query ?method_ ?deadline_ms ?limit ?count_only ?max_results
    ?max_intermediate client text =
  match
    Client.query ?method_ ?deadline_ms ?limit ?count_only ?max_results
      ?max_intermediate client text
  with
  | Error msg -> Alcotest.failf "transport error for %S: %s" text msg
  | Ok r -> r

(* ---- Json unit tests ---- *)

let test_json_roundtrip () =
  let roundtrip s =
    match Json.parse s with
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
    | Ok j -> (
        let printed = Json.to_string j in
        match Json.parse printed with
        | Error msg -> Alcotest.failf "reparse %S: %s" printed msg
        | Ok j' ->
            Alcotest.(check string)
              (Printf.sprintf "stable print of %S" s)
              printed (Json.to_string j'))
  in
  List.iter roundtrip
    [
      "null";
      "true";
      "[]";
      "{}";
      "-42";
      "3.5";
      "[1, [2, {\"a\": null}], \"x\"]";
      "{\"a\": 1, \"b\": [true, false], \"c\": {\"d\": \"e\"}}";
      "\"quote \\\" backslash \\\\ newline \\n tab \\t\"";
      "\"unicode \\u00e9 \\u20ac pair \\ud83d\\ude00\"";
      "1e3";
      "-0.25";
    ];
  (match Json.parse "{\"a\": 1}" with
  | Ok j ->
      Alcotest.(check (option int)) "member" (Some 1) (Json.mem_int "a" j);
      Alcotest.(check (option int)) "missing" None (Json.mem_int "b" j)
  | Error msg -> Alcotest.failf "object parse: %s" msg);
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* Strings of arbitrary bytes survive print -> parse, and printing is a
   fixpoint of parsing for values of bounded depth. The generator keeps
   floats to the forms the parser reads back unchanged: no [Fixed]/[Sig]
   (they print fewer digits) and finite floats only. *)
let json_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:char (int_bound 6) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_range (-1e20) 1e20);
        map (fun s -> Json.String s) (string_size ~gen:char (int_bound 12));
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair key (self (depth - 1)))) );
             ])

let prop_json_strings =
  QCheck.Test.make ~name:"any byte string round-trips" ~count:500 QCheck.string
    (fun s -> Json.parse (Json.to_string (Json.String s)) = Ok (Json.String s))

let prop_json_print_fixpoint =
  QCheck.Test.make ~name:"print, parse, print gives the same bytes" ~count:300
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let printed = Json.to_string v in
      match Json.parse printed with
      | Ok v' -> Json.to_string v' = printed
      | Error _ -> false)

(* ---- Run_stats deadline unit test (fake clock) ---- *)

let test_deadline_fake_clock () =
  (* a clock that advances one unit per read: the deadline must fire on
     the first check after it expires, i.e. within one check interval *)
  let clock = ref 0.0 in
  let now () =
    clock := !clock +. 1.0;
    !clock
  in
  let stats =
    Run_stats.create ~deadline:{ Run_stats.expires_at = 3.0; now } ()
  in
  let ticks = ref 0 in
  (try
     while !ticks < 100 * Run_stats.deadline_check_interval do
       incr ticks;
       Run_stats.tick_scanned stats
     done;
     Alcotest.fail "deadline never fired"
   with Run_stats.Deadline_exceeded -> ());
  (* the first tick reads the clock (so an already-expired deadline
     fires immediately), then every [deadline_check_interval] ticks:
     reads land on ticks 1, interval+1, 2*interval+1, ... and the third
     read is the first at/after expiry *)
  Alcotest.(check int)
    "fired on the first check past expiry"
    ((2 * Run_stats.deadline_check_interval) + 1)
    !ticks;
  (* without a deadline nothing fires *)
  let free = Run_stats.create () in
  for _ = 1 to 10 * Run_stats.deadline_check_interval do
    Run_stats.tick_scanned free
  done

(* ---- differential: concurrent clients vs the naive oracle ---- *)

let test_concurrent_differential () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let queries = Test_util.query_pool ~n_labels:3 ~window:(window 8 30) in
  with_server ~workers:4 g (fun _srv _engine path ->
      let methods =
        [|
          Workload.Engine.Tsrjoin; Workload.Engine.Binary;
          Workload.Engine.Hybrid; Workload.Engine.Time;
        |]
      in
      (* one domain per method, each with its own connection, all hitting
         the server at once *)
      let run_method method_ =
        let client = Client.connect path in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            List.map
              (fun q ->
                let text = Qlang.render g q in
                let r = ok_query ~method_ ~limit:1_000_000 client text in
                (text, r))
              queries)
      in
      let domains =
        Array.map (fun m -> Domain.spawn (fun () -> run_method m)) methods
      in
      let per_method = Array.map Domain.join domains in
      Array.iteri
        (fun i responses ->
          let mname = Workload.Engine.method_name methods.(i) in
          List.iter2
            (fun q (text, (r : Protocol.response)) ->
              Alcotest.(check string)
                (Printf.sprintf "%s status for %s" mname text)
                "ok" r.Protocol.status;
              let expected = Naive.evaluate g q in
              Alcotest.(check (option int))
                (Printf.sprintf "%s count for %s" mname text)
                (Some (List.length expected))
                r.Protocol.count;
              Test_util.check_same_results
                ~msg:(Printf.sprintf "%s vs naive for %s" mname text)
                expected r.Protocol.matches)
            queries responses)
        per_method)

(* ---- fault injection: wall-clock deadlines ---- *)

(* 5 vertices, thousands of parallel edges, one label: a wildcard
   triangle over the full window enumerates forever unless stopped. *)
let dense_graph () =
  Test_util.random_graph ~seed:3 ~n_vertices:5 ~n_edges:4000 ~n_labels:1
    ~domain:10_000 ~max_len:5_000 ()

let non_selective = "MATCH (x)-[*]->(y)-[*]->(z)-[*]->(x) IN [0, 10000]"

let assert_healthy client path =
  Alcotest.(check bool) "ping after fault" true (Client.ping client);
  let r = ok_query ~count_only:true client "MATCH (x)-[l0]->(y) IN [0, 100]" in
  Alcotest.(check string) "query after fault" "ok" r.Protocol.status;
  let fresh = Client.connect path in
  Fun.protect
    ~finally:(fun () -> Client.close fresh)
    (fun () ->
      let r = ok_query ~count_only:true fresh "MATCH (x)-[l0]->(y) IN [0, 100]" in
      Alcotest.(check string) "fresh connection after fault" "ok"
        r.Protocol.status)

let test_deadline_truncation () =
  let g = dense_graph () in
  with_server g (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let deadline_ms = 400.0 in
          let t0 = Unix.gettimeofday () in
          let r =
            ok_query ~deadline_ms ~count_only:true ~max_results:max_int
              ~max_intermediate:max_int client non_selective
          in
          let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Alcotest.(check string) "status" "truncated" r.Protocol.status;
          Alcotest.(check (option string))
            "reason" (Some "deadline") r.Protocol.reason;
          if elapsed_ms > 2.0 *. deadline_ms then
            Alcotest.failf "deadline overshoot: %.0fms for a %.0fms deadline"
              elapsed_ms deadline_ms;
          assert_healthy client path))

let test_budget_truncation () =
  let g = dense_graph () in
  with_server g (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let r =
            ok_query ~count_only:true ~max_results:50 ~max_intermediate:max_int
              client non_selective
          in
          Alcotest.(check string) "status" "truncated" r.Protocol.status;
          Alcotest.(check (option string))
            "reason" (Some "budget") r.Protocol.reason;
          assert_healthy client path))

(* ---- golden metrics ---- *)

let metrics_int snapshot names =
  let rec dig j = function
    | [] -> Json.int_opt j
    | name :: rest -> (
        match Json.member name j with None -> None | Some j' -> dig j' rest)
  in
  match dig snapshot names with
  | Some v -> v
  | None ->
      Alcotest.failf "metrics field %s missing" (String.concat "." names)

let test_golden_metrics () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  let queries = Test_util.query_pool ~n_labels:3 ~window:(window 8 30) in
  let methods = [ Workload.Engine.Tsrjoin; Workload.Engine.Binary ] in
  with_server g (fun _srv engine path ->
      (* the reference measurements, under the same default budgets the
         server applies when a request names none *)
      let measurements =
        List.map (fun m -> Workload.Runner.run_method engine m queries) methods
      in
      List.iter
        (fun (m : Workload.Runner.measurement) ->
          Alcotest.(check int)
            "reference workload untruncated" 0 m.Workload.Runner.n_truncated)
        measurements;
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          List.iter
            (fun method_ ->
              List.iter
                (fun q ->
                  let r =
                    ok_query ~method_ ~count_only:true client (Qlang.render g q)
                  in
                  Alcotest.(check string)
                    "workload query" "ok" r.Protocol.status)
                queries)
            methods;
          let snapshot =
            match Client.metrics client with
            | Ok s -> s
            | Error msg -> Alcotest.failf "metrics: %s" msg
          in
          let sum f = List.fold_left (fun acc m -> acc + f m) 0 measurements in
          let n = List.length queries in
          Alcotest.(check int)
            "completed" (n * List.length methods)
            (metrics_int snapshot [ "requests"; "completed" ]);
          Alcotest.(check int)
            "total results"
            (sum (fun m -> m.Workload.Runner.total_results))
            (metrics_int snapshot [ "totals"; "results" ]);
          Alcotest.(check int)
            "total intermediate"
            (sum (fun m -> m.Workload.Runner.total_intermediate))
            (metrics_int snapshot [ "totals"; "intermediate" ]);
          Alcotest.(check int)
            "total scanned"
            (sum (fun m -> m.Workload.Runner.total_scanned))
            (metrics_int snapshot [ "totals"; "scanned" ]);
          Alcotest.(check int)
            "total seeks"
            (sum (fun m -> m.Workload.Runner.total_seeks))
            (metrics_int snapshot [ "totals"; "seeks" ]);
          List.iter
            (fun method_ ->
              Alcotest.(check int)
                (Workload.Engine.method_name method_ ^ " count")
                n
                (metrics_int snapshot
                   [ "methods"; Workload.Engine.method_name method_; "count" ]))
            methods;
          (* the Prometheus exposition reports the same golden totals *)
          let prom =
            match Client.metrics_prom client with
            | Ok text -> text
            | Error msg -> Alcotest.failf "metrics_prom: %s" msg
          in
          let has_line line =
            List.mem line (String.split_on_char '\n' prom)
          in
          let check_line line =
            Alcotest.(check bool) line true (has_line line)
          in
          check_line
            (Printf.sprintf "tcsq_requests_total{outcome=\"completed\"} %d"
               (n * List.length methods));
          check_line
            (Printf.sprintf "tcsq_run_stats_total{counter=\"seeks\"} %d"
               (sum (fun m -> m.Workload.Runner.total_seeks)));
          check_line
            (Printf.sprintf "tcsq_run_stats_total{counter=\"scanned\"} %d"
               (sum (fun m -> m.Workload.Runner.total_scanned)));
          List.iter
            (fun method_ ->
              check_line
                (Printf.sprintf
                   "tcsq_request_duration_seconds_count{method=\"%s\"} %d"
                   (Workload.Engine.method_name method_)
                   n))
            methods))

(* ---- admission control ---- *)

let test_admission_shedding () =
  let g = dense_graph () in
  with_server ~workers:1 ~queue_depth:1 ~default_deadline_ms:300.0 g
    (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let n = 6 in
          (* pipeline: all requests written before any response is read,
             so the single worker is still busy when the later ones
             arrive *)
          for i = 1 to n do
            Client.send_raw client
              (Json.to_string
                 (Client.query_json ~id:(string_of_int i) ~count_only:true
                    ~max_results:max_int ~max_intermediate:max_int
                    non_selective))
          done;
          let statuses = Hashtbl.create 8 in
          let ids = ref [] in
          for _ = 1 to n do
            match Client.recv client with
            | Error msg -> Alcotest.failf "response: %s" msg
            | Ok r ->
                (match r.Protocol.id with
                | Some id -> ids := id :: !ids
                | None -> Alcotest.fail "response lost its id");
                Hashtbl.replace statuses r.Protocol.status
                  (1
                  + Option.value
                      (Hashtbl.find_opt statuses r.Protocol.status)
                      ~default:0)
          done;
          let count s =
            Option.value (Hashtbl.find_opt statuses s) ~default:0
          in
          Alcotest.(check (list string))
            "every request answered exactly once"
            (List.init n (fun i -> string_of_int (i + 1)))
            (List.sort compare !ids);
          if count "overloaded" < 3 then
            Alcotest.failf
              "expected >= 3 shed requests, got %d (ok %d, truncated %d)"
              (count "overloaded") (count "ok") (count "truncated");
          if count "ok" + count "truncated" < 1 then
            Alcotest.fail "expected at least one executed request";
          assert_healthy client path))

(* ---- protocol error paths ---- *)

let test_error_paths () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  with_server g (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* malformed JSON *)
          Client.send_raw client "{nope";
          (match Client.recv client with
          | Error msg -> Alcotest.failf "parse-error response: %s" msg
          | Ok r ->
              Alcotest.(check string) "parse status" "error" r.Protocol.status;
              Alcotest.(check (option string))
                "parse kind" (Some "parse") r.Protocol.kind);
          (* unknown op *)
          Client.send_raw client "{\"op\": \"dance\"}";
          (match Client.recv client with
          | Error msg -> Alcotest.failf "unknown-op response: %s" msg
          | Ok r ->
              Alcotest.(check string) "op status" "error" r.Protocol.status);
          (* unknown label: rejected at compile time, never executed *)
          let r = ok_query client "MATCH (x)-[nosuchlabel]->(y) IN [0, 40]" in
          Alcotest.(check string) "label status" "error" r.Protocol.status;
          Alcotest.(check (option string))
            "label kind" (Some "query") r.Protocol.kind;
          (* provably-empty window: answered "ok, zero" without running *)
          let r =
            ok_query client "MATCH (x)-[l0]->(y) IN [100000, 200000]"
          in
          Alcotest.(check string) "empty status" "ok" r.Protocol.status;
          Alcotest.(check (option int)) "empty count" (Some 0) r.Protocol.count;
          (* still alive *)
          Alcotest.(check bool) "ping" true (Client.ping client);
          (* the failures above are all visible in the snapshot *)
          let snapshot =
            match Client.metrics client with
            | Ok s -> s
            | Error msg -> Alcotest.failf "metrics: %s" msg
          in
          Alcotest.(check int)
            "parse errors counted" 2
            (metrics_int snapshot [ "requests"; "parse_errors" ]);
          Alcotest.(check int)
            "rejections counted" 1
            (metrics_int snapshot [ "requests"; "rejected" ])))

(* the JSON parser recurses per [ / {: a hostile line must be refused
   with one parse error, not exhaust the connection thread's stack *)
let test_deep_nesting () =
  let nested d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "nesting at the cap parses" true
    (Result.is_ok (Json.parse (nested Json.max_depth)));
  Alcotest.(check bool) "one level deeper is refused" true
    (Result.is_error (Json.parse (nested (Json.max_depth + 1))));
  let g =
    Test_util.random_graph ~seed:12 ~n_vertices:4 ~n_edges:20 ~n_labels:2
      ~domain:20 ~max_len:5 ()
  in
  with_server g (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          Client.send_raw client (String.make 100_000 '[');
          (match Client.recv client with
          | Error msg -> Alcotest.failf "deep-nesting response: %s" msg
          | Ok r ->
              Alcotest.(check string) "status" "error" r.Protocol.status;
              Alcotest.(check (option string))
                "kind" (Some "parse") r.Protocol.kind);
          (* a second frame for the same line would answer this ping *)
          Alcotest.(check bool) "ping after deep nesting" true
            (Client.ping client)))

(* integral JSON numbers outside the int range are refused, never
   wrapped by [int_of_float] *)
let test_int_fields () =
  let some_int = Alcotest.(check (option int)) in
  some_int "1e19" None (Json.int_opt (Json.Float 1e19));
  some_int "2^62" None (Json.int_opt (Json.Float 4611686018427387904.0));
  some_int "-2^62" (Some min_int)
    (Json.int_opt (Json.Float (-4611686018427387904.0)));
  some_int "1e15" (Some 1_000_000_000_000_000) (Json.int_opt (Json.Float 1e15));
  let g =
    Test_util.random_graph ~seed:12 ~n_vertices:4 ~n_edges:20 ~n_labels:2
      ~domain:20 ~max_len:5 ()
  in
  with_server g (fun _srv _engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          List.iter
            (fun (field, line, message, id) ->
              Client.send_raw client line;
              match Client.recv client with
              | Error msg -> Alcotest.failf "%s response: %s" field msg
              | Ok r ->
                  Alcotest.(check string) (field ^ " status") "error"
                    r.Protocol.status;
                  Alcotest.(check (option string))
                    (field ^ " kind") (Some "parse") r.Protocol.kind;
                  Alcotest.(check (option string))
                    (field ^ " named") (Some message) r.Protocol.message;
                  (* a refused request that parsed as JSON echoes its id *)
                  Alcotest.(check (option string))
                    (field ^ " id") id r.Protocol.id)
            [
              ( "limit",
                {|{"op": "query", "query": "MATCH (x)-[l0]->(y) IN [0, 20]", "limit": 1e19, "id": "q-limit"}|},
                {|field "limit" is not a representable integer|},
                Some "q-limit" );
              ( "window_width",
                {|{"op": "subscribe", "query": "MATCH (x)-[l0]->(y) IN [0, 20]", "window_width": 1e19}|},
                {|field "window_width" is not a representable integer|},
                None );
              ( "ts",
                {|{"op": "ingest", "edges": [{"src": 0, "dst": 1, "label": "l0", "ts": 4611686018427387904.0, "te": 4611686018427387905.0}]}|},
                {|ingest edge field "ts" is not a representable integer|},
                None );
            ];
          Alcotest.(check bool) "ping" true (Client.ping client)))

(* a client that never sends a newline must not grow the server's line
   buffer without bound: one byte past the cap draws one parse error and
   the server hangs up *)
let test_frame_cap () =
  let g =
    Test_util.random_graph ~seed:12 ~n_vertices:4 ~n_edges:20 ~n_labels:2
      ~domain:20 ~max_len:5 ()
  in
  with_server g (fun _srv _engine path ->
      let cap = Server.max_request_bytes in
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let data = Bytes.make (cap + 1) 'x' in
          let off = ref 0 in
          while !off < cap + 1 do
            off := !off + Unix.write client.Client.fd data !off (cap + 1 - !off)
          done;
          (match Client.recv client with
          | Error msg -> Alcotest.failf "oversized-frame response: %s" msg
          | Ok r ->
              Alcotest.(check string) "status" "error" r.Protocol.status;
              Alcotest.(check (option string))
                "kind" (Some "parse") r.Protocol.kind;
              Alcotest.(check (option string))
                "names the cap"
                (Some (Printf.sprintf "request frame exceeds %d bytes" cap))
                r.Protocol.message);
          Alcotest.(check bool) "then EOF" true
            (Result.is_error (Client.recv_raw client)));
      let fresh = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close fresh)
        (fun () ->
          Alcotest.(check bool) "fresh connection answers ping" true
            (Client.ping fresh);
          match Client.metrics fresh with
          | Error msg -> Alcotest.failf "metrics: %s" msg
          | Ok snapshot ->
              Alcotest.(check int)
                "parse error counted" 1
                (metrics_int snapshot [ "requests"; "parse_errors" ])))

(* ---- result limit ---- *)

let test_match_limit () =
  let g =
    Test_util.random_graph ~seed:11 ~n_vertices:6 ~n_edges:80 ~n_labels:3
      ~domain:40 ~max_len:10 ()
  in
  with_server g (fun _srv engine path ->
      let client = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let text = "MATCH (x)-[*]->(y) IN [0, 40]" in
          let q =
            match Qlang.parse_and_compile g text with
            | Ok q -> q
            | Error msg -> Alcotest.failf "compile: %s" msg
          in
          let total =
            List.length (Workload.Engine.evaluate engine Workload.Engine.Tsrjoin q)
          in
          Alcotest.(check bool) "graph busy enough" true (total > 3);
          let r = ok_query ~limit:3 client text in
          Alcotest.(check string) "status" "ok" r.Protocol.status;
          Alcotest.(check (option int))
            "count reports the full cardinality" (Some total) r.Protocol.count;
          Alcotest.(check int)
            "matches capped at the limit" 3
            (List.length r.Protocol.matches)))

(* ---- Prometheus exposition-format conformance ----

   Validates the text exposition against the 0.0.4 grammar without a
   regex engine: metric names, label syntax, numeric values, a # TYPE
   comment for every family, and — for each histogram series — the
   mandatory +Inf bucket, monotone cumulative buckets, and matching
   _sum/_count lines. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* "name{labels} value" -> (family, labels-without-le, le option, value);
   labels arrive as the raw sorted k="v" list so series compare equal *)
let parse_sample line =
  let name_end =
    let rec go i =
      if i < String.length line && is_name_char line.[i] then go (i + 1)
      else i
    in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "sample %S has a metric name" line)
    true (name_end > 0);
  let name = String.sub line 0 name_end in
  let rest = String.sub line name_end (String.length line - name_end) in
  let labels, value_str =
    if String.length rest > 0 && rest.[0] = '{' then begin
      match String.index_opt rest '}' with
      | None -> Alcotest.failf "sample %S: unterminated label set" line
      | Some close ->
          ( String.sub rest 1 (close - 1),
            String.trim
              (String.sub rest (close + 1) (String.length rest - close - 1))
          )
    end
    else ("", String.trim rest)
  in
  (match float_of_string_opt value_str with
  | Some _ -> ()
  | None -> Alcotest.failf "sample %S: value %S not numeric" line value_str);
  let label_list =
    if labels = "" then []
    else
      String.split_on_char ',' labels
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | None -> Alcotest.failf "sample %S: label %S has no =" line kv
             | Some eq ->
                 let k = String.sub kv 0 eq in
                 let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                 Alcotest.(check bool)
                   (Printf.sprintf "sample %S: label value %S quoted" line v)
                   true
                   (String.length v >= 2
                   && v.[0] = '"'
                   && v.[String.length v - 1] = '"');
                 (k, String.sub v 1 (String.length v - 2)))
  in
  let le = List.assoc_opt "le" label_list in
  let others =
    List.filter (fun (k, _) -> k <> "le") label_list
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (name, others, le, float_of_string value_str)

let test_prometheus_exposition () =
  let m = Metrics.create () in
  let stats = Run_stats.create () in
  Run_stats.tick_level_intermediate stats 0;
  Run_stats.tick_level_intermediate stats 1;
  Run_stats.add_est_level_intermediate stats 0 3;
  Metrics.record_query m ~slow:true ~fingerprint:"deadbeef01234567"
    ~misestimation:17.0 ~method_:Workload.Engine.Tsrjoin
    ~outcome:Metrics.Completed ~stats ~seconds:0.25;
  Metrics.record_query m ~method_:Workload.Engine.Binary
    ~outcome:Metrics.Truncated_budget
    ~stats:(Run_stats.create ()) ~seconds:0.001;
  Metrics.record_parse_error m;
  let text = Metrics.prometheus m ~queue_depth:2 ~pool_dropped:0 in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (* every family referenced by a sample has a preceding # TYPE *)
  let typed = Hashtbl.create 16 in
  let samples =
    List.filter_map
      (fun line ->
        if String.length line > 0 && line.[0] = '#' then begin
          (match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: family :: [ kind ] ->
              Hashtbl.replace typed family kind
          | _ -> ());
          None
        end
        else Some (parse_sample line))
      lines
  in
  let family_of name =
    List.fold_left
      (fun acc suffix ->
        match acc with
        | Some _ -> acc
        | None ->
            if
              String.length name > String.length suffix
              && String.sub name
                   (String.length name - String.length suffix)
                   (String.length suffix)
                 = suffix
              && Hashtbl.mem typed
                   (String.sub name 0 (String.length name - String.length suffix))
            then
              Some (String.sub name 0 (String.length name - String.length suffix))
            else None)
      None
      [ "_bucket"; "_sum"; "_count" ]
    |> Option.value ~default:name
  in
  List.iter
    (fun (name, _, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "family of %s has a # TYPE comment" name)
        true
        (Hashtbl.mem typed (family_of name)))
    samples;
  (* histogram series: +Inf present, buckets monotone, _count matches *)
  let histograms =
    Hashtbl.fold
      (fun family kind acc -> if kind = "histogram" then family :: acc else acc)
      typed []
  in
  Alcotest.(check bool)
    "misestimation histogram family present" true
    (List.mem "tcsq_misestimation_ratio" histograms);
  List.iter
    (fun family ->
      let series =
        List.filter_map
          (fun (name, others, le, v) ->
            if name = family ^ "_bucket" then Some (others, le, v) else None)
          samples
      in
      let keys =
        List.sort_uniq compare (List.map (fun (o, _, _) -> o) series)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s has at least one series" family)
        true (keys <> []);
      List.iter
        (fun key ->
          let buckets =
            List.filter (fun (o, _, _) -> o = key) series
            |> List.map (fun (_, le, v) -> (le, v))
          in
          let inf =
            List.filter (fun (le, _) -> le = Some "+Inf") buckets
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: exactly one +Inf bucket" family)
            1 (List.length inf);
          (* exposition order is the ladder order: cumulative counts
             must be nondecreasing and end at the +Inf bucket *)
          ignore
            (List.fold_left
               (fun prev (_, v) ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: cumulative buckets monotone" family)
                   true (v >= prev);
                 v)
               0.0 buckets);
          let count =
            List.filter_map
              (fun (name, others, _, v) ->
                if name = family ^ "_count" && others = key then Some v
                else None)
              samples
          in
          let sum =
            List.filter_map
              (fun (name, others, _, v) ->
                if name = family ^ "_sum" && others = key then Some v
                else None)
              samples
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: one _count line" family)
            1 (List.length count);
          Alcotest.(check int)
            (Printf.sprintf "%s: one _sum line" family)
            1 (List.length sum);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: +Inf bucket equals _count" family)
            (List.hd count)
            (snd (List.hd inf)))
        keys)
    histograms;
  (* the new counters landed with the values just recorded *)
  let sample_value name key =
    List.filter_map
      (fun (n, others, _, v) -> if n = name && others = key then Some v else None)
      samples
  in
  Alcotest.(check (list (float 0.0)))
    "slow completed counter" [ 1.0 ]
    (sample_value "tcsq_slow_requests_total" [ ("outcome", "completed") ]);
  Alcotest.(check (list (float 0.0)))
    "slow truncated_budget counter stays 0" [ 0.0 ]
    (sample_value "tcsq_slow_requests_total"
       [ ("outcome", "truncated_budget") ]);
  Alcotest.(check (list (float 0.0)))
    "misestimation _count is 1" [ 1.0 ]
    (sample_value "tcsq_misestimation_ratio_count" [])

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "parse/print roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_strings;
          QCheck_alcotest.to_alcotest prop_json_print_fixpoint;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "fake clock unit" `Quick test_deadline_fake_clock;
          Alcotest.test_case "wall-clock truncation" `Quick
            test_deadline_truncation;
          Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "four methods, four domains" `Quick
            test_concurrent_differential;
          Alcotest.test_case "match limit vs count" `Quick test_match_limit;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "golden totals" `Quick test_golden_metrics;
          Alcotest.test_case "prometheus exposition conformance" `Quick
            test_prometheus_exposition;
        ] );
      ( "admission",
        [ Alcotest.test_case "shedding under load" `Quick test_admission_shedding ]
      );
      ( "protocol",
        [
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "deep nesting refused" `Quick test_deep_nesting;
          Alcotest.test_case "oversized frame refused" `Quick test_frame_cap;
          Alcotest.test_case "out-of-range integer fields refused" `Quick
            test_int_fields;
        ] );
    ]
