(* The wire protocol: one JSON object per line in each direction.

   Requests:
     {"op": "query", "query": "MATCH ... IN [a, b]", "method": "tsrjoin",
      "deadline_ms": 500, "limit": 100, "count_only": false,
      "max_results": N, "max_intermediate": N, "id": "optional tag"}
     {"op": "ingest",
      "edges": [{"src": 0, "dst": 1, "label": "a", "ts": 3, "te": 9}, ...],
      "id": "optional tag"}
     {"op": "subscribe", "query": "MATCH ...", "window_width": 500,
      "id": "optional tag"}
     {"op": "unsubscribe", "sub": 3, "id": "optional tag"}
     {"op": "metrics"}   {"op": "metrics_prom"}
     {"op": "ping"}      {"op": "shutdown"}

   Responses always carry a "status":
     ok         completed (query / metrics / ping / shutdown ack)
     truncated  partial answer; "reason" is "deadline" or "budget"
     error      request never executed; "kind" is "parse" (bad JSON),
                "query" (query-language rejection), "lint" (analyzer
                error, with "diagnostics"), or "internal"
     overloaded admission queue full; retry later

   Standing-query notifications are the one server->client frame that is
   NOT a response: after a subscribe, each ingest batch may push
     {"notification": "delta", "sub": 3, "window": {...},
      "added": [...], "retracted": [...], ...}
   lines onto subscribed connections. They carry no "status" field, so
   pipelined clients can demux by presence of "notification". *)

open Semantics

type query_request = {
  id : string option;
  text : string;
  method_ : Workload.Engine.method_;
  deadline_ms : float option;
  limit : int option;
  count_only : bool;
  max_results : int option;
  max_intermediate : int option;
}

type ingest_edge = {
  src : int;
  dst : int;
  label : string;
  ts : int;
  te : int;
}

type ingest_request = { ingest_id : string option; edges : ingest_edge list }

type subscribe_request = {
  subscribe_id : string option;
  subscribe_text : string;
  window_width : int option; (* None: the query's own window, fixed *)
}

type unsubscribe_request = { unsubscribe_id : string option; sub : int }

type request =
  | Query of query_request
  | Ingest of ingest_request
  | Subscribe of subscribe_request
  | Unsubscribe of unsubscribe_request
  | Metrics of string option
  | Metrics_prom of string option
  | Ping of string option
  | Shutdown of string option

(* A present integer field that is not a representable int is refused,
   not read as absent. *)
let parse_ingest_edge j =
  match
    List.find_opt
      (fun k -> Option.is_some (Json.member k j) && Json.mem_int k j = None)
      [ "src"; "dst"; "ts"; "te" ]
  with
  | Some k ->
      Error
        (Printf.sprintf "ingest edge field %S is not a representable integer" k)
  | None ->
  match
    ( Json.mem_int "src" j,
      Json.mem_int "dst" j,
      Json.mem_string "label" j,
      Json.mem_int "ts" j,
      Json.mem_int "te" j )
  with
  | Some src, Some dst, Some label, Some ts, Some te ->
      Ok { src; dst; label; ts; te }
  | _ -> Error "ingest edge needs src, dst, label, ts, te"

let request_of_json j =
  let id = Json.mem_string "id" j in
  match
    List.find_opt
      (fun k -> Option.is_some (Json.member k j) && Json.mem_int k j = None)
      [ "limit"; "max_results"; "max_intermediate"; "window_width"; "sub" ]
  with
  | Some k ->
      Error (Printf.sprintf "field %S is not a representable integer" k)
  | None ->
  match Json.mem_string "op" j with
  | None -> Error "missing \"op\" field"
  | Some "ingest" -> (
      match Json.mem_list "edges" j with
      | None -> Error "missing \"edges\" field"
      | Some items -> (
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
                match parse_ingest_edge item with
                | Ok e -> collect (e :: acc) rest
                | Error _ as e -> e)
          in
          match collect [] items with
          | Ok edges -> Ok (Ingest { ingest_id = id; edges })
          | Error msg -> Error msg))
  | Some "subscribe" -> (
      match Json.mem_string "query" j with
      | None -> Error "missing \"query\" field"
      | Some text -> (
          match Json.mem_int "window_width" j with
          | Some w when w <= 0 -> Error "window_width must be positive"
          | window_width ->
              Ok
                (Subscribe
                   { subscribe_id = id; subscribe_text = text; window_width })
          ))
  | Some "unsubscribe" -> (
      match Json.mem_int "sub" j with
      | None -> Error "missing \"sub\" field"
      | Some sub -> Ok (Unsubscribe { unsubscribe_id = id; sub }))
  | Some "metrics" -> Ok (Metrics id)
  | Some "metrics_prom" -> Ok (Metrics_prom id)
  | Some "ping" -> Ok (Ping id)
  | Some "shutdown" -> Ok (Shutdown id)
  | Some "query" -> (
      match Json.mem_string "query" j with
      | None -> Error "missing \"query\" field"
      | Some text -> (
          let method_name =
            Option.value (Json.mem_string "method" j) ~default:"tsrjoin"
          in
          match Workload.Engine.method_of_string method_name with
          | None -> Error (Printf.sprintf "unknown method %S" method_name)
          | Some method_ ->
              Ok
                (Query
                   {
                     id;
                     text;
                     method_;
                     deadline_ms = Json.mem_float "deadline_ms" j;
                     limit = Json.mem_int "limit" j;
                     count_only =
                       Option.value
                         (Json.mem_bool "count_only" j)
                         ~default:false;
                     max_results = Json.mem_int "max_results" j;
                     max_intermediate = Json.mem_int "max_intermediate" j;
                   })))
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* a line that parsed as JSON gets its "id" echoed even when the request
   is refused, so a pipelined client can tell which request failed *)
let parse_request line =
  match Json.parse line with
  | Error msg -> Error (None, Printf.sprintf "bad JSON: %s" msg)
  | Ok j ->
      Result.map_error (fun msg -> (Json.mem_string "id" j, msg))
        (request_of_json j)

(* ---- server-side response rendering ---- *)

let id_field = function None -> [] | Some id -> [ ("id", Json.String id) ]

let stats_json (s : Run_stats.t) =
  let int_array a =
    Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))
  in
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (Run_stats.counters s)
    @ [
        ("levels", int_array (Run_stats.levels s));
        ("est_levels", int_array (Run_stats.est_levels s));
      ])

let matches_json graph ms = Json.List (List.map (Match_result.to_json graph) ms)

type truncation = Budget | Deadline

let truncation_name = function Budget -> "budget" | Deadline -> "deadline"

(* every response frame: the echoed id, then "status", then [fields] *)
let frame ?id status fields =
  Json.to_string
    (Json.Obj (id_field id @ (("status", Json.String status) :: fields)))

let result_response ?id ~graph ~truncated ~count ~matches ~stats ~elapsed_ms ()
    =
  let status, reason =
    match truncated with
    | None -> ("ok", [])
    | Some tr -> ("truncated", [ ("reason", Json.String (truncation_name tr)) ])
  in
  frame ?id status
    (reason
    @ [
        ("count", Json.Int count);
        ("matches", matches_json graph matches);
        ("stats", stats_json stats);
        ("elapsed_ms", Json.Float elapsed_ms);
      ])

let error_response ?id ~kind ?(diagnostics = []) message =
  frame ?id "error"
    ([ ("kind", Json.String kind); ("message", Json.String message) ]
    @
    if diagnostics = [] then []
    else [ ("diagnostics", Analysis.Diagnostic.list_to_json diagnostics) ])

let overloaded_response ?id ~queue_depth () =
  frame ?id "overloaded" [ ("queue_depth", Json.Int queue_depth) ]

let ingest_response ?id ~appended ~n_edges ~generation ~invalidated () =
  frame ?id "ok"
    [
      ("appended", Json.Int appended);
      ("n_edges", Json.Int n_edges);
      ("generation", Json.Int generation);
      ("plans_invalidated", Json.Int invalidated);
    ]

let interval_json iv =
  Json.Obj
    [
      ("ts", Json.Int (Temporal.Interval.ts iv));
      ("te", Json.Int (Temporal.Interval.te iv));
    ]

let subscribe_response ?id ~sub ~graph ~window ~matches () =
  frame ?id "ok"
    [
      ("sub", Json.Int sub);
      ("window", interval_json window);
      ("count", Json.Int (List.length matches));
      ("matches", matches_json graph matches);
    ]

let unsubscribe_response ?id ~sub ~removed () =
  frame ?id "ok" [ ("sub", Json.Int sub); ("removed", Json.Bool removed) ]

(* Pushed frame, not a response: no "status", demuxed by "notification".
   [tag] echoes the id the client sent with the subscribe, so a
   pipelined client can route deltas without tracking sub numbers. *)
let delta_notification ?tag ~sub ~generation ~graph ~window ~added ~retracted
    ~total ~elapsed_ms () =
  Json.to_string
    (Json.Obj
       ([ ("notification", Json.String "delta"); ("sub", Json.Int sub) ]
       @ (match tag with None -> [] | Some t -> [ ("tag", Json.String t) ])
       @ [
           ("generation", Json.Int generation);
           ("window", interval_json window);
           ("added", matches_json graph added);
           ("retracted", matches_json graph retracted);
           ("total", Json.Int total);
           ("elapsed_ms", Json.Float elapsed_ms);
         ]))

let pong_response ?id () = frame ?id "ok" [ ("pong", Json.Bool true) ]

let metrics_response ?id snapshot = frame ?id "ok" [ ("metrics", snapshot) ]

(* the Prometheus text exposition rides the one-line JSON framing as an
   escaped string; clients unescape and serve/print it verbatim *)
let metrics_prom_response ?id text =
  frame ?id "ok" [ ("prometheus", Json.String text) ]

let shutdown_response ?id () = frame ?id "ok" [ ("stopping", Json.Bool true) ]

(* ---- client-side response view ---- *)

type response = {
  id : string option;
  status : string;
  reason : string option;
  kind : string option;
  message : string option;
  count : int option;
  matches : Match_result.t list;
  elapsed_ms : float option;
  notification : string option; (* Some "delta" on pushed frames *)
  json : Json.t;
}

let match_of_json j =
  let edges =
    match Json.mem_list "edges" j with
    | None -> None
    | Some es ->
        let ids = List.filter_map (Json.mem_int "id") es in
        if List.length ids = List.length es then Some (Array.of_list ids)
        else None
  in
  let life =
    match Json.member "lifespan" j with
    | None -> None
    | Some l -> (
        match (Json.mem_int "ts" l, Json.mem_int "te" l) with
        | Some ts, Some te when ts <= te -> Some (Temporal.Interval.make ts te)
        | _ -> None)
  in
  match (edges, life) with
  | Some edges, Some life -> Some (Match_result.make edges life)
  | _ -> None

let response_of_json j =
  {
    id = Json.mem_string "id" j;
    status = Option.value (Json.mem_string "status" j) ~default:"invalid";
    reason = Json.mem_string "reason" j;
    kind = Json.mem_string "kind" j;
    message = Json.mem_string "message" j;
    count = Json.mem_int "count" j;
    matches =
      (match Json.mem_list "matches" j with
      | None -> []
      | Some ms -> List.filter_map match_of_json ms);
    elapsed_ms = Json.mem_float "elapsed_ms" j;
    notification = Json.mem_string "notification" j;
    json = j;
  }

let parse_response line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "bad response JSON: %s" msg)
  | Ok j -> Ok (response_of_json j)

let is_notification r = r.notification <> None

(* typed view of a pushed delta frame, for watch loops and tests *)
type delta_view = {
  delta_sub : int;
  delta_tag : string option;
  delta_generation : int option;
  delta_window : Temporal.Interval.t option;
  delta_added : Match_result.t list;
  delta_retracted : Match_result.t list;
  delta_total : int option;
}

let delta_of_response r =
  if r.notification <> Some "delta" then None
  else
    match Json.mem_int "sub" r.json with
    | None -> None
    | Some delta_sub ->
        let matches field =
          match Json.mem_list field r.json with
          | None -> []
          | Some ms -> List.filter_map match_of_json ms
        in
        Some
          {
            delta_sub;
            delta_tag = Json.mem_string "tag" r.json;
            delta_generation = Json.mem_int "generation" r.json;
            delta_window =
              (match Json.member "window" r.json with
              | None -> None
              | Some w -> (
                  match (Json.mem_int "ts" w, Json.mem_int "te" w) with
                  | Some ts, Some te when ts <= te ->
                      Some (Temporal.Interval.make ts te)
                  | _ -> None));
            delta_added = matches "added";
            delta_retracted = matches "retracted";
            delta_total = Json.mem_int "total" r.json;
          }
