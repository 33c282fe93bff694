(* Client side of the wire protocol: connect, send one JSON line per
   request, read one JSON line per response. [send]/[recv] are exposed
   separately so callers (and tests) can pipeline requests. *)

type t = { fd : Unix.file_descr; reader : Wire.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* unbounded: subscribe snapshots and delta frames have no size cap *)
  { fd; reader = Wire.reader ~max_line:max_int fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t line = Wire.write_line t.fd line

let recv_raw t =
  match Wire.read_line t.reader with
  | Some line -> Ok line
  | None -> Error "connection closed by server"

let recv t = Result.bind (recv_raw t) Protocol.parse_response

let request_raw t line =
  match send_raw t line with
  | () -> recv t
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message e))

let query_json ?id ?(method_ = Workload.Engine.Tsrjoin) ?deadline_ms ?limit
    ?(count_only = false) ?max_results ?max_intermediate text =
  let opt name f v = match v with None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    (opt "id" (fun s -> Json.String s) id
    @ [
        ("op", Json.String "query");
        ("query", Json.String text);
        ("method", Json.String (Workload.Engine.method_name method_));
      ]
    @ opt "deadline_ms" (fun f -> Json.Float f) deadline_ms
    @ opt "limit" (fun i -> Json.Int i) limit
    @ (if count_only then [ ("count_only", Json.Bool true) ] else [])
    @ opt "max_results" (fun i -> Json.Int i) max_results
    @ opt "max_intermediate" (fun i -> Json.Int i) max_intermediate)

let query ?id ?method_ ?deadline_ms ?limit ?count_only ?max_results
    ?max_intermediate t text =
  request_raw t
    (Json.to_string
       (query_json ?id ?method_ ?deadline_ms ?limit ?count_only ?max_results
          ?max_intermediate text))

(* ---- standing queries ---- *)

let subscribe_json ?id ?window_width text =
  Json.Obj
    ((match id with None -> [] | Some s -> [ ("id", Json.String s) ])
    @ [ ("op", Json.String "subscribe"); ("query", Json.String text) ]
    @
    match window_width with
    | None -> []
    | Some w -> [ ("window_width", Json.Int w) ])

let subscribe ?id ?window_width t text =
  match request_raw t (Json.to_string (subscribe_json ?id ?window_width text)) with
  | Error _ as e -> e
  | Ok r when r.Protocol.status <> "ok" ->
      Error
        (Printf.sprintf "subscribe failed: %s"
           (Option.value r.Protocol.message ~default:r.Protocol.status))
  | Ok r -> (
      match Json.mem_int "sub" r.Protocol.json with
      | Some sub -> Ok (sub, r)
      | None -> Error "subscribe response carried no sub id")

let unsubscribe_json ?id sub =
  Json.Obj
    ((match id with None -> [] | Some s -> [ ("id", Json.String s) ])
    @ [ ("op", Json.String "unsubscribe"); ("sub", Json.Int sub) ])

let unsubscribe ?id t sub =
  match request_raw t (Json.to_string (unsubscribe_json ?id sub)) with
  | Error _ as e -> e
  | Ok r -> Ok (Json.mem_bool "removed" r.Protocol.json = Some true)

(* Blocks until the next pushed notification frame, buffering nothing
   else: plain responses arriving in between are returned to the caller
   via [`Response] so pipelined users can demux. *)
let next_frame t =
  match recv t with
  | Error _ as e -> e
  | Ok r -> (
      match Protocol.delta_of_response r with
      | Some d -> Ok (`Delta (d, r))
      | None -> Ok (`Response r))

let op_json ?id op =
  Json.Obj
    ((match id with None -> [] | Some s -> [ ("id", Json.String s) ])
    @ [ ("op", Json.String op) ])

let metrics t =
  match request_raw t (Json.to_string (op_json "metrics")) with
  | Error _ as e -> e
  | Ok r -> (
      match Json.member "metrics" r.Protocol.json with
      | Some m -> Ok m
      | None -> Error "response carried no metrics")

let metrics_prom t =
  match request_raw t (Json.to_string (op_json "metrics_prom")) with
  | Error _ as e -> e
  | Ok r -> (
      match Json.mem_string "prometheus" r.Protocol.json with
      | Some text -> Ok text
      | None -> Error "response carried no prometheus text")

let ping t =
  match request_raw t (Json.to_string (op_json "ping")) with
  | Ok r -> r.Protocol.status = "ok"
  | Error _ -> false

let shutdown t = request_raw t (Json.to_string (op_json "shutdown"))
