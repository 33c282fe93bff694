(* Structured per-request query log: one self-describing JSON object per
   line (schema tcsq-qlog/v1), the durable record a re-optimizer or an
   operator greps after the fact. This module stays dependency-free like
   the rest of lib/obs: the clock is the caller's, execution stats
   arrive as plain (name, value) pairs, and file IO is Stdlib only.

   Writing is thread-safe (one mutex around the channel); sampling is
   deterministic (a rate accumulator, no RNG) and never drops the
   interesting lines — anything slow or with a non-completed outcome is
   always written, the sample rate only thins the fast/ordinary
   majority. *)

type outcome =
  | Completed
  | Truncated_budget
  | Truncated_deadline
  | Rejected_query
  | Rejected_lint
  | Overloaded
  | Internal_error

let outcome_name = function
  | Completed -> "completed"
  | Truncated_budget -> "truncated_budget"
  | Truncated_deadline -> "truncated_deadline"
  | Rejected_query -> "rejected_query"
  | Rejected_lint -> "rejected_lint"
  | Overloaded -> "overloaded"
  | Internal_error -> "internal_error"

type level = { level : int; est : int; actual : int }

type record = {
  ts : float;  (* unix seconds, caller-supplied *)
  id : string option;
  fingerprint : string option;
  query : string option;
  method_ : string option;
  window : (int * int) option;
  outcome : outcome;
  duration_ms : float;
  stats : (string * int) list;
  levels : level list;
  misestimation : float option;
  plan_source : string option;
}

(* ---- rendering ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let opt_string = function None -> "null" | Some s -> escape s

let to_json ~slow r =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\"schema\": \"tcsq-qlog/v1\"";
  Printf.bprintf buf ", \"ts\": %.6f" r.ts;
  Printf.bprintf buf ", \"id\": %s" (opt_string r.id);
  Printf.bprintf buf ", \"fingerprint\": %s" (opt_string r.fingerprint);
  Printf.bprintf buf ", \"query\": %s" (opt_string r.query);
  Printf.bprintf buf ", \"method\": %s" (opt_string r.method_);
  (match r.window with
  | None -> Printf.bprintf buf ", \"window\": null"
  | Some (ws, we) ->
      Printf.bprintf buf ", \"window\": {\"ws\": %d, \"we\": %d}" ws we);
  Printf.bprintf buf ", \"outcome\": %s" (escape (outcome_name r.outcome));
  Printf.bprintf buf ", \"duration_ms\": %.3f" r.duration_ms;
  Printf.bprintf buf ", \"slow\": %b" slow;
  Printf.bprintf buf ", \"truncated\": %b"
    (match r.outcome with
    | Truncated_budget | Truncated_deadline -> true
    | _ -> false);
  Printf.bprintf buf ", \"deadline\": %b" (r.outcome = Truncated_deadline);
  Printf.bprintf buf ", \"stats\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "%s%s: %d" (if i > 0 then ", " else "") (escape k) v)
    r.stats;
  Printf.bprintf buf "}";
  Printf.bprintf buf ", \"levels\": [";
  List.iteri
    (fun i l ->
      Printf.bprintf buf "%s{\"level\": %d, \"est\": %d, \"actual\": %d}"
        (if i > 0 then ", " else "")
        l.level l.est l.actual)
    r.levels;
  Printf.bprintf buf "]";
  (match r.misestimation with
  | None -> Printf.bprintf buf ", \"misestimation\": null"
  | Some f -> Printf.bprintf buf ", \"misestimation\": %.3f" f);
  Printf.bprintf buf ", \"plan_source\": %s" (opt_string r.plan_source);
  Printf.bprintf buf "}";
  Buffer.contents buf

(* ---- the writer ---- *)

type t = {
  mutex : Mutex.t;
  oc : out_channel;
  slow_ms : float;
  sample : float;
  mutable acc : float;  (* sampling accumulator *)
  mutable written : int;
  mutable closed : bool;
}

let create ?(slow_ms = infinity) ?(sample = 1.0) path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
      Ok
        {
          mutex = Mutex.create ();
          oc;
          slow_ms;
          sample = Float.max 0.0 (Float.min 1.0 sample);
          acc = 0.0;
          written = 0;
          closed = false;
        }
  | exception Sys_error msg -> Error msg

let is_slow t r = r.duration_ms >= t.slow_ms

let log t r =
  let slow = is_slow t r in
  Mutex.lock t.mutex;
  let keep =
    (not t.closed)
    && (slow
       || r.outcome <> Completed
       ||
       (* deterministic thinning of the ordinary lines *)
       (t.acc <- t.acc +. t.sample;
        if t.acc >= 1.0 -. 1e-9 then begin
          t.acc <- t.acc -. 1.0;
          true
        end
        else false))
  in
  if keep then begin
    (try
       output_string t.oc (to_json ~slow r);
       output_char t.oc '\n';
       flush t.oc
     with Sys_error _ -> ());
    t.written <- t.written + 1
  end;
  Mutex.unlock t.mutex;
  keep

let close t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    try close_out t.oc with Sys_error _ -> ()
  end;
  Mutex.unlock t.mutex
