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

let to_json ~slow r =
  let opt_string = function None -> Json.Null | Some s -> Json.String s in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "tcsq-qlog/v1");
         ("ts", Json.Fixed (6, r.ts));
         ("id", opt_string r.id);
         ("fingerprint", opt_string r.fingerprint);
         ("query", opt_string r.query);
         ("method", opt_string r.method_);
         ( "window",
           match r.window with
           | None -> Json.Null
           | Some (ws, we) ->
               Json.Obj [ ("ws", Json.Int ws); ("we", Json.Int we) ] );
         ("outcome", Json.String (outcome_name r.outcome));
         ("duration_ms", Json.Fixed (3, r.duration_ms));
         ("slow", Json.Bool slow);
         ( "truncated",
           Json.Bool
             (match r.outcome with
             | Truncated_budget | Truncated_deadline -> true
             | _ -> false) );
         ("deadline", Json.Bool (r.outcome = Truncated_deadline));
         ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.stats));
         ( "levels",
           Json.List
             (List.map
                (fun l ->
                  Json.Obj
                    [
                      ("level", Json.Int l.level);
                      ("est", Json.Int l.est);
                      ("actual", Json.Int l.actual);
                    ])
                r.levels) );
         ( "misestimation",
           match r.misestimation with
           | None -> Json.Null
           | Some f -> Json.Fixed (3, f) );
         ("plan_source", opt_string r.plan_source);
       ])

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
