(* Exporters over a sink's recorded spans: Chrome trace-event JSON
   (schema "trace/v1") and a per-phase summary table.

   Span totals are inclusive — an LFTO sweep span contains the TAI-probe
   spans of the steps below it — so the summary additionally computes
   self time by structural nesting: events from one domain are strictly
   nested, so a start-ordered pass with a stack attributes each span's
   duration minus its direct children's to the span's own phase. *)

type row = { phase : Phase.t; count : int; total_s : float; self_s : float }

(* events sorted parent-before-child: by start ascending, then by
   duration descending (equal starts at clock resolution) *)
let sorted_events sink =
  let n = Sink.n_events sink in
  let phases = Array.make n 0 in
  let starts = Array.make n 0.0 in
  let durs = Array.make n 0.0 in
  let i = ref 0 in
  Sink.iter_events sink (fun ~phase ~start_s ~dur_s ->
      phases.(!i) <- Phase.index phase;
      starts.(!i) <- start_s;
      durs.(!i) <- dur_s;
      incr i);
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare starts.(a) starts.(b) in
      if c <> 0 then c else Float.compare durs.(b) durs.(a))
    order;
  (order, phases, starts, durs)

(* returns (per-phase self seconds, total root-span seconds) *)
let self_times sink =
  let order, phases, starts, durs = sorted_events sink in
  let self = Array.make Phase.n 0.0 in
  let root = ref 0.0 in
  (* stack of open ancestors: (end time, phase, children duration) *)
  let stack = ref [] in
  let close (_, phase, children) dur =
    self.(phase) <- self.(phase) +. Float.max 0.0 (dur -. children)
  in
  let rec pop_until start =
    match !stack with
    | ((e, _, _) as top, dur) :: rest when e <= start ->
        stack := rest;
        close top dur;
        pop_until start
    | _ -> ()
  in
  Array.iter
    (fun idx ->
      let s = starts.(idx) and d = durs.(idx) in
      pop_until s;
      (match !stack with
      | [] -> root := !root +. d
      | ((e, p, children), dur) :: rest ->
          stack := ((e, p, children +. d), dur) :: rest);
      stack := ((s +. d, phases.(idx), 0.0), d) :: !stack)
    order;
  List.iter (fun (top, dur) -> close top dur) !stack;
  (self, !root)

let root_seconds sink = snd (self_times sink)

let summary sink =
  let self, _ = self_times sink in
  let rows = ref [] in
  Array.iter
    (fun phase ->
      let count = Sink.count sink phase in
      if count > 0 then
        rows :=
          {
            phase;
            count;
            total_s = Sink.total sink phase;
            self_s = self.(Phase.index phase);
          }
          :: !rows)
    Phase.all;
  List.sort (fun a b -> Float.compare b.self_s a.self_s) !rows

let pp_summary fmt sink =
  let rows = summary sink in
  let _, root = self_times sink in
  Format.fprintf fmt "%-16s %10s %12s %12s %7s@." "phase" "count" "total-ms"
    "self-ms" "%run";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s %10d %12.3f %12.3f %6.1f%%@."
        (Phase.name r.phase) r.count (r.total_s *. 1000.0)
        (r.self_s *. 1000.0)
        (if root > 0.0 then 100.0 *. r.self_s /. root else 0.0))
    rows;
  if Sink.dropped sink > 0 then
    Format.fprintf fmt
      "(%d events dropped at the buffer cap; aggregates above are complete)@."
      (Sink.dropped sink)

let to_chrome_json ?(process_name = "tcsq") sink =
  let ids = [ ("pid", Json.Int 1); ("tid", Json.Int 1) ] in
  let events = ref [] in
  (* complete events ("ph": "X"), microsecond timestamps; one pid/tid —
     a sink is single-domain by construction *)
  Sink.iter_events sink (fun ~phase ~start_s ~dur_s ->
      events :=
        Json.Obj
          ([
             ("name", Json.String (Phase.name phase));
             ("cat", Json.String "tcsq");
             ("ph", Json.String "X");
             ("ts", Json.Fixed (3, start_s *. 1e6));
             ("dur", Json.Fixed (3, dur_s *. 1e6));
           ]
          @ ids)
        :: !events);
  let process =
    Json.Obj
      ([ ("name", Json.String "process_name"); ("ph", Json.String "M") ]
      @ ids
      @ [ ("args", Json.Obj [ ("name", Json.String process_name) ]) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "trace/v1");
         ("displayTimeUnit", Json.String "ms");
         ("droppedEvents", Json.Int (Sink.dropped sink));
         ("traceEvents", Json.List (process :: List.rev !events));
       ])
