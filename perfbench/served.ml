(* The served side: spawn the real `tcsq serve` on the generated graph
   file and drive it over its Unix socket from this single-threaded
   process, with at most two non-blocking connections multiplexed by
   Unix.select. Every answer is checked.

   The select loop is also what keeps the stream client from
   deadlocking: the server writes delta frames to the ingest connection
   while holding its ingest mutex, so a client that blocked writing the
   next batch before reading those frames would leave both processes
   stuck in the socket send path. Here writes never block, every
   readable connection is drained on each turn, and a no-progress
   watchdog ends the run with a named error instead of hanging. *)

module P = Tcsq_server.Protocol
module J = Tcsq_server.Json

exception Failed of string

let clk = Unix.gettimeofday

(* ---- answers that count as failed operations ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few, for the record *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let check tally ok msg =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if List.length tally.errors < 5 then tally.errors <- msg () :: tally.errors
  end

(* ---- the server process ---- *)

type server = { pid : int; socket : string; mutable alive : bool }

let spawned : server list ref = ref []

let reap ?(grace = 20.0) s =
  let deadline = clk () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when clk () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  s.alive <- false

(* at exit: no server outlives the benchmark *)
let kill_all () =
  List.iter
    (fun s ->
      if s.alive then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap ~grace:5.0 s
      end)
    !spawned

let stop s =
  if s.alive then begin
    (try
       let c = Tcsq_server.Client.connect s.socket in
       ignore (Tcsq_server.Client.shutdown c);
       Tcsq_server.Client.close c
     with Unix.Unix_error _ -> ());
    reap s
  end

(* spawn to first answered ping: graph load, index build, listen *)
let spawn ~tcsq ~dir ~flags ?trace_dir graph =
  let socket = Filename.concat dir "srv.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let args =
    [ tcsq; "serve"; graph; "--socket"; socket ]
    @ flags
    @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
  in
  let t0 = clk () in
  let pid = Unix.create_process tcsq (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let s = { pid; socket; alive = true } in
  spawned := s :: !spawned;
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        s.alive <- false;
        raise (Failed "setup: server exited before answering a ping (see server.log)"));
    if clk () -. t0 > 60.0 then raise (Failed "setup: no answered ping within 60 s");
    match Tcsq_server.Client.connect socket with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        wait ()
    | c ->
        let ok = Tcsq_server.Client.ping c in
        Tcsq_server.Client.close c;
        if not ok then raise (Failed "setup: ping not answered")
  in
  wait ();
  (s, clk () -. t0)

(* utime + stime from /proc/<pid>/stat, in seconds (USER_HZ = 100) *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* The /proc/stat line of the one CPU this process is pinned to (see
   run.sh), or the all-CPU line if it may run on more than one. *)
let stat_line =
  lazy
    (let ic = open_in "/proc/self/status" in
     let rec find () =
       match input_line ic with
       | l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
           let v = String.trim (String.sub l 18 (String.length l - 18)) in
           if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then "cpu" ^ v
           else "cpu"
       | _ -> find ()
       | exception End_of_file -> "cpu"
     in
     let name = find () in
     close_in ic;
     name)

(* (steal, total) jiffies of that CPU from /proc/stat: steal is time the
   vCPU was runnable but the host ran something else, the noise a reader
   of a slow run wants to see *)
let host_jiffies () =
  let name = Lazy.force stat_line in
  let ic = open_in "/proc/stat" in
  let rec find () =
    match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
    | n :: f when n = name -> f
    | _ -> find ()
  in
  let f = List.map float_of_string (find ()) in
  close_in ic;
  (List.nth f 7, List.fold_left ( +. ) 0.0 f)

(* share of host time stolen from this VM between two readings *)
let steal_share (s0, j0) (s1, j1) = (s1 -. s0) /. Float.max 1.0 (j1 -. j0)

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  let v = find () in
  close_in ic;
  v

(* ---- non-blocking connections and the select loop ---- *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  inbox : (float * P.response) Queue.t;  (* arrival time, parsed line *)
  mutable out : string;
  mutable off : int;
}

let last_progress = ref 0.0
let watchdog_s = 30.0

let watchdog what =
  if clk () -. !last_progress > watchdog_s then
    raise
      (Failed
         (Printf.sprintf "no-progress watchdog: %s made no progress for %.0f s"
            what watchdog_s))

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  last_progress := clk ();
  {
    fd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 4096;
    inbox = Queue.create ();
    out = "";
    off = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  c.out <- String.sub c.out c.off (String.length c.out - c.off) ^ line ^ "\n";
  c.off <- 0

let pending c = c.off < String.length c.out

let write_some c =
  match Unix.single_write_substring c.fd c.out c.off (String.length c.out - c.off) with
  | n ->
      c.off <- c.off + n;
      last_progress := clk ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Failed ("write to server: " ^ Unix.error_message e))

let read_some c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise (Failed "server closed a connection")
  | n ->
      let now = clk () in
      last_progress := now;
      for i = 0 to n - 1 do
        match Bytes.get c.chunk i with
        | '\n' -> (
            let line = Buffer.contents c.partial in
            Buffer.clear c.partial;
            match P.parse_response line with
            | Ok r -> Queue.push (now, r) c.inbox
            | Error msg -> raise (Failed ("unparsable server line: " ^ msg)))
        | ch -> Buffer.add_char c.partial ch
      done
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Failed ("read from server: " ^ Unix.error_message e))

let pump conns timeout =
  let wr = List.filter_map (fun c -> if pending c then Some c.fd else None) conns in
  match Unix.select (List.map (fun c -> c.fd) conns) wr [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      List.iter (fun c -> if List.mem c.fd w then write_some c) conns;
      List.iter (fun c -> if List.mem c.fd r then read_some c) conns

(* ---- standing-query state, fed by delta frames ---- *)

type sub_state = { mutable total : int; mutable window : Temporal.Interval.t option }

type notes = { subs : (string, sub_state) Hashtbl.t; mutable n_frames : int }

let on_note tally notes (r : P.response) =
  match P.delta_of_response r with
  | Some { P.delta_tag = Some tag; delta_total = Some total; delta_window; _ }
    when Hashtbl.mem notes.subs tag ->
      let st = Hashtbl.find notes.subs tag in
      st.total <- total;
      st.window <- delta_window;
      notes.n_frames <- notes.n_frames + 1
  | _ -> check tally false (fun () -> "malformed or unrouted delta frame")

(* the next non-notification response on [c], if one has arrived *)
let rec next_response tally notes c =
  match Queue.take_opt c.inbox with
  | None -> None
  | Some (_, r) when P.is_notification r ->
      on_note tally notes r;
      next_response tally notes c
  | Some x -> Some x

(* one request, waited for; other connections keep being pumped *)
let request tally notes conns c line =
  send c line;
  let rec wait () =
    match next_response tally notes c with
    | Some x -> x
    | None ->
        watchdog "request";
        pump conns 1.0;
        wait ()
  in
  wait ()

(* ---- blocks: the unit over which host steal is judged ---- *)

(* wall clock, host jiffies and server CPU, read together *)
type clocks = { at : float; host : float * float; cpu : float }

let clocks pid = { at = clk (); host = host_jiffies (); cpu = cpu_seconds pid }

(* A measured phase is cut into consecutive blocks of at least
   [block_s] seconds and, while reads run, at least [block_reads] reads
   (so a block's p90 rests on at least a tenth of them). Each block
   carries the host steal over it, so a report can leave out the blocks
   taken while the host was busy elsewhere. *)
type block = {
  reads : int * int;  (* [first, last) completed reads *)
  acks : int * int;  (* [first, last) ingest acks *)
  span_s : float;
  steal : float;  (* host steal share over the block *)
  cpu_s : float;  (* server utime + stime over the block *)
}

let block_s = 0.5
let block_reads = 100

(* ---- one served run ---- *)

type workload = Point | Scan | Stream

(* what the in-process replay re-executes, in send order *)
type event =
  | Warm of Inputs.query  (* excluded warm-up *)
  | Read of Inputs.query
  | Subscribe of Inputs.sub
  | Batch of Inputs.batch

(* one measured phase *)
type phase = {
  latency_ms : float array;  (* client-observed, send to response *)
  outside_ms : float array;  (* client latency minus the response's elapsed_ms *)
  ingest_ms : float array;  (* due time to ack *)
  lateness_ms : float array;  (* open loop: send time minus due time *)
  blocks : block list;
}

type run = {
  setup_s : float array;
  setup_steal : float array;  (* host steal share over each start-up *)
  measured : phase;  (* the read phase; for serve-stream with its ingest *)
  ingest : phase;  (* serve-stream: [measured]; point and scan: the idle tail *)
  frames : int;
  rss_mb : float;
  cache : (string * int) list;  (* plan-cache counter deltas, measured phase *)
  events : event list;
}

type env = {
  tcsq : string;
  dir : string;
  flags : string list;
  limit : int;  (* the served --limit: matches echoed per response *)
  period_s : float;  (* open-loop ingest schedule *)
  tally : tally;
}

let check_query env (q : Inputs.query) (r : P.response) =
  check env.tally
    (r.P.status = "ok"
    && r.P.count = Some q.Inputs.expected
    && List.length r.P.matches = min q.Inputs.expected env.limit)
    (fun () ->
      Printf.sprintf "%s: status %s count %s, expected %d" q.Inputs.text
        r.P.status
        (match r.P.count with Some n -> string_of_int n | None -> "-")
        q.Inputs.expected)

let cache_counts env notes conns c =
  let _, r = request env.tally notes conns c {|{"op":"metrics"}|} in
  let pc =
    Option.bind (J.member "metrics" r.P.json) (J.member "plan_cache")
  in
  List.map
    (fun k ->
      (k, Option.value ~default:0 (Option.bind pc (J.mem_int k))))
    [ "hits"; "misses"; "evictions"; "invalidations"; "replans" ]

let subscribe env notes conns a (s : Inputs.sub) =
  let _, r = request env.tally notes conns a s.Inputs.sline in
  let ok = r.P.status = "ok" in
  check env.tally ok (fun () -> "subscribe " ^ s.Inputs.tag ^ ": " ^ r.P.status);
  let window =
    Option.bind (J.member "window" r.P.json) (fun w ->
        match (J.mem_int "ts" w, J.mem_int "te" w) with
        | Some ts, Some te when ts <= te -> Some (Temporal.Interval.make ts te)
        | _ -> None)
  in
  Hashtbl.replace notes.subs s.Inputs.tag
    { total = Option.value r.P.count ~default:(-1); window }

let check_ack env (b : Inputs.batch) (r : P.response) =
  check env.tally
    (r.P.status = "ok"
    && r.P.id = Some b.Inputs.bid
    && J.mem_int "appended" r.P.json = Some b.Inputs.n_edges)
    (fun () -> Printf.sprintf "ingest %s: status %s" b.Inputs.bid r.P.status)

(* after the last batch: each standing query's total must equal a fresh
   served query with the same text and the final window *)
let check_subs env notes conns c (inp : Inputs.t) =
  Array.iter
    (fun (s : Inputs.sub) ->
      match Hashtbl.find_opt notes.subs s.Inputs.tag with
      | Some { total; window = Some w } ->
          let _, r =
            request env.tally notes conns c (Inputs.check_line s inp.Inputs.base ~window:w)
          in
          check env.tally
            (r.P.status = "ok" && r.P.count = Some total)
            (fun () ->
              Printf.sprintf "standing query %s: total %d, fresh query %s"
                s.Inputs.tag total
                (match r.P.count with Some n -> string_of_int n | None -> r.P.status))
      | _ -> check env.tally false (fun () -> "standing query " ^ s.Inputs.tag ^ " has no window"))
    inp.Inputs.subs

(* Ingest batches are sent on a schedule: open loop, batch j is due at
   the phase start plus j periods whatever the acks; closed loop, a batch
   is due (and sent) when the previous one is acked. Either way its
   latency runs from its due time to its ack. *)
type schedule = Open of float | Closed

(* One measured phase of at most two clients, multiplexed on one select
   loop: a closed-loop reader (one request in flight) sending [reads]
   cyclically on [b] until [seconds] pass, and an ingest client sending
   the first [n] batches on [a] on [schedule]. *)
let phase env notes srv ~log ~conns ?reads ?ingest ~seconds (inp : Inputs.t) =
  let latency = Stat.buf () and outside = Stat.buf () in
  let acks = Stat.buf () and lateness = Stat.buf () in
  let t0 = clk () in
  let stop_at = t0 +. seconds in
  (* the reader *)
  let next = ref 0 and sent_at = ref 0.0 in
  let has_reads = Option.is_some reads in
  let reading = ref has_reads in
  let send_next (b, (qs : Inputs.query array)) =
    let q = qs.(!next mod Array.length qs) in
    incr next;
    log (Read q);
    sent_at := clk ();
    send b q.Inputs.line
  in
  let on_read ((_, qs) as rd) (arrived, r) =
    let ms = (arrived -. !sent_at) *. 1000.0 in
    Stat.add latency ms;
    Option.iter (fun e -> Stat.add outside (ms -. e)) r.P.elapsed_ms;
    check_query env qs.((!next - 1) mod Array.length qs) r;
    if arrived < stop_at then send_next rd else reading := false
  in
  (* the ingest client *)
  let n = match ingest with Some (_, _, n) -> n | None -> 0 in
  let due = Array.make n 0.0 in
  let sent = ref 0 and acked = ref 0 in
  let send_batch a now =
    let bt = inp.Inputs.batches.(!sent) in
    Stat.add lateness ((now -. due.(!sent)) *. 1000.0);
    log (Batch bt);
    send a bt.Inputs.bline;
    incr sent
  in
  let ingest_turn (a, schedule, _) =
    let rec drain () =
      match next_response env.tally notes a with
      | None -> ()
      | Some (arrived, r) ->
          check_ack env inp.Inputs.batches.(!acked) r;
          Stat.add acks ((arrived -. due.(!acked)) *. 1000.0);
          incr acked;
          drain ()
    in
    drain ();
    let now = clk () in
    match schedule with
    | Open period ->
        while !sent < n && t0 +. (float_of_int !sent *. period) <= now do
          due.(!sent) <- t0 +. (float_of_int !sent *. period);
          send_batch a now
        done
    | Closed ->
        if !sent = !acked && !sent < n then begin
          due.(!sent) <- now;
          send_batch a now
        end
  in
  let wake () =
    match ingest with
    | Some (_, Open period, _) when !sent < n ->
        Float.min 1.0 (t0 +. (float_of_int !sent *. period) -. clk ())
    | _ -> 1.0
  in
  (* the blocks *)
  let blocks = ref [] in
  let c0 = ref (clocks srv.pid) and r0 = ref 0 and a0 = ref 0 in
  let close_block () =
    let c1 = clocks srv.pid in
    blocks :=
      {
        reads = (!r0, latency.Stat.len);
        acks = (!a0, acks.Stat.len);
        span_s = c1.at -. !c0.at;
        steal = steal_share !c0.host c1.host;
        cpu_s = c1.cpu -. !c0.cpu;
      }
      :: !blocks;
    c0 := c1;
    r0 := latency.Stat.len;
    a0 := acks.Stat.len
  in
  Option.iter send_next reads;
  while !reading || !acked < n do
    Option.iter ingest_turn ingest;
    Option.iter
      (fun ((b, _) as rd) ->
        let rec drain () =
          match next_response env.tally notes b with
          | None -> ()
          | Some x ->
              on_read rd x;
              drain ()
        in
        drain ())
      reads;
    if clk () -. !c0.at >= block_s
       && ((not has_reads) || latency.Stat.len - !r0 >= block_reads)
    then close_block ();
    if !reading || !acked < n then begin
      watchdog (match ingest with Some _ -> "ingest client" | None -> "read client");
      pump conns (wake ())
    end
  done;
  (* the last, partial block joins the one before it *)
  close_block ();
  let blocks =
    match !blocks with
    | last :: prev :: rest
      when last.span_s < block_s
           || (has_reads && fst last.reads + block_reads > snd last.reads) ->
        let w x = x.span_s in
        {
          reads = (fst prev.reads, snd last.reads);
          acks = (fst prev.acks, snd last.acks);
          span_s = w prev +. w last;
          steal = ((prev.steal *. w prev) +. (last.steal *. w last)) /. (w prev +. w last);
          cpu_s = prev.cpu_s +. last.cpu_s;
        }
        :: rest
    | bs -> bs
  in
  {
    latency_ms = Stat.contents latency;
    outside_ms = Stat.contents outside;
    ingest_ms = Stat.contents acks;
    lateness_ms = Stat.contents lateness;
    blocks = List.rev blocks;
  }

let run_served env (inp : Inputs.t) workload ~seconds ~setups ~tail ?trace_dir () =
  let setup_s = Array.make setups 0.0 and setup_steal = Array.make setups 0.0 in
  let start i ?trace_dir () =
    let h0 = host_jiffies () in
    let s, t = spawn ~tcsq:env.tcsq ~dir:env.dir ~flags:env.flags ?trace_dir inp.Inputs.graph_file in
    setup_s.(i) <- t;
    setup_steal.(i) <- steal_share h0 (host_jiffies ());
    s
  in
  (* half the start-ups come before the measured server and half after
     it, so that their median spans the run's host conditions *)
  let served = setups / 2 in
  for i = 0 to served - 1 do
    stop (start i ())
  done;
  let srv = start served ?trace_dir () in
  let run =
    Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
    let notes = { subs = Hashtbl.create 8; n_frames = 0 } in
    let events = ref [] in
    let log e = events := e :: !events in
    let reads = match workload with Scan -> inp.Inputs.scan | Point | Stream -> inp.Inputs.point in
    if Array.length reads = 0 then raise (Failed "the generated read mix is empty");
    let b = connect srv.socket in
    (* the standing queries and their ingest connection *)
    let subscribed () =
      let a = connect srv.socket in
      Array.iter
        (fun s ->
          log (Subscribe s);
          subscribe env notes [ a; b ] a s)
        inp.Inputs.subs;
      a
    in
    (* excluded warm-up: every distinct request once fills the plan cache *)
    Array.iter
      (fun q ->
        log (Warm q);
        check_query env q (snd (request env.tally notes [ b ] b q.Inputs.line)))
      reads;
    let a = match workload with Stream -> Some (subscribed ()) | Point | Scan -> None in
    let conns = b :: Option.to_list a in
    let cache0 = cache_counts env notes conns b in
    let measured =
      phase env notes srv ~log ~conns ~reads:(b, reads) ~seconds inp
        ?ingest:
          (Option.map
             (fun a ->
               ( a,
                 Open env.period_s,
                 min (Array.length inp.Inputs.batches)
                   (max 1 (int_of_float (seconds /. env.period_s))) ))
             a)
    in
    let rss_mb = peak_rss_mb srv.pid in
    let cache1 = cache_counts env notes conns b in
    (* the result format asks for every metric on every workload, so the
       read workloads end with an idle ingest tail: the stream workload's
       standing queries and batches, closed loop, no reads *)
    let a, ingest =
      match a with
      | Some a -> (Some a, measured)
      | None when tail > 0 ->
          let a = subscribed () in
          let n = min tail (Array.length inp.Inputs.batches) in
          (Some a, phase env notes srv ~log ~conns:[ a; b ] ~ingest:(a, Closed, n) ~seconds:0.0 inp)
      | None -> (None, measured)
    in
    Option.iter
      (fun a ->
        check_subs env notes [ a; b ] b inp;
        close a)
      a;
    close b;
    {
      setup_s;
      setup_steal;
      measured;
      ingest;
      frames = notes.n_frames;
      rss_mb;
      cache = List.map2 (fun (k, v1) (_, v0) -> (k, v1 - v0)) cache1 cache0;
      events = List.rev !events;
    }
  in
  for i = served + 1 to setups - 1 do
    stop (start i ())
  done;
  run
