open Semantics
open Tcsq_core

(* Intra-query parallelism for TSRJoin. Soundness rests on root-binding
   independence: every complete match descends from exactly one binding
   of the first leapfrog, so any partition of the root candidates is a
   partition of the matches. The coordinator materializes the root
   candidates once (charging their seeks to the caller's stats, exactly
   as a sequential run would), then workers pull index-range chunks
   from a shared atomic cursor — dynamic work-stealing, so one heavy
   root binding no longer serializes a whole statically-dealt lane.

   Budgets and deadlines stay global: each worker's [Run_stats] carries
   the caller's deadline, result emission passes through one atomic
   gate sized by [max_results], intermediate-tuple deltas are pushed
   into a shared total on the deadline-check cadence, and the first
   failure raises a shared stop flag that every other worker observes
   within [Run_stats.deadline_check_interval] counter ticks. *)

(* raised inside a worker to unwind when another worker failed first;
   never escapes this module *)
exception Cancelled

(* ---- process-wide shared pool ------------------------------------- *)

let global_pool : Pool.t option ref = ref None
let global_mutex = Mutex.create ()

let shared_pool ~at_least =
  let at_least = max 1 at_least in
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p when Pool.workers p >= at_least -> p
    | prev ->
        (* grow by replacement: drain-and-join the old pool, then
           create a bigger one. Rare (pool sizes are sticky). *)
        (match prev with Some p -> Pool.shutdown p | None -> ());
        let p = Pool.create ~workers:at_least ~max_depth:(2 * at_least) in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p

(* ---- core driver --------------------------------------------------- *)

(* Streaming: each worker buffers its matches and flushes them under one
   mutex, so the caller's [emit] is never entered concurrently. *)
let exec_core ~pool ~domains ~chunk ~stats ~obs ~config ~plan ~limit ~counted
    tai q ~emit =
  let candidates = Tsrjoin.root_candidates ?stats ~obs ~plan tai q in
  let n = Array.length candidates in
  let limits =
    match stats with Some s -> s.Run_stats.limits | None -> Run_stats.no_limits
  in
  let deadline =
    match stats with Some s -> s.Run_stats.deadline | None -> None
  in
  let dstats =
    Array.init domains (fun _ ->
        let d = Run_stats.create () in
        Run_stats.set_deadline d deadline;
        d)
  in
  let dobs = Array.init domains (fun _ -> Obs.Sink.child obs) in
  (* each worker counts its own tail past [limit], into its own cell.
     Under a budget every match must pass the shared gates below, so
     then the workers enumerate. *)
  let limit = if limits = Run_stats.no_limits then limit else max_int in
  let dcounted = Array.init domains (fun _ -> ref 0) in
  let stop = Atomic.make false in
  let first_err = ref None in
  let err_mutex = Mutex.create () in
  let record_err e =
    Atomic.set stop true;
    Mutex.lock err_mutex;
    (match !first_err with None -> first_err := Some e | Some _ -> ());
    Mutex.unlock err_mutex
  in
  (* result budget: an atomic emission gate shared by all workers, so
     exactly [max_results] matches are emitted before the raise — the
     same cut a sequential run makes *)
  let max_results = limits.Run_stats.max_results in
  let gate_result =
    if max_results = max_int then fun () -> ()
    else begin
      let emitted = Atomic.make 0 in
      fun () ->
        if Atomic.fetch_and_add emitted 1 >= max_results then
          raise (Run_stats.Limit_exceeded "result budget exhausted")
    end
  in
  (* intermediate budget: per-domain counts pushed as deltas into a
     shared total on the check cadence; overshoot is bounded by
     domains * deadline_check_interval tuples *)
  let max_intermediate = limits.Run_stats.max_intermediate in
  let g_intermediate = Atomic.make 0 in
  let make_check ds =
    let pushed = ref 0 in
    fun () ->
      if Atomic.get stop then raise Cancelled;
      if max_intermediate < max_int then begin
        let cur = ds.Run_stats.intermediate in
        let delta = cur - !pushed in
        if delta > 0 then begin
          pushed := cur;
          if Atomic.fetch_and_add g_intermediate delta + delta > max_intermediate
          then
            raise (Run_stats.Limit_exceeded "intermediate-tuple budget exhausted")
        end
      end
  in
  let emit_mutex = Mutex.create () in
  let bufs = Array.make domains [] in
  let fill = Array.make domains 0 in
  let flush w =
    if fill.(w) > 0 then begin
      let ms = List.rev bufs.(w) in
      bufs.(w) <- [];
      fill.(w) <- 0;
      Mutex.lock emit_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock emit_mutex)
        (fun () -> List.iter emit ms)
    end
  in
  let cursor = Atomic.make 0 in
  let claim_chunk () =
    let rec loop () =
      let lo = Atomic.get cursor in
      if lo >= n then None
      else begin
        let size =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 ((n - lo) / (8 * domains))
        in
        let hi = min n (lo + size) in
        if Atomic.compare_and_set cursor lo hi then Some (lo, hi) else loop ()
      end
    in
    loop ()
  in
  let do_work w =
    let ds = dstats.(w) in
    Run_stats.set_on_check ds (Some (make_check ds));
    let claim () = if Atomic.get stop then None else claim_chunk () in
    (match
       Tsrjoin.run ~stats:ds ~obs:dobs.(w) ?config ~plan ~limit
         ~counted:dcounted.(w)
         ~roots:(Tsrjoin.Root_chunks { candidates; claim })
         tai q
         ~emit:(fun m ->
           gate_result ();
           bufs.(w) <- m :: bufs.(w);
           fill.(w) <- fill.(w) + 1;
           if fill.(w) >= 64 then flush w)
     with
    | () -> ()
    | exception Cancelled -> ()
    | exception e -> record_err e);
    Run_stats.set_on_check ds None;
    match flush w with () -> () | exception e -> record_err e
  in
  (* latch: [pending] is set to the full helper count *before* any
     helper can finish, then lowered by whatever the pool sheds *)
  let latch_mutex = Mutex.create () in
  let latch_done = Condition.create () in
  let pending = ref 0 in
  let helper w () =
    do_work w;
    Mutex.lock latch_mutex;
    decr pending;
    if !pending = 0 then Condition.broadcast latch_done;
    Mutex.unlock latch_mutex
  in
  let helpers = List.init (domains - 1) (fun i -> helper (i + 1)) in
  Mutex.lock latch_mutex;
  pending := domains - 1;
  Mutex.unlock latch_mutex;
  let accepted = Pool.submit_if_idle pool helpers in
  Mutex.lock latch_mutex;
  pending := !pending - (domains - 1 - accepted);
  Mutex.unlock latch_mutex;
  do_work 0;
  Mutex.lock latch_mutex;
  while !pending > 0 do
    Condition.wait latch_done latch_mutex
  done;
  Mutex.unlock latch_mutex;
  (* merge before re-raising: a truncated run still reports the work it
     did, matching sequential budget semantics *)
  (match stats with
  | Some s -> Array.iter (fun d -> Run_stats.merge_into s d) dstats
  | None -> ());
  Array.iter (fun d -> Obs.Sink.merge_into obs d) dobs;
  Array.iter (fun c -> counted := !counted + !c) dcounted;
  match !first_err with Some e -> raise e | None -> ()

(* A plan whose first step is not a leapfrog (or a single-domain call)
   runs sequentially on the caller; parallel machinery engages only
   when it can actually partition roots. *)
let run ?pool ?domains ?chunk ?stats ?(obs = Obs.Sink.null) ?config ?plan
    ?(limit = max_int) ?(counted = ref 0) tai q ~emit =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Parallel: need >= 1 domain";
        d
    | None -> Domain.recommended_domain_count ()
  in
  let plan = match plan with Some p -> p | None -> Plan.build tai q in
  let steps = Plan.steps plan in
  if domains > 1 && Array.length steps > 0 && steps.(0).Plan.produce_binding
  then
    let pool =
      match pool with Some p -> p | None -> shared_pool ~at_least:(domains - 1)
    in
    exec_core ~pool ~domains ~chunk ~stats ~obs ~config ~plan ~limit ~counted
      tai q ~emit
  else Tsrjoin.run ?stats ~obs ?config ~plan ~limit ~counted tai q ~emit
