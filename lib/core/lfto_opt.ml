open Tgraph

type config = { use_eci : bool; use_del_skip : bool; use_lazy : bool }

let all_on = { use_eci = true; use_del_skip = true; use_lazy = true }
let all_off = { use_eci = false; use_del_skip = false; use_lazy = false }

exception Abort_sweep

(* Reusable per-sweep scratch space: TSRJoin invokes one LFTO per pivot
   binding, and without reuse the array/vector allocations dominate the
   per-binding constant on selective queries. Buffers grow to the widest
   k seen and are reset (not shrunk) per run. *)
type context = {
  mutable cur : int array;
  mutable stop : int array;
  mutable starts : int array;
  mutable tuples : Temporal.Coverage.tuple array;
  mutable active : Edge.t Temporal.Vec.t array;
  mutable members : Edge.t array;
  candidates : Edge.t Temporal.Vec.t;
  (* the one-relation sweep's pre-window edges alive at [ws]: the first
     [n_alive] slots, in active-list order *)
  mutable alive : Edge.t array;
  mutable n_alive : int;
}

let create_context () =
  {
    cur = [||];
    stop = [||];
    starts = [||];
    tuples = [||];
    active = [||];
    members = [||];
    candidates = Temporal.Vec.create ();
    alive = [||];
    n_alive = 0;
  }

let dummy_edge =
  Edge.make ~id:0 ~src:0 ~dst:0 ~lbl:0 (Temporal.Interval.point 0)

let ensure_capacity ctx k =
  if Array.length ctx.cur < k then begin
    ctx.cur <- Array.make k 0;
    ctx.stop <- Array.make k 0;
    ctx.starts <- Array.make k 0;
    ctx.tuples <- Array.make k { Temporal.Coverage.cs = 0; ce = 0; ec = 0 };
    ctx.active <- Array.init k (fun _ -> Temporal.Vec.create ());
    ctx.members <- Array.make k dummy_edge
  end;
  Array.iter Temporal.Vec.clear ctx.active;
  Temporal.Vec.clear ctx.candidates

(* The coverage tuples of relations [i..] at [t] into [tuples]; false
   when one has none. *)
let rec fetch_tuples tsrs tuples i t =
  i = Array.length tsrs
  ||
  match Tsr.get_coverage_tuple tsrs.(i) t with
  | Some tup ->
      tuples.(i) <- tup;
      fetch_tuples tsrs tuples (i + 1) t
  | None -> false

(* Algorithm 2 from [t] on, filling [ctx.starts]; false when provably
   empty.
   Invariant: a coverage tuple (cs, ce, ec) guarantees that relation R
   holds an interval spanning [ec, ce] (the earliest concurrent is
   constant over [cs, ce] only if the interval starting at ec survives
   through ce). Hence if the k tuples' [ec, ce] ranges share a point, a
   combination exists there, and every edge relevant to any combination
   at or after that point starts at or after its relation's ec (earliest
   concurrents are monotone in t). *)
let rec first_joint_cover ctx tsrs t =
  let tuples = ctx.tuples and k = Array.length tsrs in
  if not (fetch_tuples tsrs tuples 0 t) then false
  else begin
    let max_ec = ref min_int and min_ce = ref max_int and max_cs = ref min_int in
    for i = 0 to k - 1 do
      let { Temporal.Coverage.cs; ce; ec } = tuples.(i) in
      if ec > !max_ec then max_ec := ec;
      if ce < !min_ce then min_ce := ce;
      if cs > !max_cs then max_cs := cs
    done;
    if !max_ec <= !min_ce then begin
      for i = 0 to k - 1 do
        ctx.starts.(i) <- tuples.(i).Temporal.Coverage.ec
      done;
      true
    end
    else
      (* Some tuple starts after t (otherwise all ranges contain t),
         so max_cs > t and the search makes progress. *)
      first_joint_cover ctx tsrs !max_cs
  end

let optimize_start_point_into ctx tsrs ~ws =
  let k = Array.length tsrs in
  let no_coverage = ref false in
  for i = 0 to k - 1 do
    if Option.is_none (Tsr.coverage tsrs.(i)) then no_coverage := true
  done;
  if !no_coverage then begin
    (* no ECI on some relation: no skip possible *)
    Array.fill ctx.starts 0 k min_int;
    true
  end
  else first_joint_cover ctx tsrs ws

let optimize_start_point tsrs ~ws =
  let k = Array.length tsrs in
  if k = 0 then invalid_arg "Lfto_opt.optimize_start_point: no relations";
  let ctx = create_context () in
  ensure_capacity ctx k;
  if optimize_start_point_into ctx tsrs ~ws then Some (Array.sub ctx.starts 0 k)
  else None

(* Each relation's slice [ctx.cur.(i), ctx.stop.(i)) of the edges
   starting from [ctx.starts.(i)] up to [we]. *)
let slice_bounds ctx tsrs ~we =
  let starts = ctx.starts and cur = ctx.cur and stop = ctx.stop in
  for i = 0 to Array.length tsrs - 1 do
    cur.(i) <-
      (if starts.(i) = min_int then 0
       else Tsr.lower_bound_start tsrs.(i) starts.(i))
  done;
  for i = 0 to Array.length tsrs - 1 do
    stop.(i) <- Tsr.upper_bound_start tsrs.(i) we
  done

(* The prologue [run] and [count] share: Algorithm 2's start point
   (an index lookup, so under [Tai_probe]), then the slices (under
   [Tsr_slice]). False when the ECIs prove the sweep empty; the slices
   are then not computed. Under the null sink no span closure is made. *)
let open_slices ~obs ~config ctx tsrs ~ws ~we =
  let traced = Obs.Sink.enabled obs in
  let feasible =
    if not config.use_eci then begin
      Array.fill ctx.starts 0 (Array.length tsrs) min_int;
      true
    end
    else if traced then
      Obs.Sink.span obs Obs.Phase.Tai_probe (fun () ->
          optimize_start_point_into ctx tsrs ~ws)
    else optimize_start_point_into ctx tsrs ~ws
  in
  if feasible then
    if traced then
      Obs.Sink.span obs Obs.Phase.Tsr_slice (fun () ->
          slice_bounds ctx tsrs ~we)
    else slice_bounds ctx tsrs ~we;
  feasible

(* ---------- the one-relation sweep ---------- *)

(* The general sweep's active-list order: by end, then by start. *)
let cmp_end a b =
  let c = Int.compare (Edge.te a) (Edge.te b) in
  if c <> 0 then c else Edge.compare_by_start a b

(* Inserts [e] into [ctx.alive] after every element not above it, as
   [Temporal.Vec.insert_sorted] does for an active list. *)
let insert_alive ctx e =
  let n = ctx.n_alive in
  if n = Array.length ctx.alive then begin
    let grown = Array.make (if n < 8 then 8 else 2 * n) dummy_edge in
    Array.blit ctx.alive 0 grown 0 n;
    ctx.alive <- grown
  end;
  let alive = ctx.alive in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_end alive.(mid) e <= 0 then lo := mid + 1 else hi := mid
  done;
  Array.blit alive !lo alive (!lo + 1) (n - !lo);
  alive.(!lo) <- e;
  ctx.n_alive <- n + 1

(* Walks the slice's edges starting before [ws] from [start]: those
   still alive at [ws] are counted in [ctx.n_alive] and, when [keep],
   kept in [ctx.alive]. Returns the index of the first in-window edge
   ([stop] when there is none). *)
let pre_window ctx tsr ~ws ~start ~stop ~keep =
  ctx.n_alive <- 0;
  let i = ref start in
  while !i < stop && Edge.ts (Tsr.get tsr !i) < ws do
    let e = Tsr.get tsr !i in
    if Edge.te e >= ws then begin
      if keep then insert_alive ctx e else ctx.n_alive <- ctx.n_alive + 1
    end;
    incr i
  done;
  !i

let add_scanned stats n =
  match stats with
  | Some s when n > 0 -> Semantics.Run_stats.add_scanned s n
  | Some _ | None -> ()

let emit_one stats members emit e =
  (match stats with
  | Some s -> Semantics.Run_stats.add_enum_steps s 1
  | None -> ());
  members.(0) <- e;
  emit members (Edge.ivl e)

(* One past the batch starting at [j]: the run of equal starts under
   lazy enumeration, the lone edge otherwise. *)
let batch_end ~use_lazy tsr j ~stop =
  if not use_lazy then j + 1
  else begin
    let ts = Edge.ts (Tsr.get tsr j) in
    let b = ref (j + 1) in
    while !b < stop && Edge.ts (Tsr.get tsr !b) = ts do
      incr b
    done;
    !b
  end

(* The general sweep on one relation without its active lists. It
   emits the pre-window edges alive at [ws] in active-list order, then
   every in-window edge in slice order, each with its own interval, and
   reports [scanned] as the general sweep has it at each emit: through
   the first in-window edge at the window transition, through the next
   batch's first edge when a batch is flushed, the whole slice at the
   end. delSkip never fires on one relation: a batch is flushed while
   the scanner still holds the next batch's edge, or at the end, where
   the sweep does not test for it. *)
let sweep_one ?stats ~config ctx tsr ~ws ~emit =
  let start = ctx.cur.(0) and stop = ctx.stop.(0) in
  if start < stop then begin
    let first = pre_window ctx tsr ~ws ~start ~stop ~keep:true in
    let scanned = ref (if first < stop then first + 1 else stop) in
    add_scanned stats (!scanned - start);
    let members = ctx.members and alive = ctx.alive in
    for j = 0 to ctx.n_alive - 1 do
      emit_one stats members emit alive.(j)
    done;
    let j = ref first in
    while !j < stop do
      let b = batch_end ~use_lazy:config.use_lazy tsr !j ~stop in
      let upto = if b < stop then b + 1 else stop in
      add_scanned stats (upto - !scanned);
      scanned := upto;
      for m = !j to b - 1 do
        emit_one stats members emit (Tsr.get tsr m)
      done;
      j := b
    done
  end

(* What [sweep_one] would emit: the alive pre-window edges and every
   in-window one. *)
let count_one ctx tsr ~ws =
  let start = ctx.cur.(0) and stop = ctx.stop.(0) in
  if start >= stop then 0
  else
    let first = pre_window ctx tsr ~ws ~start ~stop ~keep:false in
    ctx.n_alive + (stop - first)

let count ?stats ?(obs = Obs.Sink.null) ~ctx ~config ~tsrs ~ws ~we ~max_count
    () =
  if Array.length tsrs <> 1 then
    invalid_arg "Lfto_opt.count: needs exactly one relation";
  if we < ws then invalid_arg "Lfto_opt.count: empty valid window";
  ensure_capacity ctx 1;
  if not (open_slices ~obs ~config ctx tsrs ~ws ~we) then Some 0
  else begin
    let tsr = tsrs.(0) in
    let n =
      if Obs.Sink.enabled obs then
        Obs.Sink.span obs Obs.Phase.Interval_sweep (fun () ->
            count_one ctx tsr ~ws)
      else count_one ctx tsr ~ws
    in
    if n > max_count then None
    else begin
      add_scanned stats (ctx.stop.(0) - ctx.cur.(0));
      (match stats with
      | Some s when n > 0 -> Semantics.Run_stats.add_enum_steps s n
      | Some _ | None -> ());
      Some n
    end
  end

(* ---------- the general sweep (Algorithm 4) ---------- *)

let sweep ?stats ?trace ~config ctx tsrs ~ws ~emit =
  let tracing = Option.is_some trace in
  let trace ev = match trace with Some f -> f ev | None -> () in
  let k = Array.length tsrs in
  let tick_scanned () =
    match stats with
    | Some s -> Semantics.Run_stats.tick_scanned s
    | None -> ()
  in
  let add_enum_steps n =
    match stats with
    | Some s -> Semantics.Run_stats.add_enum_steps s n
    | None -> ()
  in
  let cur = ctx.cur in
  let stop = ctx.stop in
  let active = ctx.active in
  let insert_active i e =
    Temporal.Vec.insert_sorted ~cmp:cmp_end active.(i) e;
    trace (Lfto.Inserted (i, e))
  in
  let expire_all t =
    let expire_one a =
      if tracing then begin
        let removed = ref [] in
        let n =
          Temporal.Vec.remove_prefix
            (fun e ->
              if Edge.te e < t then begin
                removed := e :: !removed;
                true
              end
              else false)
            a
        in
        if n > 0 then trace (Lfto.Expired (List.rev !removed))
      end
      else ignore (Temporal.Vec.remove_prefix (fun e -> Edge.te e < t) a)
    in
    for i = 0 to k - 1 do
      expire_one active.(i)
    done
  in
  (* delSkip (Algorithm 3): expiry plus the forward-edge cut. *)
  let del_skip t =
    expire_all t;
    if not config.use_del_skip then true
    else begin
      let dead = ref false in
      for i = 0 to k - 1 do
        if Temporal.Vec.is_empty active.(i) && cur.(i) >= stop.(i) then
          dead := true
      done;
      not !dead
    end
  in
  let members = ctx.members in
  (* Enumerate combinations where slot [slot] ranges over [pick]
     (either a batch C or an active list) and every other slot over
     its active list. [slot = -1] means all slots from active
     (the inRange transition's enumLazy(Active, ∅)). The running
     lifespan is [lo, hi]; the emitted interval is made at the leaf. *)
  let enumerate ~slot ~pick =
    let rec fill rel lo hi =
      if rel = k then begin
        let life = Temporal.Interval.make lo hi in
        if tracing then trace (Lfto.Enumerated (Array.copy members, life));
        emit members life
      end
      else begin
        let source : Edge.t Temporal.Vec.t =
          if rel = slot then pick else active.(rel)
        in
        for x = 0 to Temporal.Vec.length source - 1 do
          let m = Temporal.Vec.get source x in
          add_enum_steps 1;
          members.(rel) <- m;
          let lo' = if Edge.ts m > lo then Edge.ts m else lo in
          let hi' = if Edge.te m < hi then Edge.te m else hi in
          if lo' <= hi' then fill (rel + 1) lo' hi'
        done
      end
    in
    fill 0 min_int max_int
  in
  let candidates = ctx.candidates in
  let in_range = ref false in
  let batch_time = ref min_int and batch_rel = ref (-1) in
  let flush_boundary () =
    (* Runs when a batch closes: either the transition into the
       window (enumerate the straddling combinations) or a normal
       lazy batch. Raises Abort_sweep when delSkip cuts the sweep. *)
    if not !in_range then begin
      expire_all ws;
      enumerate ~slot:(-1) ~pick:candidates (* candidates empty here *);
      in_range := true
    end
    else begin
      if not (del_skip !batch_time) then begin
        trace Lfto.Sweep_aborted;
        raise Abort_sweep
      end;
      if not (Temporal.Vec.is_empty candidates) then
        enumerate ~slot:!batch_rel ~pick:candidates;
      Temporal.Vec.clear candidates
    end
  in
  let any_open () =
    let rec go i = i < k && (cur.(i) < stop.(i) || go (i + 1)) in
    go 0
  in
  let next_scanner () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if cur.(i) < stop.(i) then
        if
          !best < 0
          || Edge.compare_by_start (Tsr.get tsrs.(i) cur.(i))
               (Tsr.get tsrs.(!best) cur.(!best))
             < 0
        then best := i
    done;
    !best
  in
  try
    while any_open () do
      let i = next_scanner () in
      let e = Tsr.get tsrs.(i) cur.(i) in
      tick_scanned ();
      trace (Lfto.Scanned (i, e));
      if Edge.ts e < ws then
        (* Pre-window edge: park it; the straddling combinations are
           enumerated in one pass at the window transition. *)
        insert_active i e
      else begin
        let boundary =
          (not config.use_lazy)
          || (not !in_range)
          || !batch_time <> Edge.ts e
          || !batch_rel <> i
        in
        if boundary then flush_boundary ();
        insert_active i e;
        Temporal.Vec.push candidates e;
        batch_time := Edge.ts e;
        batch_rel := i
      end;
      cur.(i) <- cur.(i) + 1;
      if cur.(i) >= stop.(i) then trace (Lfto.Scanner_closed i)
    done;
    (* Final flush: the last batch (or, if nothing started inside
       the window, the straddling combinations) is still pending. *)
    if not !in_range then begin
      expire_all ws;
      enumerate ~slot:(-1) ~pick:candidates
    end
    else begin
      expire_all !batch_time;
      if not (Temporal.Vec.is_empty candidates) then
        enumerate ~slot:!batch_rel ~pick:candidates
    end
  with Abort_sweep -> ()

(* A trace needs the general sweep's active-list events. *)
let sweep_any ?stats ?trace ~config ctx tsrs ~ws ~emit =
  if Array.length tsrs = 1 && Option.is_none trace then
    sweep_one ?stats ~config ctx tsrs.(0) ~ws ~emit
  else sweep ?stats ?trace ~config ctx tsrs ~ws ~emit

let run ?stats ?(obs = Obs.Sink.null) ?trace ?ctx ~config ~tsrs ~ws ~we ~emit
    () =
  let k = Array.length tsrs in
  if k = 0 then invalid_arg "Lfto_opt.run: no relations";
  if we < ws then invalid_arg "Lfto_opt.run: empty valid window";
  let ctx = match ctx with Some c -> c | None -> create_context () in
  ensure_capacity ctx k;
  if open_slices ~obs ~config ctx tsrs ~ws ~we then
    if Obs.Sink.enabled obs then
      Obs.Sink.span obs Obs.Phase.Interval_sweep (fun () ->
          sweep_any ?stats ?trace ~config ctx tsrs ~ws ~emit)
    else sweep_any ?stats ?trace ~config ctx tsrs ~ws ~emit
