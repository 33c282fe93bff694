open Tgraph

type config = { use_eci : bool; use_del_skip : bool; use_lazy : bool }

let all_on = { use_eci = true; use_del_skip = true; use_lazy = true }
let all_off = { use_eci = false; use_del_skip = false; use_lazy = false }

(* Algorithm 2. Invariant: a coverage tuple (cs, ce, ec) guarantees that
   relation R holds an interval spanning [ec, ce] (the earliest
   concurrent is constant over [cs, ce] only if the interval starting at
   ec survives through ce). Hence if the k tuples' [ec, ce] ranges share
   a point, a combination exists there, and every edge relevant to any
   combination at or after that point starts at or after its relation's
   ec (earliest concurrents are monotone in t). *)
let optimize_start_point tsrs ~ws =
  let k = Array.length tsrs in
  if k = 0 then invalid_arg "Lfto_opt.optimize_start_point: no relations";
  if Array.exists (fun tsr -> Tsr.coverage tsr = None) tsrs then
    (* No ECI on some relation: no skip possible. *)
    Some (Array.make k min_int)
  else begin
    let tuples =
      Array.make k { Temporal.Coverage.cs = 0; ce = 0; ec = 0 }
    in
    let rec loop t =
      let missing = ref false in
      Array.iteri
        (fun i tsr ->
          if not !missing then
            match Tsr.get_coverage_tuple tsr t with
            | Some tup -> tuples.(i) <- tup
            | None -> missing := true)
        tsrs;
      if !missing then None
      else begin
        let max_ec = ref min_int and min_ce = ref max_int and max_cs = ref min_int in
        Array.iter
          (fun { Temporal.Coverage.cs; ce; ec } ->
            max_ec := max !max_ec ec;
            min_ce := min !min_ce ce;
            max_cs := max !max_cs cs)
          tuples;
        if !max_ec <= !min_ce then
          Some (Array.map (fun tup -> tup.Temporal.Coverage.ec) tuples)
        else
          (* Some tuple starts after t (otherwise all ranges contain t),
             so max_cs > t and the loop makes progress. *)
          loop !max_cs
      end
    in
    loop ws
  end

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

(* context-based variant of Algorithm 2: fills ctx.starts, returns
   false when provably empty *)
let optimize_start_point_into ctx tsrs ~ws =
  let k = Array.length tsrs in
  let no_coverage = ref false in
  Array.iter
    (fun tsr -> if Tsr.coverage tsr = None then no_coverage := true)
    tsrs;
  if !no_coverage then begin
    Array.fill ctx.starts 0 k min_int;
    true
  end
  else begin
    let rec loop t =
      let missing = ref false in
      Array.iteri
        (fun i tsr ->
          if not !missing then
            match Tsr.get_coverage_tuple tsr t with
            | Some tup -> ctx.tuples.(i) <- tup
            | None -> missing := true)
        tsrs;
      if !missing then false
      else begin
        let max_ec = ref min_int and min_ce = ref max_int and max_cs = ref min_int in
        for i = 0 to k - 1 do
          let { Temporal.Coverage.cs; ce; ec } = ctx.tuples.(i) in
          max_ec := max !max_ec ec;
          min_ce := min !min_ce ce;
          max_cs := max !max_cs cs
        done;
        if !max_ec <= !min_ce then begin
          for i = 0 to k - 1 do
            ctx.starts.(i) <- ctx.tuples.(i).Temporal.Coverage.ec
          done;
          true
        end
        else loop !max_cs
      end
    in
    loop ws
  end

(* The prologue [run] and [count] share: Algorithm 2's start point
   (an index lookup, so under [Tai_probe]), then each relation's slice
   [ctx.cur.(i), ctx.stop.(i)) of the edges starting from that point up
   to [we] (under [Tsr_slice]). False when the ECIs prove the sweep
   empty; the slices are then not computed. *)
let open_slices ~obs ~config ctx tsrs ~ws ~we =
  let k = Array.length tsrs in
  let feasible =
    if config.use_eci then
      Obs.Sink.span obs Obs.Phase.Tai_probe (fun () ->
          optimize_start_point_into ctx tsrs ~ws)
    else begin
      Array.fill ctx.starts 0 k min_int;
      true
    end
  in
  feasible
  && begin
       let starts = ctx.starts and cur = ctx.cur and stop = ctx.stop in
       Obs.Sink.span obs Obs.Phase.Tsr_slice (fun () ->
           for i = 0 to k - 1 do
             cur.(i) <-
               (if starts.(i) = min_int then 0
                else Tsr.lower_bound_start tsrs.(i) starts.(i))
           done;
           for i = 0 to k - 1 do
             stop.(i) <- Tsr.upper_bound_start tsrs.(i) we
           done);
       true
     end

let count ?stats ?(obs = Obs.Sink.null) ~ctx ~config ~tsrs ~ws ~we ~max_count
    () =
  if Array.length tsrs <> 1 then
    invalid_arg "Lfto_opt.count: needs exactly one relation";
  if we < ws then invalid_arg "Lfto_opt.count: empty valid window";
  ensure_capacity ctx 1;
  if not (open_slices ~obs ~config ctx tsrs ~ws ~we) then Some 0
  else begin
    (* with one relation the sweep emits every edge of the slice that is
       still alive at [ws]: the pre-window ones that survive expiry at
       the window transition, and every in-window start *)
    let tsr = tsrs.(0) and start = ctx.cur.(0) and stop = ctx.stop.(0) in
    let n =
      Obs.Sink.span obs Obs.Phase.Interval_sweep (fun () ->
          let n = ref 0 in
          for i = start to stop - 1 do
            if Edge.te (Tsr.get tsr i) >= ws then incr n
          done;
          !n)
    in
    if n > max_count then None
    else begin
      (match stats with
      | Some s ->
          if stop > start then Semantics.Run_stats.add_scanned s (stop - start);
          if n > 0 then Semantics.Run_stats.add_enum_steps s n
      | None -> ());
      Some n
    end
  end

let run ?stats ?(obs = Obs.Sink.null) ?trace ?ctx ~config ~tsrs ~ws ~we ~emit
    () =
  let tracing = Option.is_some trace in
  let trace ev = match trace with Some f -> f ev | None -> () in
  let k = Array.length tsrs in
  if k = 0 then invalid_arg "Lfto_opt.run: no relations";
  if we < ws then invalid_arg "Lfto_opt.run: empty valid window";
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
  let ctx = match ctx with Some c -> c | None -> create_context () in
  ensure_capacity ctx k;
  if not (open_slices ~obs ~config ctx tsrs ~ws ~we) then ()
  else begin
      let cur = ctx.cur in
      let stop = ctx.stop in
      let active = ctx.active in
      let cmp_end a b =
        let c = Int.compare (Edge.te a) (Edge.te b) in
        if c <> 0 then c else Edge.compare_by_start a b
      in
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
         (the inRange transition's enumLazy(Active, ∅)). *)
      let enumerate ~slot ~pick =
        let rec fill rel life =
          if rel = k then begin
            if tracing then trace (Lfto.Enumerated (Array.copy members, life));
            emit members life
          end
          else begin
            let source : Edge.t Temporal.Vec.t =
              if rel = slot then pick else active.(rel)
            in
            Temporal.Vec.iter
              (fun m ->
                add_enum_steps 1;
                members.(rel) <- m;
                match Temporal.Interval.intersect life (Edge.ivl m) with
                | Some life' -> fill (rel + 1) life'
                | None -> ())
              source
          end
        in
        fill 0 (Temporal.Interval.make min_int max_int)
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
      (try
         Obs.Sink.span obs Obs.Phase.Interval_sweep @@ fun () ->
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
       with Abort_sweep -> ());
      ignore members
  end
