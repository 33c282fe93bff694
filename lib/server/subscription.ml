(* Standing-query registry: the server-side half of subscribe/watch.

   Each subscription holds an extended query, a window mode, the current
   result set and [seen], the edge count of the graph that set was
   computed on. After every ingest batch [on_ingest] re-derives each
   subscription's window (sliding windows track the stream head) and
   pushes the *delta* (new matches plus retractions) through the
   subscription's [push] callback. The invariant tests and the
   ingest-commutativity relation lean on is:

     initial \/ (all added) \ (all retracted) = fresh re-query

   at every batch boundary. For a plain core it holds by the delta
   rule. Ingest only appends, and the stream head (the newest edge end)
   never moves back, so a window only moves forward, past every old
   edge. So no match of old edges alone enters the window:
   - [retracted] is the standing matches the new window no longer
     meets, a filter over [current] with no evaluation;
   - [added] is exactly the matches that bind at least one batch edge
     (ids [seen, n)). For each query edge [i] they are found by a
     TSRJoin plan rooted at [i]'s source variable, restricted to the
     sources of the batch edges that can bind [i] and to the window
     clipped to those edges' hull, keeping a match iff [i] is its first
     query edge bound to a batch edge, so each new match comes out once.
   Plain subscriptions with the same core pattern (the group key, fixed
   at subscribe time) and the same [seen] share one delta evaluation
   over the hull of their windows, and each takes the matches its own
   window meets.

   Decorated queries (NOT/EXISTS/Allen/aggregates) are re-evaluated in
   full through [Engine.evaluate_ext], and the delta is the difference
   of the two result sets: NOT is not monotone in the graph (a new edge
   on its right side cuts a standing match), nor is TOP k.

   Thread-safety: the subs list is guarded by [reg_mutex] so subscribe/
   unsubscribe/drop_conn may run from any connection thread. Per-sub
   mutable state ([window], [current], [seen]) is only touched by
   [subscribe] (before the sub is published) and [on_ingest]; the
   server serializes all three entry points under its ingest mutex,
   which is also what makes the delta-vs-fresh-re-query oracle exact. *)

open Semantics

module MSet = Set.Make (struct
  type t = Match_result.t

  let compare = Match_result.compare
end)

type mode = Fixed | Sliding of int

type delta = {
  sub : int;
  tag : string option;
  window : Temporal.Interval.t;
  added : Match_result.t list;
  retracted : Match_result.t list;
  total : int; (* standing-set size after this delta *)
  generation : int;
  elapsed_ms : float;
}

type sub = {
  id : int;
  tag : string option;
  eq : Equery.t;
  mode : mode;
  conn : Unix.file_descr option;
  push : delta -> unit;
  group : string option;
      (* plain cores: the core rendered at a fixed window, equal for
         subscriptions that share delta evaluation; None when decorated *)
  mutable window : Temporal.Interval.t;
  mutable current : MSet.t;
  mutable seen : int; (* edges of the graph [current] was computed on *)
}

type t = {
  reg_mutex : Mutex.t;
  mutable subs : sub list; (* newest first *)
  mutable next_id : int;
}

let create () = { reg_mutex = Mutex.create (); subs = []; next_id = 0 }

let active t =
  Mutex.lock t.reg_mutex;
  let n = List.length t.subs in
  Mutex.unlock t.reg_mutex;
  n

(* the stream head: sliding windows end at the newest edge end seen *)
let stream_head g =
  if Tgraph.Graph.n_edges g = 0 then 0
  else Temporal.Interval.te (Tgraph.Graph.time_domain g)

let window_for mode ~fallback g =
  match mode with
  | Fixed -> fallback
  | Sliding width ->
      let hi = stream_head g in
      Temporal.Interval.make (hi - width + 1) hi

let evaluate_at engine eq w =
  Workload.Engine.evaluate_ext engine Workload.Engine.Tsrjoin
    (Equery.with_window eq w)

let subscribe t ~engine ?conn ?tag ?window_width ~push eq =
  let mode =
    match window_width with None -> Fixed | Some w -> Sliding w
  in
  let g = Workload.Engine.graph engine in
  let window =
    window_for mode ~fallback:(Query.window (Equery.core eq)) g
  in
  let initial = evaluate_at engine eq window in
  let group =
    if Equery.is_plain eq then
      Some
        (Qlang.render g
           (Query.with_window (Equery.core eq) (Temporal.Interval.make 0 0)))
    else None
  in
  Mutex.lock t.reg_mutex;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subs <-
    {
      id;
      tag;
      eq;
      mode;
      conn;
      push;
      group;
      window;
      current = MSet.of_list initial;
      seen = Tgraph.Graph.n_edges g;
    }
    :: t.subs;
  Mutex.unlock t.reg_mutex;
  (id, window, initial)

let unsubscribe t id =
  Mutex.lock t.reg_mutex;
  let before = List.length t.subs in
  t.subs <- List.filter (fun s -> s.id <> id) t.subs;
  let removed = List.length t.subs < before in
  Mutex.unlock t.reg_mutex;
  removed

let drop_conn t fd =
  Mutex.lock t.reg_mutex;
  let before = List.length t.subs in
  t.subs <- List.filter (fun s -> s.conn <> Some fd) t.subs;
  let dropped = before - List.length t.subs in
  Mutex.unlock t.reg_mutex;
  dropped

let push_delta ~generation ~t0 ~seen s window ~added ~retracted =
  s.window <- window;
  s.seen <- seen;
  s.current <- MSet.union (MSet.diff s.current retracted) added;
  s.push
    {
      sub = s.id;
      tag = s.tag;
      window;
      added = MSet.elements added;
      retracted = MSet.elements retracted;
      total = MSet.cardinal s.current;
      generation;
      elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }

(* The matches of plain core [q] in [window] that bind at least one of
   the edges [seen, n) (the delta rule, see the header). *)
let delta_matches tai q ~seen ~window =
  let g = Tcsq_core.Tai.graph tai in
  let acc = ref MSet.empty in
  Array.iter
    (fun (qe : Query.edge) ->
      let hull = ref None and roots = ref [] in
      for id = seen to Tgraph.Graph.n_edges g - 1 do
        let e = Tgraph.Graph.edge g id in
        let ivl = Tgraph.Edge.ivl e in
        if
          (qe.lbl = Query.any_label || Tgraph.Edge.lbl e = qe.lbl)
          && Temporal.Interval.overlaps ivl window
        then begin
          hull :=
            Some
              (match !hull with
              | None -> ivl
              | Some h -> Temporal.Interval.span h ivl);
          roots := Tgraph.Edge.src e :: !roots
        end
      done;
      match !hull with
      | None -> ()
      | Some hull ->
          (* a match binding [qe] to a batch edge lives inside that
             edge's interval, so clipping the window to the hull keeps
             it *)
          let q' =
            Query.with_window q (Temporal.Interval.intersect_exn window hull)
          in
          let roots = !roots in
          let first_new (m : Match_result.t) =
            m.edges.(qe.idx) >= seen
            &&
            let rec old j =
              j >= qe.idx || (m.edges.(j) < seen && old (j + 1))
            in
            old 0
          in
          Tcsq_core.Tsrjoin.run
            ~roots:(Tcsq_core.Tsrjoin.Root_filter (fun v -> List.mem v roots))
            ~plan:(Tcsq_core.Plan.of_pivot_order q' [ qe.src_var ])
            tai q'
            ~emit:(fun m -> if first_new m then acc := MSet.add m !acc))
    (Query.edges q);
  !acc

let on_ingest t ~engine ~generation =
  Mutex.lock t.reg_mutex;
  (* oldest first, so notification order follows subscription order *)
  let subs = List.rev t.subs in
  Mutex.unlock t.reg_mutex;
  if subs <> [] then begin
    let g = Workload.Engine.graph engine in
    let tai = Workload.Engine.tai engine in
    let n = Tgraph.Graph.n_edges g in
    (* plain subs with one core pattern and one [seen] share a delta
       evaluation over the hull of their windows *)
    let groups = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun s ->
        match s.group with
        | None -> ()
        | Some key -> (
            let key = (key, s.seen) in
            match Hashtbl.find_opt groups key with
            | None ->
                order := key :: !order;
                Hashtbl.add groups key [ s ]
            | Some ss -> Hashtbl.replace groups key (s :: ss)))
      subs;
    List.iter
      (fun ((_, seen) as key) ->
        let members = List.rev (Hashtbl.find groups key) in
        let t0 = Unix.gettimeofday () in
        let windows =
          List.map (fun s -> window_for s.mode ~fallback:s.window g) members
        in
        let hull =
          List.fold_left Temporal.Interval.span (List.hd windows) windows
        in
        let added =
          delta_matches tai
            (Equery.core (List.hd members).eq)
            ~seen ~window:hull
        in
        List.iter2
          (fun s window ->
            let meets (m : Match_result.t) =
              Temporal.Interval.overlaps m.life window
            in
            push_delta ~generation ~t0 ~seen:n s window
              ~added:(MSet.filter meets added)
              ~retracted:(MSet.filter (fun m -> not (meets m)) s.current))
          members windows)
      (List.rev !order);
    List.iter
      (fun s ->
        if s.group = None then begin
          let t0 = Unix.gettimeofday () in
          let window = window_for s.mode ~fallback:s.window g in
          let fresh = MSet.of_list (evaluate_at engine s.eq window) in
          push_delta ~generation ~t0 ~seen:n s window
            ~added:(MSet.diff fresh s.current)
            ~retracted:(MSet.diff s.current fresh)
        end)
      subs
  end
