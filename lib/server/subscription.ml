(* Standing-query registry: the server-side half of subscribe/watch.

   Each subscription holds an extended query, a window mode, and the
   current result set. After every ingest batch [on_ingest] re-derives
   each subscription's window (sliding windows track the stream head),
   re-evaluates against the freshly swapped engine, and pushes the
   *delta* — new matches plus retractions — through the subscription's
   [push] callback. The invariant tests and the ingest-commutativity
   relation lean on is:

     initial \/ (all added) \ (all retracted) = fresh re-query

   at every batch boundary, which holds by construction because each
   step replaces the current set with the fresh evaluation and reports
   the symmetric difference.

   Plain subscriptions (no anti/semi/Allen/agg) that share a core
   pattern are grouped and evaluated through [Multi_window] — one hull
   pass over the TAI serves every window in the group, so N subscribers
   on the same shape cost ~1 evaluation per batch (the fan-out shape of
   ROADMAP item 1). Decorated queries fall back to [Engine.evaluate_ext]
   per subscription.

   Thread-safety: the subs list is guarded by [reg_mutex] so subscribe/
   unsubscribe/drop_conn may run from any connection thread. Per-sub
   mutable state ([window], [current]) is only touched by [subscribe]
   (before the sub is published) and [on_ingest]; the server serializes
   all three entry points under its ingest mutex, which is also what
   makes the delta-vs-fresh-re-query oracle exact. *)

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
  mutable window : Temporal.Interval.t;
  mutable current : MSet.t;
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
  Mutex.lock t.reg_mutex;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subs <-
    { id; tag; eq; mode; conn; push; window; current = MSet.of_list initial }
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

(* one refreshed sub: diff the fresh set against the standing one *)
let refresh ~generation ~t0 s window fresh =
  let next = MSet.of_list fresh in
  let added = MSet.elements (MSet.diff next s.current) in
  let retracted = MSet.elements (MSet.diff s.current next) in
  s.window <- window;
  s.current <- next;
  s.push
    {
      sub = s.id;
      tag = s.tag;
      window;
      added;
      retracted;
      total = MSet.cardinal next;
      generation;
      elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }

let on_ingest t ~engine ~generation =
  Mutex.lock t.reg_mutex;
  (* oldest first, so notification order follows subscription order *)
  let subs = List.rev t.subs in
  Mutex.unlock t.reg_mutex;
  if subs <> [] then begin
    let g = Workload.Engine.graph engine in
    let plain, decorated =
      List.partition (fun s -> Equery.is_plain s.eq) subs
    in
    (* group plain subs by core pattern modulo window: one Multi_window
       hull pass per group answers every subscriber's window at once *)
    let groups : (string, sub list) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun s ->
        let probe = Temporal.Interval.make 0 0 in
        let key =
          Qlang.render g (Query.with_window (Equery.core s.eq) probe)
        in
        (match Hashtbl.find_opt groups key with
        | None ->
            order := key :: !order;
            Hashtbl.add groups key [ s ]
        | Some ss -> Hashtbl.replace groups key (s :: ss)))
      plain;
    List.iter
      (fun key ->
        let members = List.rev (Hashtbl.find groups key) in
        let t0 = Unix.gettimeofday () in
        let windows =
          List.map (fun s -> window_for s.mode ~fallback:s.window g) members
        in
        let core = Equery.core (List.hd members).eq in
        let per_window =
          Tcsq_core.Multi_window.evaluate
            (Workload.Engine.tai engine)
            core ~windows
        in
        List.iteri
          (fun i (s, window) -> refresh ~generation ~t0 s window per_window.(i))
          (List.combine members windows))
      (List.rev !order);
    List.iter
      (fun s ->
        let t0 = Unix.gettimeofday () in
        let window = window_for s.mode ~fallback:s.window g in
        refresh ~generation ~t0 s window (evaluate_at engine s.eq window))
      decorated
  end
