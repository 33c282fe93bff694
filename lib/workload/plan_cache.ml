(* Bounded, mutex-guarded LRU plan cache keyed by the canonical plan
   form (Fingerprint.canonical_plan: canonical edges x ceil-log2
   window-length bucket x duration floor).

   Entries store the chosen plan in canonical-variable space — (canonical
   pivot id, matched query-edge indexes, produce_binding) per step — so
   one entry serves every query in its key's equivalence class: equal
   canonical forms mean edge i carries the same label between the same
   canonical endpoints, which is exactly what makes the pivot order
   transferable. Rebuilding against the incoming query is an O(steps)
   array map plus a Plan.validate; planning from scratch leapfrogs TAI
   key sets per root candidate, which is the cost a hit skips.

   The table is keyed by the full canonical string, not its 64-bit hash:
   a hash collision therefore cannot alias two different shapes (the
   Hashtbl compares keys), and a corrupt entry is caught by validation
   and degrades to a miss. *)

open Semantics

type source = Fresh | Cached | Replanned

let source_name = function
  | Fresh -> "fresh"
  | Cached -> "cached"
  | Replanned -> "replanned"

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  replans : int;
}

type entry = {
  mutable steps : (int * int array * bool) array;
      (* per plan step: canonical pivot, query-edge indexes, produce_binding *)
  mutable est_intermediate : int;
  mutable est_levels : int array;
  mutable last_levels : int array;  (* most recent observed actuals *)
  mutable consecutive_misest : int;
  mutable poisoned : bool;
  mutable calibrated : bool;
      (* re-planned from observed cardinalities: its stored estimates are
         the static ones that were already found wrong, so feedback no
         longer poisons it; the generation bump drops it *)
  mutable last_used : int;  (* LRU clock value of the last touch *)
}

type t = {
  mutex : Mutex.t;
  cap : int;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable replans : int;
}

(* consecutive misestimated executions that poison an entry: one
   outlier run is not enough to throw a plan away *)
let strikes = 2

let create ?(capacity = 256) () =
  if capacity < 0 then invalid_arg "Plan_cache.create: negative capacity";
  {
    mutex = Mutex.create ();
    cap = capacity;
    table = Hashtbl.create (max 16 (min capacity 1024));
    clock = 0;
    generation = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    replans = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let capacity t = t.cap
let length t = locked t (fun () -> Hashtbl.length t.table)
let generation t = locked t (fun () -> t.generation)

let counters t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        replans = t.replans;
      })

let bump_generation t =
  locked t (fun () ->
      t.invalidations <- t.invalidations + Hashtbl.length t.table;
      Hashtbl.reset t.table;
      t.generation <- t.generation + 1)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* ---- canonical-space plan transfer ---- *)

let encode_steps q plan =
  let canon = Fingerprint.canonical_vars q in
  Array.map
    (fun (s : Tcsq_core.Plan.step) ->
      ( canon.(s.Tcsq_core.Plan.pivot),
        Array.map (fun (e : Query.edge) -> e.Query.idx) s.Tcsq_core.Plan.edges,
        s.Tcsq_core.Plan.produce_binding ))
    (Tcsq_core.Plan.steps plan)

(* Rebuild a canonical-space entry against [q]. Every index is
   range-checked and the result re-validated: any mismatch (impossible
   under key equality, but this is the safety boundary) yields [None]
   and the caller treats the entry as a miss. *)
let rebuild q entry =
  let canon = Fingerprint.canonical_vars q in
  let n_vars = Query.n_vars q and n_edges = Query.n_edges q in
  let inv = Array.make (max 1 n_vars) (-1) in
  Array.iteri (fun v c -> if c >= 0 && c < n_vars then inv.(c) <- v) canon;
  match
    Array.map
      (fun (cp, idxs, pb) ->
        if cp < 0 || cp >= n_vars || inv.(cp) < 0 then raise Exit;
        {
          Tcsq_core.Plan.pivot = inv.(cp);
          edges =
            Array.map
              (fun i ->
                if i < 0 || i >= n_edges then raise Exit;
                Query.edge q i)
              idxs;
          produce_binding = pb;
        })
      entry.steps
  with
  | steps -> (
      let plan = Tcsq_core.Plan.of_steps_unchecked q steps in
      match Tcsq_core.Plan.validate plan with
      | Ok () -> Some plan
      | Error _ -> None)
  | exception Exit -> None

(* ---- lookup / store / feedback ---- *)

type verdict =
  | Miss
  | Hit of {
      plan : Tcsq_core.Plan.t;
      est_intermediate : int;
      est_levels : int array;
    }
  | Replan of { edge_scale : Query.edge -> float }

let lookup t q =
  if t.cap = 0 then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    Miss
  end
  else
    let key = Fingerprint.canonical_plan q in
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | None ->
            t.misses <- t.misses + 1;
            Miss
        | Some entry -> (
            entry.last_used <- tick t;
            match rebuild q entry with
            | None ->
                (* corrupt entry: drop it, degrade to a miss *)
                Hashtbl.remove t.table key;
                t.misses <- t.misses + 1;
                Miss
            | Some plan ->
                if entry.poisoned then begin
                  t.replans <- t.replans + 1;
                  Replan
                    {
                      edge_scale =
                        Tcsq_core.Plan.calibration plan
                          ~est_levels:entry.est_levels
                          ~levels:entry.last_levels;
                    }
                end
                else begin
                  t.hits <- t.hits + 1;
                  Hit
                    {
                      plan;
                      est_intermediate = entry.est_intermediate;
                      est_levels = Array.copy entry.est_levels;
                    }
                end))

let evict_lru t =
  (* exact LRU by scan: capacities are small (hundreds), lookups touch
     only one entry, and the scan runs only when the cache is full *)
  let victim = ref None in
  Hashtbl.iter
    (fun key entry ->
      match !victim with
      | Some (_, best) when best <= entry.last_used -> ()
      | _ -> victim := Some (key, entry.last_used))
    t.table;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

let store t q ~plan ~est_intermediate ~est_levels =
  if t.cap > 0 then begin
    let key = Fingerprint.canonical_plan q in
    let steps = encode_steps q plan in
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some entry ->
            (* storing over a poisoned entry is the caller's re-plan *)
            entry.calibrated <- entry.calibrated || entry.poisoned;
            entry.steps <- steps;
            entry.est_intermediate <- est_intermediate;
            entry.est_levels <- Array.copy est_levels;
            entry.last_levels <- [||];
            entry.consecutive_misest <- 0;
            entry.poisoned <- false;
            entry.last_used <- tick t
        | None ->
            if Hashtbl.length t.table >= t.cap then evict_lru t;
            Hashtbl.add t.table key
              {
                steps;
                est_intermediate;
                est_levels = Array.copy est_levels;
                last_levels = [||];
                consecutive_misest = 0;
                poisoned = false;
                calibrated = false;
                last_used = tick t;
              }))
  end

let feedback t q ~levels =
  if t.cap > 0 then
    let key = Fingerprint.canonical_plan q in
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some entry when entry.calibrated -> ()
        | Some entry ->
            if
              Tcsq_core.Plan.worst_misestimation ~est_levels:entry.est_levels
                ~levels
              > Tcsq_core.Plan.misestimation_threshold
            then begin
              entry.consecutive_misest <- entry.consecutive_misest + 1;
              entry.last_levels <- Array.copy levels;
              if entry.consecutive_misest >= strikes then
                entry.poisoned <- true
            end
            else begin
              entry.consecutive_misest <- 0;
              entry.poisoned <- false
            end)

let window_bucket = Fingerprint.window_bucket
