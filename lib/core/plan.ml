open Semantics

(* The estimate records come before [step] so that, for callers, the
   shared labels [pivot] and [edges] resolve to [step]. *)

type edge_estimate = {
  edge : Query.edge;
  count : float;
  window_fraction : float;
  expected_active : float;
}

type step_estimate = {
  step_index : int;
  pivot : int;
  root : bool;
  n_edges : int;
  candidates : int option;
  fanout : float;
  cumulative : float;
}

type estimate = {
  ws : int;
  we : int;
  edges : edge_estimate array;
  steps : step_estimate array;
  estimated_results : float;
  estimated_intermediate : float;
}

type step = {
  pivot : int;
  edges : Query.edge array;
  produce_binding : bool;
}

type t = { query : Query.t; steps : step array }

let steps p = p.steps
let query p = p.query

(* ---- construction machinery shared by both planners ---- *)

type sim = {
  q : Query.t;
  matched : bool array; (* per query edge *)
  bound : bool array; (* per query variable *)
  mutable acc : step list;
}

let sim_create q =
  {
    q;
    matched = Array.make (Query.n_edges q) false;
    bound = Array.make (Query.n_vars q) false;
    acc = [];
  }

let unmatched_adjacent sim v =
  List.filter (fun e -> not sim.matched.(e.Query.idx)) (Query.adjacent sim.q v)

let apply_step sim pivot ~produce_binding =
  let edges = Array.of_list (unmatched_adjacent sim pivot) in
  assert (Array.length edges > 0);
  Array.iter
    (fun e ->
      sim.matched.(e.Query.idx) <- true;
      sim.bound.(e.Query.src_var) <- true;
      sim.bound.(e.Query.dst_var) <- true)
    edges;
  sim.bound.(pivot) <- true;
  sim.acc <- { pivot; edges; produce_binding } :: sim.acc

let all_matched sim = Array.for_all Fun.id sim.matched

let bound_pivot_candidates sim =
  let out = ref [] in
  for v = Query.n_vars sim.q - 1 downto 0 do
    if sim.bound.(v) && unmatched_adjacent sim v <> [] then out := v :: !out
  done;
  !out

let root_candidates sim =
  let out = ref [] in
  for v = Query.n_vars sim.q - 1 downto 0 do
    if (not sim.bound.(v)) && unmatched_adjacent sim v <> [] then
      out := v :: !out
  done;
  !out

let finish sim = { query = sim.q; steps = Array.of_list (List.rev sim.acc) }

(* ---- cost model ----

   Every factor is read on demand from the graph's per-label statistics
   and the TAI's key sets: O(1) or a binary search, never an edge scan,
   so there is nothing to build or cache per graph. *)

type label_summary = {
  count : float; (* edges with this label *)
  avg_out : float; (* per distinct source *)
  avg_in : float; (* per distinct destination *)
  mean_len : float; (* mean interval length *)
}

let no_label = { count = 1e-9; avg_out = 1e-9; avg_in = 1e-9; mean_len = 1.0 }

let label_stats tai l =
  let g = Tai.graph tai in
  let n = Tgraph.Graph.label_count g l in
  if n = 0 then no_label
  else begin
    let count = float_of_int n in
    let keys a = float_of_int (max 1 (Array.length a)) in
    {
      count;
      avg_out = count /. keys (Tai.sources tai ~lbl:l);
      avg_in = count /. keys (Tai.destinations tai ~lbl:l);
      mean_len =
        Float.max 1.0 (float_of_int (Tgraph.Graph.label_len_sum g l) /. count);
    }
  end

(* the wildcard behaves like the sum of all labels *)
let label_summary tai lbl =
  if lbl <> Query.any_label then label_stats tai lbl
  else begin
    let acc = ref no_label in
    for l = 0 to Tgraph.Graph.n_labels (Tai.graph tai) - 1 do
      let s = label_stats tai l in
      acc :=
        {
          count = !acc.count +. s.count;
          avg_out = !acc.avg_out +. s.avg_out;
          avg_in = !acc.avg_in +. s.avg_in;
          mean_len = Float.max !acc.mean_len s.mean_len;
        }
    done;
    !acc
  end

(* For an edge joined onto an existing partial match, the chance of
   joint overlap is approximated by mean_len relative to the window
   length (a short window forces near-certain joint overlap among
   window-alive edges; a long one makes it rare). *)
let window_shrink tai lbl ~ws ~we =
  let s = label_summary tai lbl in
  min 1.0 (max 1e-9 (s.mean_len /. float_of_int (we - ws + 1)))

(* The share of label-[l] edges alive somewhere in [ws, we], exact: the
   edges starting at or before [we] less those ending before [ws] (which
   all start before [ws] too). *)
let label_selectivity g l ~ws ~we =
  let n = Tgraph.Graph.label_count g l in
  if n = 0 || we < ws then 1e-9
  else begin
    let started =
      if we = max_int then n
      else Tgraph.Graph.count_starting_before g ~lbl:l (we + 1)
    in
    let alive = started - Tgraph.Graph.count_ending_before g ~lbl:l ws in
    Float.min 1.0 (Float.max 1e-9 (float_of_int alive /. float_of_int n))
  end

let window_selectivity tai lbl ~ws ~we =
  let g = Tai.graph tai in
  if lbl <> Query.any_label then label_selectivity g lbl ~ws ~we
  else begin
    let best = ref 1e-9 in
    for l = 0 to Tgraph.Graph.n_labels g - 1 do
      best := Float.max !best (label_selectivity g l ~ws ~we)
    done;
    !best
  end

(* Expected log-cardinality of the star produced by choosing [v] as a
   fresh (unbound) pivot. The candidate-binding count is computed exactly
   by leapfrogging the TAI key sets (independence assumptions fail badly
   on graphs with per-vertex label affinity); each candidate then fans
   out by the average TSR size per adjacent edge, shrunk by the temporal
   overlap probability of each additional edge. *)
let leapfrog_count tai v edges =
  let sources_of lbl =
    if lbl = Query.any_label then Tai.all_sources tai
    else Tai.sources tai ~lbl
  in
  let destinations_of lbl =
    if lbl = Query.any_label then Tai.all_destinations tai
    else Tai.destinations tai ~lbl
  in
  let key_sets =
    List.concat_map
      (fun (e : Query.edge) ->
        let as_src =
          if e.Query.src_var = v then [ sources_of e.Query.lbl ] else []
        in
        let as_dst =
          if e.Query.dst_var = v then [ destinations_of e.Query.lbl ] else []
        in
        as_src @ as_dst)
      edges
  in
  let iters =
    Array.of_list
      (List.map Triejoin.Key_iter.of_sorted_array_unchecked key_sets)
  in
  let count = ref 0 in
  Triejoin.Leapfrog.iter (fun _ -> incr count) (Triejoin.Leapfrog.create iters);
  !count

(* The one per-edge factor of the model: the expected TSR size of [e]
   at pivot [v]. With its other endpoint already bound the TSR is
   roughly the label's mean multi-edge count; otherwise it is the mean
   fan-out on the pivot's side. *)
let edge_size tai ~bound v (e : Query.edge) =
  let s = label_summary tai e.Query.lbl in
  let other = Query.other_endpoint e v in
  if other <> v && bound other then
    Float.max (s.avg_out /. Float.max (s.count /. s.avg_in) 1.0) 1e-3
  else if e.Query.src_var = v then s.avg_out
  else s.avg_in

(* a root pivot starts a fresh component: nothing around it is bound *)
let unbound (_ : int) = false

let root_score tai sim es v =
  let ws = Query.ws sim.q and we = Query.we sim.q in
  let edges = unmatched_adjacent sim v in
  let candidates = leapfrog_count tai v edges in
  if candidates = 0 then neg_infinity (* provably empty: best possible root *)
  else begin
    let per_candidate =
      List.fold_left
        (fun acc e ->
          acc
          +. log
               (edge_size tai ~bound:unbound v e
               *. window_selectivity tai e.Query.lbl ~ws ~we)
          +. log (window_shrink tai e.Query.lbl ~ws ~we)
          +. log (es e))
        0.0 edges
    in
    (* the first edge needs no overlap partner *)
    let first_shrink =
      match edges with
      | e :: _ -> log (window_shrink tai e.Query.lbl ~ws ~we)
      | [] -> 0.0
    in
    log (float_of_int candidates) +. per_candidate -. first_shrink
  end

(* Per-edge expected work at a bound pivot: log of the expected TSR size
   under the current bindings, shrunk by temporal overlap. *)
let edge_log_size sim tai v (e : Query.edge) =
  let ws = Query.ws sim.q and we = Query.we sim.q in
  log
    (edge_size tai ~bound:(fun u -> sim.bound.(u)) v e
    *. window_selectivity tai e.Query.lbl ~ws ~we)
  +. log (window_shrink tai e.Query.lbl ~ws ~we)

(* Expected extension factor of a bound pivot: the product of its
   unmatched adjacent edges' expected work. *)
let bound_score sim tai es v =
  List.fold_left
    (fun acc e -> acc +. edge_log_size sim tai v e +. log (es e))
    0.0 (unmatched_adjacent sim v)

let pick_min score = function
  | [] -> None
  | first :: rest ->
      let best = ref first and best_score = ref (score first) in
      List.iter
        (fun v ->
          let s = score v in
          if s < !best_score then begin
            best := v;
            best_score := s
          end)
        rest;
      Some !best

let apply_partial_step sim pivot ~keep =
  assert (keep <> []);
  let edges = Array.of_list keep in
  Array.iter
    (fun (e : Query.edge) ->
      sim.matched.(e.Query.idx) <- true;
      sim.bound.(e.Query.src_var) <- true;
      sim.bound.(e.Query.dst_var) <- true)
    edges;
  sim.bound.(pivot) <- true;
  sim.acc <- { pivot; edges; produce_binding = false } :: sim.acc

let no_scale (_ : Query.edge) = 1.0

let build_loop ?select_bound ?(edge_scale = no_scale) tai sim =
  while not (all_matched sim) do
    match pick_min (bound_score sim tai edge_scale) (bound_pivot_candidates sim)
    with
    | Some v -> (
        match select_bound with
        | None -> apply_step sim v ~produce_binding:false
        | Some select -> apply_partial_step sim v ~keep:(select sim v))
    | None -> (
        match pick_min (root_score tai sim edge_scale) (root_candidates sim) with
        | Some v -> apply_step sim v ~produce_binding:true
        | None -> assert false (* unmatched edges always have candidates *))
  done;
  finish sim

let build ?edge_scale tai q = build_loop ?edge_scale tai (sim_create q)

(* ---- estimates: the same model in absolute space ----

   A replay of the planner's binding state over a finished plan, so each
   edge's TSR size uses the boundness the planner scored it with. *)

let estimate tai p =
  let ws = Query.ws p.query and we = Query.we p.query in
  let edges =
    Array.map
      (fun (e : Query.edge) ->
        let s = label_summary tai e.Query.lbl in
        let frac = window_selectivity tai e.Query.lbl ~ws ~we in
        {
          edge = e;
          count = s.count;
          window_fraction = frac;
          expected_active = s.count *. frac;
        })
      (Query.edges p.query)
  in
  let bound = Array.make (Query.n_vars p.query) false in
  let cum = ref 1.0 in
  let total = ref 0.0 in
  let steps =
    Array.mapi
      (fun i (st : step) ->
        let v = st.pivot in
        let root = st.produce_binding in
        let bound_at = if root then unbound else fun u -> bound.(u) in
        let f = ref 1.0 in
        Array.iteri
          (fun k (e : Query.edge) ->
            (* a root's first edge needs no overlap partner *)
            let shrink =
              if root && k = 0 then 1.0
              else window_shrink tai e.Query.lbl ~ws ~we
            in
            f :=
              !f *. edge_size tai ~bound:bound_at v e
              *. window_selectivity tai e.Query.lbl ~ws ~we
              *. shrink)
          st.edges;
        let fanout, candidates =
          if root then begin
            let c = leapfrog_count tai v (Array.to_list st.edges) in
            (float_of_int c *. !f, Some c)
          end
          else (!f, None)
        in
        Array.iter
          (fun (e : Query.edge) ->
            bound.(e.Query.src_var) <- true;
            bound.(e.Query.dst_var) <- true)
          st.edges;
        bound.(v) <- true;
        (* a later component's root multiplies: the result is the
           cartesian product of component matches *)
        cum := !cum *. fanout;
        total := !total +. !cum;
        {
          step_index = i;
          pivot = v;
          root;
          n_edges = Array.length st.edges;
          candidates;
          fanout;
          cumulative = !cum;
        })
      p.steps
  in
  {
    ws;
    we;
    edges;
    steps;
    estimated_results = (if Array.length steps = 0 then 0.0 else !cum);
    estimated_intermediate = !total;
  }

let counter_of v =
  if Float.is_nan v || v <= 0.0 then 0
  else int_of_float (Float.round (Float.min v 1e15))

let intermediate_counter (est : estimate) =
  counter_of est.estimated_intermediate

let level_counters (est : estimate) =
  Array.map (fun (se : step_estimate) -> counter_of se.cumulative) est.steps

(* Per-edge correction factors from one execution's per-level feedback:
   level [i]'s cumulative misestimation ratio r_i = actual_i / est_i is
   localized to the step that introduced it (f_i = r_i / r_{i-1}) and
   spread geometrically over the step's edges, so a calibrated re-plan
   scores each edge with [static estimate x observed correction].
   Factors are clamped to [1/1024, 1024]: feedback can reorder pivots
   but never drive a score to +-inf. *)
let calibration p ~est_levels ~levels =
  let n_edges = Query.n_edges p.query in
  let scale = Array.make (max 1 n_edges) 1.0 in
  let get a i = if i >= 0 && i < Array.length a then a.(i) else 0 in
  let prev_r = ref 1.0 in
  Array.iteri
    (fun i step ->
      let est = float_of_int (max 1 (get est_levels i)) in
      let act = float_of_int (max 1 (get levels i)) in
      let r = act /. est in
      let f = r /. !prev_r in
      prev_r := r;
      let n = max 1 (Array.length step.edges) in
      let per_edge = f ** (1.0 /. float_of_int n) in
      let per_edge = Float.max (1.0 /. 1024.0) (Float.min 1024.0 per_edge) in
      Array.iter
        (fun (e : Query.edge) -> scale.(e.Query.idx) <- per_edge)
        step.edges)
    p.steps;
  fun (e : Query.edge) ->
    if e.Query.idx >= 0 && e.Query.idx < n_edges then scale.(e.Query.idx)
    else 1.0

(* ---- misestimation policy ---- *)

let misestimation_threshold = 16.0

let misestimation_factor est actual =
  let e = Float.max est 1.0 and a = Float.max actual 1.0 in
  Float.max e a /. Float.min e a

let worst_misestimation ~est_levels ~levels =
  let get a i = if i < Array.length a then a.(i) else 0 in
  let worst = ref 1.0 in
  for i = 0 to max (Array.length est_levels) (Array.length levels) - 1 do
    worst :=
      Float.max !worst
        (misestimation_factor
           (float_of_int (get est_levels i))
           (float_of_int (get levels i)))
  done;
  !worst

let build_adaptive ?(defer_ratio = 8.0) tai q =
  if defer_ratio < 1.0 then
    invalid_arg "Plan.build_adaptive: defer_ratio must be >= 1";
  let threshold = log defer_ratio in
  let select sim v =
    let edges = unmatched_adjacent sim v in
    let scored = List.map (fun e -> (edge_log_size sim tai v e, e)) edges in
    let best = List.fold_left (fun acc (s, _) -> min acc s) infinity scored in
    let keep =
      List.filter_map
        (fun (s, e) -> if s <= best +. threshold then Some e else None)
        scored
    in
    (* at least the most selective edge always stays *)
    if keep = [] then [ snd (List.hd scored) ] else keep
  in
  build_loop ~select_bound:select tai (sim_create q)

let of_pivot_order q order =
  let sim = sim_create q in
  while not (all_matched sim) do
    let bound = bound_pivot_candidates sim in
    let roots = root_candidates sim in
    let next =
      List.find_opt (fun v -> List.mem v bound) order
      |> (function
           | Some v -> Some (v, false)
           | None -> (
               match List.find_opt (fun v -> List.mem v roots) order with
               | Some v -> Some (v, true)
               | None -> (
                   (* fall back: any usable pivot *)
                   match bound with
                   | v :: _ -> Some (v, false)
                   | [] -> ( match roots with v :: _ -> Some (v, true) | [] -> None))))
    in
    match next with
    | Some (v, is_root) -> apply_step sim v ~produce_binding:is_root
    | None ->
        invalid_arg "Plan.of_pivot_order: no usable pivot (bad order list)"
  done;
  finish sim

let of_steps_unchecked q steps = { query = q; steps }

let of_pivot_order_unchecked q order =
  let sim = sim_create q in
  let first = ref true in
  List.iter
    (fun v ->
      if v >= 0 && v < Query.n_vars q && unmatched_adjacent sim v <> [] then begin
        apply_step sim v ~produce_binding:!first;
        first := false
      end)
    order;
  finish sim

type rule =
  | Empty_step
  | Unbound_pivot
  | Bound_root
  | Unmatched_edge
  | Rematched_edge
  | Detached_edge
  | Foreign_edge

type site = At_step of int | At_edge of int
type violation = { rule : rule; site : site; message : string }

let violations p =
  let q = p.query in
  let n_edges = Query.n_edges q and n_vars = Query.n_vars q in
  let matched = Array.make n_edges 0 in
  let bound = Array.make n_vars false in
  let out = ref [] in
  let add rule site fmt =
    Printf.ksprintf (fun message -> out := { rule; site; message } :: !out) fmt
  in
  Array.iteri
    (fun si step ->
      let at = At_step si in
      if Array.length step.edges = 0 then
        add Empty_step at "step %d at pivot x%d matches no query edge" si
          step.pivot;
      let pivot_in_range = step.pivot >= 0 && step.pivot < n_vars in
      if not pivot_in_range then
        add Unbound_pivot at
          "step %d pivot x%d is not a query variable (query has %d)" si
          step.pivot n_vars
      else if step.produce_binding && bound.(step.pivot) then
        add Bound_root at
          "step %d sets produce_binding on pivot x%d, which an earlier step \
           already bound (leapfrog roots must be fresh)"
          si step.pivot
      else if (not step.produce_binding) && not bound.(step.pivot) then
        add Unbound_pivot at
          "step %d uses pivot x%d before any earlier step binds it" si
          step.pivot;
      Array.iter
        (fun (e : Query.edge) ->
          if e.idx < 0 || e.idx >= n_edges then
            add Foreign_edge at
              "step %d matches edge index %d, outside the query's %d edges" si
              e.idx n_edges
          else begin
            let qe = Query.edge q e.idx in
            if qe.lbl <> e.lbl || qe.src_var <> e.src_var
               || qe.dst_var <> e.dst_var
            then
              add Foreign_edge at
                "step %d edge %d disagrees with the query's edge table (plan \
                 has l%d(x%d,x%d), query has l%d(x%d,x%d))"
                si e.idx e.lbl e.src_var e.dst_var qe.lbl qe.src_var
                qe.dst_var;
            matched.(e.idx) <- matched.(e.idx) + 1;
            if e.src_var >= 0 && e.src_var < n_vars then
              bound.(e.src_var) <- true;
            if e.dst_var >= 0 && e.dst_var < n_vars then
              bound.(e.dst_var) <- true;
            if
              pivot_in_range && e.src_var <> step.pivot
              && e.dst_var <> step.pivot
            then
              add Detached_edge at
                "step %d matches edge %d (x%d->x%d), which is not incident \
                 to pivot x%d"
                si e.idx e.src_var e.dst_var step.pivot
          end)
        step.edges;
      if pivot_in_range then bound.(step.pivot) <- true)
    p.steps;
  Array.iteri
    (fun i c ->
      if c = 0 then
        add Unmatched_edge (At_edge i)
          "query edge %d is never matched by the plan (deferred but never \
           picked up?)"
          i
      else if c > 1 then
        add Rematched_edge (At_edge i)
          "query edge %d is matched %d times; plans must match each edge \
           exactly once"
          i c)
    matched;
  List.rev !out

let validate p =
  match violations p with [] -> Ok () | v :: _ -> Error v.message

let pp fmt p =
  Format.fprintf fmt "@[<v>plan:";
  Array.iteri
    (fun i step ->
      Format.fprintf fmt "@ %d: pivot x%d%s matches [%s]" i step.pivot
        (if step.produce_binding then " (leapfrog)" else "")
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun e ->
                   Printf.sprintf "e%d:l%d(x%d,x%d)" e.Query.idx e.Query.lbl
                     e.Query.src_var e.Query.dst_var)
                 step.edges))))
    p.steps;
  Format.fprintf fmt "@]"
