open Semantics
module Plan = Tcsq_core.Plan

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

type t = {
  ws : int;
  we : int;
  edges : edge_estimate array;
  steps : step_estimate array;
  estimated_results : float;
  estimated_intermediate : float;
}

let estimate ?window tai plan =
  let q = Plan.query plan in
  let w = match window with Some w -> w | None -> Query.window q in
  let ws = Temporal.Interval.ts w and we = Temporal.Interval.te w in
  let edges =
    Array.map
      (fun (e : Query.edge) ->
        let s = Plan.label_summary tai e.Query.lbl in
        let frac = Plan.window_selectivity tai e.Query.lbl ~ws ~we in
        {
          edge = e;
          count = s.Plan.count;
          window_fraction = frac;
          expected_active = s.Plan.count *. frac;
        })
      (Query.edges q)
  in
  (* replay of the planner's binding state, so per-edge TSR sizes use
     the same boundness the planner scored with *)
  let bound = Array.make (Query.n_vars q) false in
  let cum = ref 1.0 in
  let total = ref 0.0 in
  let steps =
    Array.mapi
      (fun i (st : Plan.step) ->
        let v = st.Plan.pivot in
        let fanout, candidates =
          if st.Plan.produce_binding then begin
            let c = Plan.step_root_candidates tai st in
            let per_candidate = ref 1.0 in
            Array.iteri
              (fun k (e : Query.edge) ->
                let s = Plan.label_summary tai e.Query.lbl in
                let size =
                  if e.Query.src_var = v then s.Plan.avg_out else s.Plan.avg_in
                in
                let sel = Plan.window_selectivity tai e.Query.lbl ~ws ~we in
                (* the first edge needs no overlap partner *)
                let shrink =
                  if k = 0 then 1.0
                  else Plan.window_shrink tai e.Query.lbl ~ws ~we
                in
                per_candidate := !per_candidate *. size *. sel *. shrink)
              st.Plan.edges;
            (float_of_int c *. !per_candidate, Some c)
          end
          else begin
            let f = ref 1.0 in
            Array.iter
              (fun (e : Query.edge) ->
                let s = Plan.label_summary tai e.Query.lbl in
                let other = Query.other_endpoint e v in
                let size =
                  if other <> v && bound.(other) then
                    (* fully bound TSR: roughly avg multi-edge count *)
                    Float.max
                      (s.Plan.avg_out /. Float.max (s.Plan.count /. s.Plan.avg_in) 1.0)
                      1e-3
                  else if e.Query.src_var = v then s.Plan.avg_out
                  else s.Plan.avg_in
                in
                f :=
                  !f *. size
                  *. Plan.window_selectivity tai e.Query.lbl ~ws ~we
                  *. Plan.window_shrink tai e.Query.lbl ~ws ~we)
              st.Plan.edges;
            (!f, None)
          end
        in
        Array.iter
          (fun (e : Query.edge) ->
            bound.(e.Query.src_var) <- true;
            bound.(e.Query.dst_var) <- true)
          st.Plan.edges;
        bound.(v) <- true;
        (* a later component's root multiplies: the result is the
           cartesian product of component matches *)
        cum := !cum *. fanout;
        total := !total +. !cum;
        {
          step_index = i;
          pivot = v;
          root = st.Plan.produce_binding;
          n_edges = Array.length st.Plan.edges;
          candidates;
          fanout;
          cumulative = !cum;
        })
      (Plan.steps plan)
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

let intermediate_counter t = counter_of t.estimated_intermediate

let level_counters t =
  Array.map (fun (se : step_estimate) -> counter_of se.cumulative) t.steps
