open Semantics
open Tgraph

type lfto_mode = Basic | Optimized of Lfto_opt.config

type config = {
  mode : lfto_mode;
  allen : (int * Temporal.Allen.relation * int) list;
}

let default_config = { mode = Optimized Lfto_opt.all_on; allen = [] }
let basic_config = { mode = Basic; allen = [] }

type roots =
  | All_roots
  | Root_filter of (int -> bool)
  | Root_chunks of {
      candidates : int array;
      claim : unit -> (int * int) option;
    }

(* Key set per edge adjacent to the root pivot: sources of the label
   when the pivot is the edge source, destinations when it is the
   target; a self loop contributes both. Shared by the in-plan root
   leapfrog and [root_candidates]. *)
let root_key_sets tai pivot (step_edges : Query.edge array) =
  let sources_of lbl =
    if lbl = Query.any_label then Tai.all_sources tai else Tai.sources tai ~lbl
  in
  let destinations_of lbl =
    if lbl = Query.any_label then Tai.all_destinations tai
    else Tai.destinations tai ~lbl
  in
  Array.to_list step_edges
  |> List.concat_map (fun (e : Query.edge) ->
         let as_src =
           if e.Query.src_var = pivot then [ sources_of e.Query.lbl ] else []
         in
         let as_dst =
           if e.Query.dst_var = pivot then [ destinations_of e.Query.lbl ]
           else []
         in
         as_src @ as_dst)

let run ?stats ?(obs = Obs.Sink.null) ?(roots = All_roots)
    ?(config = default_config) ?plan ?(limit = max_int) ?(counted = ref 0) tai
    q ~emit =
  let min_duration = Query.min_duration q in
  let allen_cs = config.allen in
  List.iter
    (fun (i, _, j) ->
      if i < 0 || i >= Query.n_edges q || j < 0 || j >= Query.n_edges q then
        invalid_arg "Tsrjoin.run: Allen constraint references an edge out of range")
    allen_cs;
  (* Allen-constraint push-down: as soon as both edges of a constraint
     are assigned, a misclassified pair kills the whole subtree —
     equivalent to post-filtering complete matches, just earlier. *)
  let graph = Tai.graph tai in
  let allen_ok assignment =
    List.for_all
      (fun (i, rel, j) ->
        let ei = assignment.(i) and ej = assignment.(j) in
        ei < 0 || ej < 0
        || Temporal.Allen.classify
             (Edge.ivl (Graph.edge graph ei))
             (Edge.ivl (Graph.edge graph ej))
           = rel)
      allen_cs
  in
  let plan = match plan with Some p -> p | None -> Plan.build tai q in
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Tsrjoin.run: invalid plan: " ^ msg));
  let steps = Plan.steps plan in
  let n_steps = Array.length steps in
  let bindings = Array.make (Query.n_vars q) (-1) in
  let assignment = Array.make (Query.n_edges q) (-1) in
  let qw = Query.window q in
  let tick_binding () =
    match stats with Some s -> Run_stats.tick_binding s | None -> ()
  in
  (* each tuple is attributed to its plan level (the estimated-vs-actual
     feedback loop) *)
  let tick_intermediate step_i =
    match stats with
    | Some s -> Run_stats.tick_level_intermediate s step_i
    | None -> ()
  in
  let tick_result () =
    match stats with Some s -> Run_stats.tick_result s | None -> ()
  in
  let tick_seek () =
    match stats with Some s -> Run_stats.tick_seek s | None -> ()
  in
  let on_seek () =
    tick_seek ();
    Obs.Sink.incr obs Obs.Phase.Leapfrog_seek
  in
  let on_next () =
    tick_seek ();
    Obs.Sink.incr obs Obs.Phase.Leapfrog_next
  in
  (* one scratch context per plan depth: an outer sweep is suspended
     (mid-emit) while inner steps run their own LFTO, so contexts must
     not be shared across depths; within a depth, calls are sequential *)
  let lfto_ctxs = Array.init n_steps (fun _ -> Lfto_opt.create_context ()) in
  (* optional arguments boxed once per run, not once per binding *)
  let some_obs = Some obs and some_ctxs = Array.map Option.some lfto_ctxs in
  (* The counted tail. Once [limit] matches were emitted, a last step of
     one TSR over a plain core (no Allen constraint, no duration floor
     above one tick) counts its matches instead of enumerating them:
     every combination it would emit passes the endpoint check (a lone
     edge binds at most its unbound endpoint), so each one is a match.
     A count that would cross a budget enumerates instead, so truncation
     stops at the same tuple. *)
  let emitted = ref 0 in
  let last_step = n_steps - 1 in
  let countable = allen_cs = [] && min_duration <= 1 in
  let room () =
    match stats with Some s -> Run_stats.room s | None -> max_int
  in
  let run_lfto step_i tsrs ~ws ~we ~emit_combo =
    match config.mode with
    | Basic -> Lfto.run ?stats ?obs:some_obs ~tsrs ~ws ~we ~emit:emit_combo ()
    | Optimized cfg -> (
        let tail =
          if
            countable && step_i = last_step && !emitted >= limit
            && Array.length tsrs = 1
          then
            Lfto_opt.count ?stats ?obs:some_obs ~ctx:lfto_ctxs.(step_i)
              ~config:cfg ~tsrs ~ws ~we ~max_count:(room ()) ()
          else None
        in
        match tail with
        | Some n ->
            (match stats with
            | Some s -> Run_stats.add_level_results s step_i n
            | None -> ());
            counted := !counted + n
        | None ->
            Lfto_opt.run ?stats ?obs:some_obs ?ctx:some_ctxs.(step_i)
              ~config:cfg ~tsrs ~ws ~we ~emit:emit_combo ())
  in
  (* TSR of one step edge, with the pivot already bound: fully bound
     when both endpoints are (including self loops), half bound
     otherwise. *)
  let tsr_for_edge (e : Query.edge) =
    let sb = bindings.(e.Query.src_var) and db = bindings.(e.Query.dst_var) in
    if sb >= 0 && db >= 0 then
      Tai.tsr_between tai ~lbl:e.Query.lbl ~src:sb ~dst:db
    else if sb >= 0 then Tai.tsr_out tai ~lbl:e.Query.lbl ~src:sb
    else Tai.tsr_in tai ~lbl:e.Query.lbl ~dst:db
  in
  (* Per-level scratch, so a binding allocates nothing of its own: the
     step's TSRs, the variables a combination newly binds (two per step
     edge at most), and the lifespan and valid window of the partial
     match a level extends, as two ints each. *)
  let level_tsrs =
    Array.map (fun st -> Array.make (Array.length st.Plan.edges) Tsr.empty) steps
  in
  let level_newly =
    Array.map (fun st -> Array.make (2 * Array.length st.Plan.edges) 0) steps
  in
  let n_newly = Array.make n_steps 0 in
  let life_lo = Array.make (n_steps + 1) min_int in
  let life_hi = Array.make (n_steps + 1) max_int in
  let valid_lo = Array.make (n_steps + 1) (Temporal.Interval.ts qw) in
  let valid_hi = Array.make (n_steps + 1) (Temporal.Interval.te qw) in
  let probe step_edges tsrs =
    for j = 0 to Array.length step_edges - 1 do
      tick_seek ();
      tsrs.(j) <- tsr_for_edge step_edges.(j)
    done
  in
  (* Whether [var] is, or now is, bound to [vertex]; a new binding is
     recorded among the level's newly bound variables. *)
  let bound_to level var vertex =
    let b = bindings.(var) in
    b = vertex
    || b = -1
       && begin
            bindings.(var) <- vertex;
            level_newly.(level).(n_newly.(level)) <- var;
            n_newly.(level) <- n_newly.(level) + 1;
            true
          end
  in
  let emit_combos =
    Array.make n_steps (fun (_ : Edge.t array) (_ : Temporal.Interval.t) -> ())
  in
  let rec exec step_i =
    if step_i = n_steps then begin
      tick_result ();
      incr emitted;
      emit
        (Match_result.make (Array.copy assignment)
           (Temporal.Interval.make life_lo.(step_i) life_hi.(step_i)))
    end
    else begin
      let step = steps.(step_i) in
      let pivot = step.Plan.pivot in
      if step.Plan.produce_binding then begin
        match roots with
        | Root_chunks { candidates; claim } when step_i = 0 ->
            (* parallel evaluation: the first leapfrog was materialized
               once by the coordinator ({!root_candidates}); workers pull
               disjoint index ranges until the shared cursor runs dry *)
            let rec drain () =
              match claim () with
              | None -> ()
              | Some (lo, hi) ->
                  let lo = max 0 lo and hi = min hi (Array.length candidates) in
                  for i = lo to hi - 1 do
                    handle_binding step_i candidates.(i)
                  done;
                  drain ()
            in
            drain ()
        | All_roots | Root_filter _ | Root_chunks _ ->
            let keep =
              match roots with
              | Root_filter f when step_i = 0 -> f
              | All_roots | Root_filter _ | Root_chunks _ -> fun _ -> true
            in
            let key_sets = root_key_sets tai pivot step.Plan.edges in
            let iters =
              Array.of_list
                (List.map Triejoin.Key_iter.of_sorted_array_unchecked key_sets)
            in
            let lf =
              Obs.Sink.span obs Obs.Phase.Leapfrog_open (fun () ->
                  Triejoin.Leapfrog.create ~on_seek ~on_next iters)
            in
            Triejoin.Leapfrog.iter
              (fun vb -> if keep vb then handle_binding step_i vb)
              lf
      end
      else begin
        let vb = bindings.(pivot) in
        assert (vb >= 0);
        handle_binding step_i vb
      end
    end
  and handle_binding step_i vb =
    tick_binding ();
    let step = steps.(step_i) in
    let pivot = step.Plan.pivot in
    (* Bind the pivot for TSR retrieval; component roots need it
       explicitly. *)
    let pivot_was = bindings.(pivot) in
    bindings.(pivot) <- vb;
    let tsrs = level_tsrs.(step_i) in
    if Obs.Sink.enabled obs then
      Obs.Sink.span obs Obs.Phase.Tai_probe (fun () ->
          probe step.Plan.edges tsrs)
    else probe step.Plan.edges tsrs;
    if not (Array.exists Tsr.is_empty tsrs) then
      run_lfto step_i tsrs ~ws:valid_lo.(step_i) ~we:valid_hi.(step_i)
        ~emit_combo:emit_combos.(step_i);
    bindings.(pivot) <- pivot_was
  and emit_combo step_i members combo_life =
    let step_edges = steps.(step_i).Plan.edges in
    let k = Array.length step_edges in
    (* Endpoint-consistency check + new-variable binding; two step edges
       may share an unbound endpoint. *)
    n_newly.(step_i) <- 0;
    let ok = ref true and j = ref 0 in
    while !ok && !j < k do
      let qe = step_edges.(!j) and ge = members.(!j) in
      ok :=
        bound_to step_i qe.Query.src_var (Edge.src ge)
        && bound_to step_i qe.Query.dst_var (Edge.dst ge);
      incr j
    done;
    if !ok then begin
      (* combo_life individually overlaps the valid window per member
         and is jointly non-empty, hence both intersections below are
         non-empty (see DESIGN.md §5). *)
      let cts = Temporal.Interval.ts combo_life
      and cte = Temporal.Interval.te combo_life in
      let lo = if cts > life_lo.(step_i) then cts else life_lo.(step_i) in
      let hi = if cte < life_hi.(step_i) then cte else life_hi.(step_i) in
      (* durable-match push-down: lifespans only shrink, so a partial
         already below the duration floor is dead *)
      if hi - lo + 1 >= min_duration then begin
        let next = step_i + 1 in
        life_lo.(next) <- lo;
        life_hi.(next) <- hi;
        valid_lo.(next) <-
          (if cts > valid_lo.(step_i) then cts else valid_lo.(step_i));
        valid_hi.(next) <-
          (if cte < valid_hi.(step_i) then cte else valid_hi.(step_i));
        for j = 0 to k - 1 do
          assignment.(step_edges.(j).Query.idx) <- Edge.id members.(j)
        done;
        if allen_cs = [] || allen_ok assignment then begin
          tick_intermediate step_i;
          exec next
        end;
        for j = 0 to k - 1 do
          assignment.(step_edges.(j).Query.idx) <- -1
        done
      end
    end;
    for x = 0 to n_newly.(step_i) - 1 do
      bindings.(level_newly.(step_i).(x)) <- -1
    done
  in
  for i = 0 to n_steps - 1 do
    emit_combos.(i) <- emit_combo i
  done;
  exec 0

let evaluate ?stats ?obs ?config ?plan tai q =
  Match_result.collect (fun emit ->
      run ?stats ?obs ?config ?plan tai q ~emit)

let count ?stats ?obs ?config ?plan tai q =
  let n = ref 0 in
  run ?stats ?obs ?config ?plan tai q ~emit:(fun _ -> incr n);
  !n

let root_candidates ?stats ?(obs = Obs.Sink.null) ?plan tai q =
  let plan = match plan with Some p -> p | None -> Plan.build tai q in
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Tsrjoin.root_candidates: invalid plan: " ^ msg));
  let steps = Plan.steps plan in
  let step = steps.(0) in
  if not step.Plan.produce_binding then
    invalid_arg "Tsrjoin.root_candidates: first plan step is not a leapfrog";
  let tick_seek () =
    match stats with Some s -> Run_stats.tick_seek s | None -> ()
  in
  let on_seek () =
    tick_seek ();
    Obs.Sink.incr obs Obs.Phase.Leapfrog_seek
  in
  let on_next () =
    tick_seek ();
    Obs.Sink.incr obs Obs.Phase.Leapfrog_next
  in
  let key_sets = root_key_sets tai step.Plan.pivot step.Plan.edges in
  let iters =
    Array.of_list (List.map Triejoin.Key_iter.of_sorted_array_unchecked key_sets)
  in
  let lf =
    Obs.Sink.span obs Obs.Phase.Leapfrog_open (fun () ->
        Triejoin.Leapfrog.create ~on_seek ~on_next iters)
  in
  let acc = ref [] in
  Triejoin.Leapfrog.iter (fun vb -> acc := vb :: !acc) lf;
  let arr = Array.of_list !acc in
  (* leapfrog yields ascending keys; the fold above reversed them *)
  let n = Array.length arr in
  for i = 0 to (n / 2) - 1 do
    let tmp = arr.(i) in
    arr.(i) <- arr.(n - 1 - i);
    arr.(n - 1 - i) <- tmp
  done;
  arr
