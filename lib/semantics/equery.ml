(* Extended queries: a core conjunctive pattern decorated with temporal
   antijoin / semijoin clauses, Allen-relation constraints between core
   edges, and an optional aggregate. The decorations are evaluated as a
   layer over any core engine: run the core, then slice each match's
   lifespan with interval arithmetic (Temporal.Ivlset). *)

type endpoint = Var of int | Any

type clause = { lbl : int; src : endpoint; dst : endpoint }

type agg = Count | Top of int

type t = {
  core : Query.t;
  anti : clause list;
  semi : clause list;
  allen : (int * Temporal.Allen.relation * int) list;
  agg : agg option;
}

let core t = t.core
let anti t = t.anti
let semi t = t.semi
let allen t = t.allen
let agg t = t.agg

let used_vars q =
  let used = Array.make (Query.n_vars q) false in
  Array.iter
    (fun e ->
      used.(e.Query.src_var) <- true;
      used.(e.Query.dst_var) <- true)
    (Query.edges q);
  used

let validate t =
  let used = used_vars t.core in
  let check_endpoint = function
    | Any -> ()
    | Var v ->
        if v < 0 || v >= Array.length used || not used.(v) then
          invalid_arg
            (Printf.sprintf
               "Equery: clause variable %d is not used by the core pattern" v)
  in
  let check_clause c =
    if c.lbl < Query.any_label then invalid_arg "Equery: clause label < -1";
    check_endpoint c.src;
    check_endpoint c.dst
  in
  List.iter check_clause t.anti;
  List.iter check_clause t.semi;
  let n = Query.n_edges t.core in
  List.iter
    (fun (i, _, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Equery: Allen constraint references an edge out of range";
      if i = j then
        invalid_arg "Equery: Allen constraint relates an edge to itself")
    t.allen;
  (match t.agg with
  | Some (Top k) when k < 1 -> invalid_arg "Equery: TOP needs k >= 1"
  | _ -> ());
  t

let make ?(anti = []) ?(semi = []) ?(allen = []) ?agg core =
  validate { core; anti; semi; allen; agg }

let plain core = { core; anti = []; semi = []; allen = []; agg = None }

let is_plain t = t.anti = [] && t.semi = [] && t.allen = [] && t.agg = None

let has_decorations t = t.anti <> [] || t.semi <> [] || t.allen <> []

let with_window t w = { t with core = Query.with_window t.core w }
let with_min_duration t d = { t with core = Query.with_min_duration t.core d }
let with_agg t agg = { t with agg }
let with_anti t anti = validate { t with anti }
let with_semi t semi = validate { t with semi }
let with_allen t allen = validate { t with allen }

let map_labels f t =
  let map_lbl l = if l = Query.any_label then l else f l in
  let edges =
    Array.to_list (Query.edges t.core)
    |> List.map (fun e -> (map_lbl e.Query.lbl, e.Query.src_var, e.Query.dst_var))
  in
  let core =
    Query.make ~n_vars:(Query.n_vars t.core) ~edges
      ~window:(Query.window t.core)
  in
  let core = Query.with_min_duration core (Query.min_duration t.core) in
  let map_clause c = { c with lbl = map_lbl c.lbl } in
  {
    t with
    core;
    anti = List.map map_clause t.anti;
    semi = List.map map_clause t.semi;
  }

(* ---- decoration semantics ---- *)

(* Reconstruct the vertex bound to each core variable from a complete
   match. Variables unused by the core stay -1 (such variables are
   rejected as clause endpoints by [validate]). *)
let bindings_of g q (m : Match_result.t) =
  let b = Array.make (Query.n_vars q) (-1) in
  Array.iteri
    (fun i eid ->
      let qe = Query.edge q i in
      let e = Tgraph.Graph.edge g eid in
      b.(qe.Query.src_var) <- Tgraph.Edge.src e;
      b.(qe.Query.dst_var) <- Tgraph.Edge.dst e)
    m.Match_result.edges;
  b

let allen_ok g constraints (m : Match_result.t) =
  List.for_all
    (fun (i, rel, j) ->
      let ivl k = Tgraph.Edge.ivl (Tgraph.Graph.edge g m.Match_result.edges.(k)) in
      Temporal.Allen.classify (ivl i) (ivl j) = rel)
    constraints

(* Per-clause index: graph edges with a matching label, bucketed by the
   constrained endpoints (-1 on an [Any] side), each bucket's intervals
   pre-normalized to the union set. Clause matching deliberately ignores
   the query window — the clause union is then independent of the window,
   which keeps window-shifting metamorphic relations exact. *)
type clause_index = {
  clause : clause;
  buckets : (int * int, Temporal.Ivlset.t) Hashtbl.t;
}

type prepared = {
  eq : t;
  g : Tgraph.Graph.t;
  anti_idx : clause_index list;
  semi_idx : clause_index list;
}

let index_clause g c =
  let raw = Hashtbl.create 16 in
  Tgraph.Graph.iter_edges
    (fun e ->
      if c.lbl = Query.any_label || Tgraph.Edge.lbl e = c.lbl then begin
        let key =
          ( (match c.src with Var _ -> Tgraph.Edge.src e | Any -> -1),
            match c.dst with Var _ -> Tgraph.Edge.dst e | Any -> -1 )
        in
        let cur = try Hashtbl.find raw key with Not_found -> [] in
        Hashtbl.replace raw key (Tgraph.Edge.ivl e :: cur)
      end)
    g;
  let buckets = Hashtbl.create (Hashtbl.length raw) in
  Hashtbl.iter
    (fun key ivls -> Hashtbl.add buckets key (Temporal.Ivlset.of_list ivls))
    raw;
  { clause = c; buckets }

let prepare g eq =
  {
    eq;
    g;
    anti_idx = List.map (index_clause g) eq.anti;
    semi_idx = List.map (index_clause g) eq.semi;
  }

let clause_union ci b =
  let key =
    ( (match ci.clause.src with Var v -> b.(v) | Any -> -1),
      match ci.clause.dst with Var v -> b.(v) | Any -> -1 )
  in
  try Hashtbl.find ci.buckets key with Not_found -> Temporal.Ivlset.empty

(* The pieces of a core match: maximal intervals of
   (life ∩ ⋂ semi unions) \ (⋃ anti unions), each kept only if it is
   durable and overlaps the window. Always a refinement of the core
   lifespan. *)
let decorate p (m : Match_result.t) =
  if not (allen_ok p.g p.eq.allen m) then []
  else begin
    let pieces =
      if p.anti_idx = [] && p.semi_idx = [] then [ m.Match_result.life ]
      else begin
        let b = bindings_of p.g p.eq.core m in
        let base = Temporal.Ivlset.of_interval m.Match_result.life in
        let base =
          List.fold_left
            (fun acc ci -> Temporal.Ivlset.inter acc (clause_union ci b))
            base p.semi_idx
        in
        let cut =
          List.fold_left
            (fun acc ci -> Temporal.Ivlset.union acc (clause_union ci b))
            Temporal.Ivlset.empty p.anti_idx
        in
        Temporal.Ivlset.to_list (Temporal.Ivlset.diff base cut)
      end
    in
    let d = Query.min_duration p.eq.core in
    let ws = Query.ws p.eq.core and we = Query.we p.eq.core in
    List.filter_map
      (fun ivl ->
        if
          Temporal.Interval.length ivl >= d
          && Temporal.Interval.overlaps_window ivl ~ws ~we
        then Some (Match_result.make m.Match_result.edges ivl)
        else None)
      pieces
  end

(* The aggregate stage: [Top k] offers every piece to the one bounded
   durability selection, emitted by [finish]; [Count] (presentation
   only, at the CLI/server boundary) and no aggregate pass pieces on. *)
let aggregate eq ~emit =
  match eq.agg with
  | Some (Top k) ->
      let top = Match_result.Top_k.create k in
      ( Match_result.Top_k.offer top,
        fun () -> List.iter emit (Match_result.Top_k.drain top) )
  | Some Count | None -> (emit, ignore)

let select eq ms =
  Match_result.collect (fun emit ->
      let offer, finish = aggregate eq ~emit in
      List.iter offer ms;
      finish ())

(* [finish] runs only once [run] returns: a run cut short by an
   exception emits no TOP k selection. A core match is one answer only
   without decorations (else it is cut into pieces) and without TOP k
   (which must see every match), so only then may [run] stop
   enumerating past [limit]. *)
let run_with run g ?(limit = max_int) eq ~emit =
  let offer, finish = aggregate eq ~emit in
  let on_match =
    if has_decorations eq then
      let p = prepare g eq in
      fun m -> List.iter offer (decorate p m)
    else offer
  in
  let limit =
    match eq.agg with
    | Some (Top _) -> max_int
    | Some Count | None -> if has_decorations eq then max_int else limit
  in
  run eq.core ~limit ~emit:on_match;
  finish ()
