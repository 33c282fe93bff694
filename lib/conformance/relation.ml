open Semantics
module RS = Match_result.Result_set

type derived = {
  cases : Case.t list;
  check :
    base:RS.t -> derived:RS.t list -> (unit, string) result;
}

type t = {
  name : string;
  mutates_graph : bool;
  derive : Case.t -> relseed:int -> derived;
}

let rng_of relseed salt = Random.State.make [| relseed; salt; 0xc04f |]

let one = function [ d ] -> d | _ -> invalid_arg "relation arity"

let expect_equal ~what ~expected ~actual =
  match RS.diff_summary ~expected ~actual with
  | None -> Ok ()
  | Some diff -> Error (Printf.sprintf "%s: %s" what diff)

let map_lives f set =
  RS.of_list
    (List.map
       (fun m -> Match_result.make m.Match_result.edges (f m.Match_result.life))
       (RS.to_list set))

(* a random decoration clause whose endpoints are core variables (or
   unconstrained) — the raw material for the partition/containment
   relations *)
let random_clause rng g q =
  let used =
    let flags = Array.make (Query.n_vars q) false in
    Array.iter
      (fun e ->
        flags.(e.Query.src_var) <- true;
        flags.(e.Query.dst_var) <- true)
      (Query.edges q);
    Array.to_list (Array.mapi (fun i u -> (i, u)) flags)
    |> List.filter_map (fun (i, u) -> if u then Some i else None)
  in
  let endpoint () =
    if Random.State.int rng 3 = 0 then Equery.Any
    else Equery.Var (List.nth used (Random.State.int rng (List.length used)))
  in
  let nl = Tgraph.Graph.n_labels g in
  let lbl =
    if nl = 0 || Random.State.int rng 6 = 0 then Query.any_label
    else Random.State.int rng nl
  in
  { Equery.lbl; src = endpoint (); dst = endpoint () }

(* ---- window-containment monotonicity ---- *)

let window_containment =
  {
    name = "window-containment";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 1 in
        let q = case.Case.query in
        let core = Equery.core q in
        let ws = Query.ws core and we = Query.we core in
        let ws' = ws + Random.State.int rng (we - ws + 1) in
        let we' = ws' + Random.State.int rng (we - ws' + 1) in
        let w' = Temporal.Interval.make ws' we' in
        {
          cases = [ { case with Case.query = Equery.with_window q w' } ];
          check =
            (fun ~base ~derived ->
              (* exact because clause matching never reads the window:
                 the pieces of a match are window-independent, only the
                 keep-overlapping filter moves *)
              let expected =
                RS.of_list
                  (List.filter
                     (fun m -> Temporal.Interval.overlaps m.Match_result.life w')
                     (RS.to_list base))
              in
              expect_equal
                ~what:
                  (Printf.sprintf
                     "sub-window [%d, %d] of [%d, %d] must keep exactly the \
                      overlapping base matches"
                     ws' we' ws we)
                ~expected ~actual:(one derived));
        });
  }

(* ---- temporal translation equivariance ---- *)

let translation =
  {
    name = "translation";
    mutates_graph = true;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 2 in
        let g = case.Case.graph and q = case.Case.query in
        let core = Equery.core q in
        (* pick Δ in [-max_back, 25] \ {0}, bounded so every timestamp
           stays non-negative after the shift *)
        let max_back =
          Tgraph.Graph.fold_edges
            (fun acc e -> min acc (Tgraph.Edge.ts e))
            (Query.ws core) g
        in
        let max_back = max 0 max_back in
        let d = Random.State.int rng (26 + max_back) - max_back in
        let delta = if d >= 0 then d + 1 else d in
        let g' = Testkit.shift_time g ~delta in
        let w' =
          Temporal.Interval.make (Query.ws core + delta) (Query.we core + delta)
        in
        {
          cases = [ Case.make g' (Equery.with_window q w') ];
          check =
            (fun ~base ~derived ->
              let shift life =
                Temporal.Interval.make
                  (Temporal.Interval.ts life + delta)
                  (Temporal.Interval.te life + delta)
              in
              expect_equal
                ~what:
                  (Printf.sprintf
                     "translation by %+d must shift every lifespan and \
                      nothing else"
                     delta)
                ~expected:(map_lives shift base) ~actual:(one derived));
        });
  }

(* ---- time-reversal duality ---- *)

let time_reversal =
  {
    name = "time-reversal";
    mutates_graph = true;
    derive =
      (fun case ~relseed:_ ->
        let g = case.Case.graph and q = case.Case.query in
        let core = Equery.core q in
        let anchor =
          Tgraph.Graph.fold_edges
            (fun acc e -> max acc (Tgraph.Edge.te e))
            (Query.we core) g
        in
        let g' = Testkit.reverse_time g ~anchor in
        let w' =
          Temporal.Interval.make
            (anchor - Query.we core)
            (anchor - Query.ws core)
        in
        (* clause arithmetic is time-symmetric, but an Allen constraint
           is not: BEFORE on the reversed axis is AFTER, MEETS is
           MET-BY, STARTS is FINISHES... — the reversal dual, which is
           not the argument-swapping inverse *)
        let q' =
          Equery.with_allen
            (Equery.with_window q w')
            (List.map
               (fun (i, r, j) -> (i, Temporal.Allen.reverse r, j))
               (Equery.allen q))
        in
        {
          cases = [ Case.make g' q' ];
          check =
            (fun ~base ~derived ->
              let reverse life =
                Temporal.Interval.make
                  (anchor - Temporal.Interval.te life)
                  (anchor - Temporal.Interval.ts life)
              in
              expect_equal
                ~what:
                  (Printf.sprintf
                     "time reversal about %d must reverse every lifespan and \
                      nothing else"
                     anchor)
                ~expected:(map_lives reverse base) ~actual:(one derived));
        });
  }

(* ---- graph-edge-deletion monotonicity ---- *)

let edge_deletion =
  {
    name = "edge-deletion";
    mutates_graph = true;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 4 in
        let g = case.Case.graph in
        let q = case.Case.query in
        let n = Tgraph.Graph.n_edges g in
        let kept = Array.init n (fun _ -> Random.State.int rng 4 <> 0) in
        (* deleting an edge a NOT/EXISTS clause could match would move
           the clause unions and re-slice every surviving lifespan; keep
           those edges so decorations stay fixed and deletion stays a
           pure core-match filter (a wildcard clause protects all) *)
        let clauses = Equery.anti q @ Equery.semi q in
        if clauses <> [] then
          Tgraph.Graph.iter_edges
            (fun e ->
              if
                List.exists
                  (fun c ->
                    c.Equery.lbl = Query.any_label
                    || c.Equery.lbl = Tgraph.Edge.lbl e)
                  clauses
              then kept.(Tgraph.Edge.id e) <- true)
            g;
        if not (Array.exists Fun.id kept) then kept.(0) <- true;
        let g', new_to_old = Testkit.drop_edges g ~keep:(fun id -> kept.(id)) in
        let old_to_new = Array.make n (-1) in
        Array.iteri (fun ni oi -> old_to_new.(oi) <- ni) new_to_old;
        {
          cases = [ { case with Case.graph = g' } ];
          check =
            (fun ~base ~derived ->
              let expected =
                RS.of_list
                  (List.filter_map
                     (fun m ->
                       if
                         Array.for_all
                           (fun id -> old_to_new.(id) >= 0)
                           m.Match_result.edges
                       then
                         Some
                           (Match_result.make
                              (Array.map
                                 (fun id -> old_to_new.(id))
                                 m.Match_result.edges)
                              m.Match_result.life)
                       else None)
                     (RS.to_list base))
              in
              expect_equal
                ~what:
                  (Printf.sprintf
                     "deleting %d of %d edges must keep exactly the base \
                      matches whose edges all survive"
                     (n - Array.length new_to_old)
                     n)
                ~expected ~actual:(one derived));
        });
  }

(* ---- label-renaming invariance ---- *)

let label_renaming =
  {
    name = "label-renaming";
    mutates_graph = true;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 5 in
        let g = case.Case.graph and q = case.Case.query in
        let nl = Tgraph.Graph.n_labels g in
        let perm = Array.init nl Fun.id in
        for i = nl - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let g' = Testkit.relabel_edges g ~perm in
        let q' = Equery.map_labels (fun l -> perm.(l)) q in
        {
          cases = [ Case.make g' q' ];
          check =
            (fun ~base ~derived ->
              expect_equal
                ~what:
                  "a consistent label permutation must not change the result \
                   set"
                ~expected:base ~actual:(one derived));
        });
  }

(* ---- sub-pattern projection ---- *)

let sub_pattern =
  {
    name = "sub-pattern";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 6 in
        let q = Equery.core case.Case.query in
        let n = Query.n_edges q in
        let start = Random.State.int rng n in
        (* grow a random connected sub-pattern from [start]: sweep the
           component, admitting each edge adjacent to what is already
           included with probability 3/4 *)
        let component = Testkit.query_component q start in
        let included = Array.make n false in
        included.(start) <- true;
        let vars = Array.make (Query.n_vars q) false in
        let touch i =
          let e = Query.edge q i in
          vars.(e.Query.src_var) <- true;
          vars.(e.Query.dst_var) <- true
        in
        touch start;
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun i ->
              let e = Query.edge q i in
              if
                (not included.(i))
                && (vars.(e.Query.src_var) || vars.(e.Query.dst_var))
                && Random.State.int rng 4 <> 0
              then begin
                included.(i) <- true;
                touch i;
                changed := true
              end)
            component
        done;
        let keep = List.filter (fun i -> included.(i)) component in
        let q_sub, sel = Testkit.restrict_query q ~keep in
        (* decorations are dropped: each base piece is a sub-interval of
           its core lifespan, so the containment claim below still goes
           through against the plain sub-pattern *)
        {
          cases = [ { case with Case.query = Equery.plain q_sub } ];
          check =
            (fun ~base ~derived ->
              let sub = one derived in
              let members = Hashtbl.create 64 in
              List.iter
                (fun m ->
                  Hashtbl.replace members
                    (m.Match_result.edges, m.Match_result.life) ())
                (RS.to_list sub);
              let rec first_failure = function
                | [] -> Ok ()
                | m :: rest -> (
                    let proj =
                      Array.map (fun oi -> m.Match_result.edges.(oi)) sel
                    in
                    match Match_result.life_of_edges case.Case.graph proj with
                    | None ->
                        Error
                          (Format.asprintf
                             "projection of %a onto the sub-pattern has an \
                              empty lifespan"
                             Match_result.pp m)
                    | Some life ->
                        if
                          Temporal.Interval.ts life
                            > Temporal.Interval.ts m.Match_result.life
                          || Temporal.Interval.te life
                             < Temporal.Interval.te m.Match_result.life
                        then
                          Error
                            (Format.asprintf
                               "projected lifespan %s does not contain the \
                                base lifespan of %a"
                               (Temporal.Interval.to_string life)
                               Match_result.pp m)
                        else if not (Hashtbl.mem members (proj, life)) then
                          Error
                            (Format.asprintf
                               "base match %a projects to %a, which the \
                                sub-pattern run did not produce"
                               Match_result.pp m Match_result.pp
                               (Match_result.make proj life))
                        else first_failure rest)
              in
              Result.map_error
                (Printf.sprintf "sub-pattern of edges [%s]: %s"
                   (String.concat "," (List.map string_of_int keep)))
                (first_failure (RS.to_list base)));
        });
  }

(* ---- analyzer window-tightening soundness ---- *)

let window_tightening =
  {
    name = "window-tightening";
    mutates_graph = false;
    derive =
      (fun case ~relseed:_ ->
        (* deterministic: the derived query is whatever the analyzer's
           constraint propagation (Allen constraints included) tightens
           the window to (possibly the identity), and Bound's theorem
           says the result set must not move at all *)
        let env = Analysis.Query_check.env_of_graph case.Case.graph in
        let eq = case.Case.query in
        let q' =
          Analysis.Bound.tighten ~allen:(Equery.allen eq) ~env
            (Equery.core eq)
        in
        let eq' = Equery.with_window eq (Query.window q') in
        {
          cases = [ { case with Case.query = eq' } ];
          check =
            (fun ~base ~derived ->
              expect_equal
                ~what:
                  (Printf.sprintf
                     "analyzer-tightened window %s of %s must preserve the \
                      result set exactly"
                     (Temporal.Interval.to_string (Query.window q'))
                     (Temporal.Interval.to_string
                        (Query.window (Equery.core eq))))
                ~expected:base ~actual:(one derived));
        });
  }

(* ---- antijoin/semijoin partition ---- *)

(* coverage per edges-group: the union of window-clipped piece
   intervals, as a normalized interval set *)
let coverage ~window set =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun m ->
      match Temporal.Interval.intersect m.Match_result.life window with
      | None -> ()
      | Some clipped ->
          let key = Array.to_list m.Match_result.edges in
          let prev =
            Option.value
              (Hashtbl.find_opt tbl key)
              ~default:Temporal.Ivlset.empty
          in
          Hashtbl.replace tbl key
            (Temporal.Ivlset.union prev (Temporal.Ivlset.of_interval clipped)))
    (RS.to_list set);
  tbl

let anti_semi_partition =
  {
    name = "anti-semi-partition";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 8 in
        let g = case.Case.graph in
        let eq = case.Case.query in
        let core = Equery.core eq in
        let c = random_clause rng g core in
        (* min_duration 1 because the duration floor breaks the algebra:
           a piece split by the clause could leave two sub-duration
           halves while the whole survived *)
        let base' =
          Equery.with_min_duration (Equery.with_agg eq None) 1
        in
        let with_not = Equery.with_anti base' (c :: Equery.anti base') in
        let with_exists = Equery.with_semi base' (c :: Equery.semi base') in
        let window = Query.window core in
        {
          cases =
            [
              { case with Case.query = with_not };
              { case with Case.query = with_exists };
              { case with Case.query = base' };
            ];
          check =
            (fun ~base:_ ~derived ->
              match derived with
              | [ rs_not; rs_exists; rs_all ] -> (
                  let cov_not = coverage ~window rs_not in
                  let cov_exists = coverage ~window rs_exists in
                  let cov_all = coverage ~window rs_all in
                  let keys = Hashtbl.create 32 in
                  List.iter
                    (fun tbl ->
                      Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tbl)
                    [ cov_not; cov_exists; cov_all ];
                  let get tbl k =
                    Option.value (Hashtbl.find_opt tbl k)
                      ~default:Temporal.Ivlset.empty
                  in
                  let bad =
                    Hashtbl.fold
                      (fun k () acc ->
                        match acc with
                        | Some _ -> acc
                        | None ->
                            let u =
                              Temporal.Ivlset.union (get cov_not k)
                                (get cov_exists k)
                            in
                            if Temporal.Ivlset.equal u (get cov_all k) then
                              None
                            else Some (k, u, get cov_all k))
                      keys None
                  in
                  match bad with
                  | None -> Ok ()
                  | Some (k, u, all) ->
                      Error
                        (Printf.sprintf
                           "NOT/EXISTS must partition each lifespan: edges \
                            [%s] have NOT ∪ EXISTS coverage %s but the \
                            undecorated query covers %s"
                           (String.concat "," (List.map string_of_int k))
                           (Temporal.Ivlset.to_string u)
                           (Temporal.Ivlset.to_string all)))
              | _ -> invalid_arg "relation arity");
        });
  }

(* ---- Allen-inverse symmetry ---- *)

let allen_inverse =
  {
    name = "allen-inverse";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 9 in
        let eq = case.Case.query in
        let core = Equery.core eq in
        let n = Query.n_edges core in
        if n < 2 then
          { cases = []; check = (fun ~base:_ ~derived:_ -> Ok ()) }
        else begin
          let i = Random.State.int rng n in
          let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
          let rel =
            Temporal.Allen.all.(Random.State.int rng
                                  (Array.length Temporal.Allen.all))
          in
          let with_c c = Equery.with_allen eq (c :: Equery.allen eq) in
          {
            cases =
              [
                { case with Case.query = with_c (i, rel, j) };
                {
                  case with
                  Case.query = with_c (j, Temporal.Allen.inverse rel, i);
                };
              ];
            check =
              (fun ~base:_ ~derived ->
                match derived with
                | [ a; b ] ->
                    expect_equal
                      ~what:
                        (Printf.sprintf
                           "a%d %s a%d and its inverse a%d %s a%d must \
                            constrain identically"
                           i
                           (Temporal.Allen.to_string rel)
                           j j
                           (Temporal.Allen.to_string
                              (Temporal.Allen.inverse rel))
                           i)
                      ~expected:a ~actual:b
                | _ -> invalid_arg "relation arity");
          }
        end);
  }

(* ---- semijoin containment ---- *)

let semijoin_containment =
  {
    name = "semijoin-containment";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 10 in
        let g = case.Case.graph in
        let eq = case.Case.query in
        let core = Equery.core eq in
        let c = random_clause rng g core in
        let eq' = Equery.with_semi eq (c :: Equery.semi eq) in
        {
          cases = [ { case with Case.query = eq' } ];
          check =
            (fun ~base ~derived ->
              (* EXISTS only intersects: every derived piece lives inside
                 some base piece over the same edge bindings *)
              let by_edges = Hashtbl.create 64 in
              List.iter
                (fun m ->
                  let key = Array.to_list m.Match_result.edges in
                  Hashtbl.replace by_edges key
                    (m.Match_result.life
                    :: Option.value (Hashtbl.find_opt by_edges key) ~default:[]))
                (RS.to_list base);
              let contained m =
                let key = Array.to_list m.Match_result.edges in
                List.exists
                  (fun life ->
                    Temporal.Interval.ts life
                      <= Temporal.Interval.ts m.Match_result.life
                    && Temporal.Interval.te m.Match_result.life
                       <= Temporal.Interval.te life)
                  (Option.value (Hashtbl.find_opt by_edges key) ~default:[])
              in
              match
                List.find_opt
                  (fun m -> not (contained m))
                  (RS.to_list (one derived))
              with
              | None -> Ok ()
              | Some m ->
                  Error
                    (Format.asprintf
                       "adding an EXISTS clause produced %a, which no base \
                        piece with the same edges contains"
                       Match_result.pp m));
        });
  }

(* ---- Allen constraints are pure post-filters ---- *)

let allen_filter =
  {
    name = "allen-filter";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 11 in
        let g = case.Case.graph in
        let eq = case.Case.query in
        let core = Equery.core eq in
        let n = Query.n_edges core in
        if n < 2 then
          { cases = []; check = (fun ~base:_ ~derived:_ -> Ok ()) }
        else begin
          let i = Random.State.int rng n in
          let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
          let rel =
            Temporal.Allen.all.(Random.State.int rng
                                  (Array.length Temporal.Allen.all))
          in
          let eq' = Equery.with_allen eq ((i, rel, j) :: Equery.allen eq) in
          {
            cases = [ { case with Case.query = eq' } ];
            check =
              (fun ~base ~derived ->
                let satisfies m =
                  Equery.allen_ok g [ (i, rel, j) ] m
                in
                let expected =
                  RS.of_list (List.filter satisfies (RS.to_list base))
                in
                expect_equal
                  ~what:
                    (Printf.sprintf
                       "a%d %s a%d must act as a pure whole-match filter on \
                        the base result set"
                       i
                       (Temporal.Allen.to_string rel)
                       j)
                  ~expected ~actual:(one derived));
          }
        end);
  }

(* ---- TOP-k aggregate determinism ---- *)

let aggregate_topk =
  {
    name = "aggregate-topk";
    mutates_graph = false;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 12 in
        let eq = case.Case.query in
        let k = 1 + Random.State.int rng 4 in
        let eq' = Equery.with_agg eq (Some (Equery.Top k)) in
        {
          cases = [ { case with Case.query = eq' } ];
          check =
            (fun ~base ~derived ->
              (* sort-and-take, sharing no code with Match_result.Top_k:
                 [base] is in match order, so a stable sort by
                 durability breaks ties as TOP k must *)
              let longer a b =
                Int.compare (Match_result.durability b)
                  (Match_result.durability a)
              in
              let expected =
                RS.of_list
                  (List.filteri (fun i _ -> i < k)
                     (List.stable_sort longer (RS.to_list base)))
              in
              expect_equal
                ~what:
                  (Printf.sprintf
                     "TOP %d must select the deterministic durability top-k \
                      of the base result set"
                     k)
                ~expected ~actual:(one derived));
        });
  }

(* ---- ingest commutativity: batch splits change nothing ---- *)

module MS = Set.Make (struct
  type t = Match_result.t

  let compare = Match_result.compare
end)

(* split [xs] into [k] contiguous sub-batches (sizes as even as
   possible; some may be empty when [k] exceeds the suffix length) *)
let split_into k xs =
  let m = List.length xs in
  let sizes =
    List.init k (fun i -> (m / k) + if i < m mod k then 1 else 0)
  in
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
          let ys, zs = take (n - 1) rest in
          (x :: ys, zs)
  in
  let batches, _ =
    List.fold_left
      (fun (acc, rest) sz ->
        let b, rest' = take sz rest in
        (b :: acc, rest'))
      ([], xs) sizes
  in
  List.rev batches

(* Cut the graph at a random edge id, re-ingest the suffix through the
   live streaming pipeline (Incremental merge + prepare_with_tai engine
   swaps + a standing-query subscription), and demand that

     1. the subscribe snapshot on the prefix equals the variant's own
        prefix answer (cases = [prefix], evaluated per engine variant);
     2. after every batch boundary the accumulated deltas (snapshot
        + added - retracted) equal a fresh oracle re-query;
     3. the final accumulation equals the full-graph base, whether the
        suffix arrived as one batch or as k random sub-batches.

   The replays are variant-independent, so they run lazily once per
   derive and are shared across the engine-variant sweep. *)
let ingest_commutativity =
  {
    name = "ingest-commutativity";
    mutates_graph = true;
    derive =
      (fun case ~relseed ->
        let rng = rng_of relseed 13 in
        let g = case.Case.graph and eq = case.Case.query in
        let n = Tgraph.Graph.n_edges g in
        if n < 2 then
          { cases = []; check = (fun ~base:_ ~derived:_ -> Ok ()) }
        else begin
          let cut = 1 + Random.State.int rng (n - 1) in
          let k = 1 + Random.State.int rng 4 in
          let merge_threshold = 1 + Random.State.int rng 8 in
          let prefix, _ = Testkit.drop_edges g ~keep:(fun id -> id < cut) in
          (* suffix edges in id order: re-appending them in order gives
             every edge back its original id, so result sets over the
             reconstructed graph compare 1:1 against the base *)
          let suffix =
            List.init (n - cut) (fun i ->
                let e = Tgraph.Graph.edge g (cut + i) in
                ( Tgraph.Edge.src e,
                  Tgraph.Edge.dst e,
                  Tgraph.Edge.lbl e,
                  Tgraph.Edge.ts e,
                  Tgraph.Edge.te e ))
          in
          let prefix_tai = lazy (Tcsq_core.Tai.build prefix) in
          let replay batches =
            let ( let* ) = Result.bind in
            let inc =
              Tcsq_core.Incremental.of_tai ~merge_threshold prefix
                (Lazy.force prefix_tai)
            in
            let subs = Tcsq_server.Subscription.create () in
            let acc = ref MS.empty in
            let delta_err = ref None in
            let push (d : Tcsq_server.Subscription.delta) =
              if !delta_err = None then begin
                let added = MS.of_list d.Tcsq_server.Subscription.added in
                let retracted =
                  MS.of_list d.Tcsq_server.Subscription.retracted
                in
                if not (MS.is_empty (MS.inter added !acc)) then
                  delta_err := Some "a delta re-added a standing match"
                else if not (MS.subset retracted !acc) then
                  delta_err :=
                    Some "a delta retracted a match that was not standing"
                else acc := MS.diff (MS.union !acc added) retracted
              end
            in
            let engine0 =
              Workload.Engine.prepare_with_tai prefix
                (Tcsq_core.Incremental.tai inc)
            in
            let _sub, _window, initial =
              Tcsq_server.Subscription.subscribe subs ~engine:engine0 ~push
                eq
            in
            acc := MS.of_list initial;
            let* () =
              List.fold_left
                (fun res batch ->
                  let* () = res in
                  List.iter
                    (fun (src, dst, lbl, ts, te) ->
                      ignore
                        (Tcsq_core.Incremental.add_edge inc ~src ~dst ~lbl
                           ~ts ~te))
                    batch;
                  let gb = Tcsq_core.Incremental.graph inc in
                  let engine =
                    Workload.Engine.prepare_with_tai gb
                      (Tcsq_core.Incremental.tai inc)
                  in
                  Tcsq_server.Subscription.on_ingest subs ~engine
                    ~generation:0;
                  let* () =
                    match !delta_err with Some e -> Error e | None -> Ok ()
                  in
                  (* oracle-first: the standing set must equal a fresh
                     re-query at every batch boundary *)
                  expect_equal
                    ~what:
                      "accumulated subscribe deltas at a batch boundary \
                       must equal a fresh re-query"
                    ~expected:(RS.of_list (Naive.evaluate_ext gb eq))
                    ~actual:(RS.of_list (MS.elements !acc)))
                (Ok ()) batches
            in
            Ok (RS.of_list initial, RS.of_list (MS.elements !acc))
          in
          let replay_split = lazy (replay (split_into k suffix)) in
          let replay_single = lazy (replay [ suffix ]) in
          {
            cases = [ { case with Case.graph = prefix } ];
            check =
              (fun ~base ~derived ->
                let ( let* ) = Result.bind in
                let* initial, final_split = Lazy.force replay_split in
                let* _, final_single = Lazy.force replay_single in
                let* () =
                  expect_equal
                    ~what:
                      "the subscribe snapshot on the prefix graph must \
                       equal the engine's own prefix answer"
                    ~expected:initial ~actual:(one derived)
                in
                let* () =
                  expect_equal
                    ~what:
                      (Printf.sprintf
                         "deltas accumulated over %d sub-batches must \
                          equal the full-graph base"
                         k)
                    ~expected:base ~actual:final_split
                in
                expect_equal
                  ~what:
                    "a single-batch ingest must accumulate to the same \
                     standing set as the k-split ingest"
                  ~expected:final_split ~actual:final_single);
          }
        end);
  }

let all =
  [
    window_containment; translation; time_reversal; edge_deletion;
    label_renaming; sub_pattern; window_tightening;
    (* the extended-operator relations are appended so older repro
       relseeds (which index into this list) stay valid *)
    anti_semi_partition; allen_inverse; semijoin_containment; allen_filter;
    aggregate_topk; ingest_commutativity;
  ]

let find name =
  match List.find_opt (fun r -> r.name = name) all with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "unknown relation %S" name)
