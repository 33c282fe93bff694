open Tgraph
module Grouping = Triejoin.Grouping
module Slice = Triejoin.Slice

type two_level = {
  edges : Edge.t array;
  by_label : Grouping.t;
  level2 : Grouping.t array;
  eci : Temporal.Coverage.t array array option; (* per label, per 2nd key *)
}

type three_level = {
  edges : Edge.t array;
  by_label : Grouping.t;
  level2 : Grouping.t array;
  level3 : Grouping.t array array;
  eci : Temporal.Coverage.t array array array option;
}

type t = {
  graph : Graph.t;
  ls : two_level;
  ld : two_level;
  lsd : three_level;
  lds : Grouping.t array array;
      (* LDS shares LD's label and destination levels (same groups, same
         offsets); this is its third level, the sources of each LD
         (label, destination) run *)
  all_sources : int array; (* wildcard binding-production key sets *)
  all_destinations : int array;
}

(* ---- construction: every TAI is a merge into its predecessor ----

   [build] merges the whole graph into the empty TAI; [merge] merges the
   appended edges into the current one. The delta is sorted in each
   trie's order and placed into the old edge array; then every trie
   level is walked together with the delta in key order. A group the
   delta does not touch keeps its old subtree (child groupings with
   their offsets moved, coverage as is); only touched groups are
   regrouped and get a fresh coverage. *)

let no_children = { Grouping.keys = [||]; offsets = [| 0 |] }

let shift (g : Grouping.t) d =
  if d = 0 then g else { g with offsets = Array.map (fun o -> o + d) g.offsets }

let shift_all gs d = if d = 0 then gs else Array.map (fun g -> shift g d) gs

(* [old] and [delta] are sorted by [cmp]; each delta edge is placed by
   binary search and the old runs between them are blitted. *)
let merge_sorted ~cmp old delta =
  let n = Array.length old in
  if n = 0 then delta
  else begin
    let out = Array.make (n + Array.length delta) old.(0) in
    let i = ref 0 in
    Array.iteri
      (fun j e ->
        let lo = ref !i and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cmp old.(mid) e < 0 then lo := mid + 1 else hi := mid
        done;
        Array.blit old !i out (!i + j) (!lo - !i);
        out.(!lo + j) <- e;
        i := !lo)
      delta;
    Array.blit old !i out (!i + Array.length delta) (n - !i);
    out
  end

(* One merged trie node: the grouping of its children in the merged
   edge array and, per child, its old group index (-1 for a new key),
   how far its old run moved, and its delta run [dcut.(i), dcut.(i+1)). *)
type node = {
  g : Grouping.t;
  old_of : int array;
  moved : int array;
  dcut : int array;
}

let touched w i = w.dcut.(i) < w.dcut.(i + 1)

(* Walks the old children [og] and the delta run [dlo, dhi) (sorted by
   [key]) together in key order; the merged children start at [base]. *)
let merge_node (og : Grouping.t) ~base delta ~dlo ~dhi ~key =
  let no = Grouping.n_groups og in
  let walk emit =
    let i = ref 0 and j = ref dlo in
    while !i < no || !j < dhi do
      let k =
        if !j >= dhi || (!i < no && og.keys.(!i) <= key delta.(!j)) then
          og.keys.(!i)
        else key delta.(!j)
      in
      let oi = if !i < no && og.keys.(!i) = k then (incr i; !i - 1) else -1 in
      let j0 = !j in
      while !j < dhi && key delta.(!j) = k do incr j done;
      emit k oi j0 !j
    done
  in
  let n = ref 0 in
  walk (fun _ _ _ _ -> incr n);
  let n = !n in
  let keys = if n = no then og.keys else Array.make n 0 in
  let offsets = Array.make (n + 1) base
  and old_of = Array.make n (-1)
  and moved = Array.make n 0
  and dcut = Array.make (n + 1) dlo in
  let c = ref 0 in
  walk (fun k oi j0 j1 ->
      let at = offsets.(!c) in
      let old_len =
        if oi < 0 then 0
        else begin
          moved.(!c) <- at - og.offsets.(oi);
          og.offsets.(oi + 1) - og.offsets.(oi)
        end
      in
      if n <> no then keys.(!c) <- k;
      old_of.(!c) <- oi;
      offsets.(!c + 1) <- at + old_len + (j1 - j0);
      dcut.(!c + 1) <- j1;
      incr c);
  { g = { keys; offsets }; old_of; moved; dcut }

let root (og : Grouping.t) delta =
  merge_node og ~base:0 delta ~dlo:0 ~dhi:(Array.length delta) ~key:Edge.lbl

(* the merged children of child [i] of [w]; [old_children] are the old
   child groupings of [w]'s level *)
let descend w i old_children delta ~key =
  let oi = w.old_of.(i) in
  merge_node
    (if oi < 0 then no_children else old_children.(oi))
    ~base:w.g.offsets.(i) delta ~dlo:w.dcut.(i) ~dhi:w.dcut.(i + 1) ~key

(* per child of [w]: [old oi moved] for an untouched one, [fresh i]
   otherwise *)
let children w ~old ~fresh =
  Array.init (Grouping.n_groups w.g) (fun i ->
      if touched w i then fresh i else old w.old_of.(i) w.moved.(i))

(* the ECI coverage of child [i]'s edge run *)
let run_coverage edges w i =
  let off, len = Grouping.range w.g i in
  Temporal.Coverage.of_run len
    ~ts:(fun j -> Edge.ts edges.(off + j))
    ~te:(fun j -> Edge.te edges.(off + j))

(* also returns the label node and the per-label nodes, from which LDS
   is derived *)
let merge_two_level (old : two_level) delta ~cmp ~key2 =
  let edges = merge_sorted ~cmp old.edges delta in
  let top = root old.by_label delta in
  let nodes =
    children top
      ~old:(fun _ _ -> None)
      ~fresh:(fun li -> Some (descend top li old.level2 delta ~key:key2))
  in
  let level2 =
    children top
      ~old:(fun oli d -> shift old.level2.(oli) d)
      ~fresh:(fun li -> (Option.get nodes.(li)).g)
  in
  let eci =
    Option.map
      (fun old_eci ->
        children top
          ~old:(fun oli _ -> old_eci.(oli))
          ~fresh:(fun li ->
            let w = Option.get nodes.(li) in
            children w
              ~old:(fun oki _ -> old_eci.(top.old_of.(li)).(oki))
              ~fresh:(run_coverage edges w)))
      old.eci
  in
  ({ edges; by_label = top.g; level2; eci }, top, nodes)

(* The sources of an LD (label, destination) run: its LDS run would hold
   the same edges sorted by source, so the grouping's keys are the sorted
   distinct sources and its offsets their cumulative counts. *)
let src_grouping edges off len =
  let srcs = Array.init len (fun i -> Edge.src edges.(off + i)) in
  Array.stable_sort Int.compare srcs;
  shift (Grouping.group srcs ~off:0 ~len ~key:Fun.id) off

let merge_lds old_lds (ld : two_level) top nodes =
  children top
    ~old:(fun oli d -> shift_all old_lds.(oli) d)
    ~fresh:(fun li ->
      let w = Option.get nodes.(li) in
      children w
        ~old:(fun odi d -> shift old_lds.(top.old_of.(li)).(odi) d)
        ~fresh:(fun di ->
          let off, len = Grouping.range w.g di in
          src_grouping ld.edges off len))

let merge_three_level (old : three_level) delta =
  let edges = merge_sorted ~cmp:Edge.compare_lsd old.edges delta in
  let top = root old.by_label delta in
  let old3 li = if top.old_of.(li) < 0 then [||] else old.level3.(top.old_of.(li)) in
  (* per touched label: its source node, and per touched source its
     destination node *)
  let nodes =
    children top
      ~old:(fun _ _ -> None)
      ~fresh:(fun li ->
        let w2 = descend top li old.level2 delta ~key:Edge.src in
        Some
          ( w2,
            children w2
              ~old:(fun _ _ -> None)
              ~fresh:(fun si -> Some (descend w2 si (old3 li) delta ~key:Edge.dst)) ))
  in
  let node li = Option.get nodes.(li) in
  let level2 =
    children top
      ~old:(fun oli d -> shift old.level2.(oli) d)
      ~fresh:(fun li -> (fst (node li)).g)
  in
  let level3 =
    children top
      ~old:(fun oli d -> shift_all old.level3.(oli) d)
      ~fresh:(fun li ->
        let w2, w3s = node li in
        children w2
          ~old:(fun osi d -> shift (old3 li).(osi) d)
          ~fresh:(fun si -> (Option.get w3s.(si)).g))
  in
  let eci =
    Option.map
      (fun old_eci ->
        children top
          ~old:(fun oli _ -> old_eci.(oli))
          ~fresh:(fun li ->
            let w2, w3s = node li in
            let oli = top.old_of.(li) in
            children w2
              ~old:(fun osi _ -> old_eci.(oli).(osi))
              ~fresh:(fun si ->
                let w3 = Option.get w3s.(si) in
                children w3
                  ~old:(fun odi _ -> old_eci.(oli).(w2.old_of.(si)).(odi))
                  ~fresh:(run_coverage edges w3))))
      old.eci
  in
  { edges; by_label = top.g; level2; level3; eci }

(* [old] sorted and distinct, plus the keys of [delta] *)
let merge_keys old delta key =
  let d = Array.map key delta in
  Array.sort Int.compare d;
  let n = Array.length old in
  let out = Array.make (n + Array.length d) 0 in
  let m = ref 0 and i = ref 0 in
  let push k =
    if !m = 0 || out.(!m - 1) <> k then begin
      out.(!m) <- k;
      incr m
    end
  in
  Array.iter
    (fun k ->
      while !i < n && old.(!i) <= k do push old.(!i); incr i done;
      push k)
    d;
  while !i < n do push old.(!i); incr i done;
  if !m = n then old else Array.sub out 0 !m

let extend tai graph delta =
  let sorted cmp =
    let d = Array.copy delta in
    Array.stable_sort cmp d;
    d
  in
  let ls, _, _ =
    merge_two_level tai.ls (sorted Edge.compare_ls) ~cmp:Edge.compare_ls
      ~key2:Edge.src
  in
  let ld, top, nodes =
    merge_two_level tai.ld (sorted Edge.compare_ld) ~cmp:Edge.compare_ld
      ~key2:Edge.dst
  in
  {
    graph;
    ls;
    ld;
    lsd = merge_three_level tai.lsd (sorted Edge.compare_lsd);
    lds = merge_lds tai.lds ld top nodes;
    all_sources = merge_keys tai.all_sources delta Edge.src;
    all_destinations = merge_keys tai.all_destinations delta Edge.dst;
  }

let build ?(with_eci = true) graph =
  let eci x = if with_eci then Some x else None in
  let two = { edges = [||]; by_label = no_children; level2 = [||]; eci = eci [||] } in
  let empty =
    {
      graph;
      ls = two;
      ld = two;
      lsd =
        { edges = [||]; by_label = no_children; level2 = [||]; level3 = [||]; eci = eci [||] };
      lds = [||];
      all_sources = [||];
      all_destinations = [||];
    }
  in
  extend empty graph (Graph.edges graph)

let merge tai graph' =
  let old_n = Graph.n_edges tai.graph in
  let new_n = Graph.n_edges graph' in
  if new_n < old_n then
    invalid_arg "Tai.merge: the new graph has fewer edges than the indexed one";
  let same_edge a b =
    a == b
    || Edge.src a = Edge.src b && Edge.dst a = Edge.dst b
       && Edge.lbl a = Edge.lbl b
       && Temporal.Interval.equal (Edge.ivl a) (Edge.ivl b)
  in
  for i = 0 to old_n - 1 do
    if not (same_edge (Graph.edge graph' i) (Graph.edge tai.graph i)) then
      invalid_arg "Tai.merge: the new graph does not extend the indexed one"
  done;
  if new_n = old_n then tai
  else extend tai graph' (Array.sub (Graph.edges graph') old_n (new_n - old_n))

let build_time ?with_eci graph =
  let t0 = Unix.gettimeofday () in
  let tai = build ?with_eci graph in
  (tai, Unix.gettimeofday () -. t0)

let graph t = t.graph
let has_eci t = t.ls.eci <> None
let all_sources t = t.all_sources
let all_destinations t = t.all_destinations

let second_keys (trie : two_level) ~lbl =
  match Grouping.find trie.by_label lbl with
  | None -> [||]
  | Some li -> trie.level2.(li).Grouping.keys

let sources t ~lbl = second_keys t.ls ~lbl
let destinations t ~lbl = second_keys t.ld ~lbl

let dsts_of_src t ~lbl ~src =
  match Grouping.find t.lsd.by_label lbl with
  | None -> [||]
  | Some li -> (
      match Grouping.find t.lsd.level2.(li) src with
      | None -> [||]
      | Some si -> t.lsd.level3.(li).(si).Grouping.keys)

let srcs_of_dst t ~lbl ~dst =
  match Grouping.find t.ld.by_label lbl with
  | None -> [||]
  | Some li -> (
      match Grouping.find t.ld.level2.(li) dst with
      | None -> [||]
      | Some di -> t.lds.(li).(di).Grouping.keys)

let two_level_tsr (trie : two_level) ~lbl ~k2 =
  match Grouping.find trie.by_label lbl with
  | None -> Tsr.empty
  | Some li -> (
      match Grouping.find trie.level2.(li) k2 with
      | None -> Tsr.empty
      | Some ki ->
          let off, len = Grouping.range trie.level2.(li) ki in
          let coverage =
            Option.map (fun eci -> eci.(li).(ki)) trie.eci
          in
          Tsr.make_unchecked ?coverage (Slice.make trie.edges ~off ~len))

(* Wildcard retrieval: collect the endpoint's run under every label and
   merge them by start time into a fresh (coverage-free) TSR. *)
let two_level_tsr_any (trie : two_level) ~k2 =
  let runs = ref [] in
  let total = ref 0 in
  Array.iteri
    (fun li g2 ->
      ignore li;
      match Grouping.find g2 k2 with
      | None -> ()
      | Some ki ->
          let off, len = Grouping.range g2 ki in
          runs := (off, len) :: !runs;
          total := !total + len)
    trie.level2;
  match !runs with
  | [] -> Tsr.empty
  | [ (off, len) ] -> Tsr.make_unchecked (Slice.make trie.edges ~off ~len)
  | runs ->
      let out = Array.make !total trie.edges.(fst (List.hd runs)) in
      let pos = ref 0 in
      List.iter
        (fun (off, len) ->
          Array.blit trie.edges off out !pos len;
          pos := !pos + len)
        runs;
      Array.sort Edge.compare_by_start out;
      Tsr.make_unchecked (Slice.full out)

let tsr_out t ~lbl ~src =
  if lbl = Semantics.Query.any_label then two_level_tsr_any t.ls ~k2:src
  else two_level_tsr t.ls ~lbl ~k2:src

let tsr_in t ~lbl ~dst =
  if lbl = Semantics.Query.any_label then two_level_tsr_any t.ld ~k2:dst
  else two_level_tsr t.ld ~lbl ~k2:dst

let tsr_between_one t ~lbl ~src ~dst =
  match Grouping.find t.lsd.by_label lbl with
  | None -> Tsr.empty
  | Some li -> (
      match Grouping.find t.lsd.level2.(li) src with
      | None -> Tsr.empty
      | Some si -> (
          let g3 = t.lsd.level3.(li).(si) in
          match Grouping.find g3 dst with
          | None -> Tsr.empty
          | Some di ->
              let off, len = Grouping.range g3 di in
              let coverage =
                Option.map (fun eci -> eci.(li).(si).(di)) t.lsd.eci
              in
              Tsr.make_unchecked ?coverage (Slice.make t.lsd.edges ~off ~len)))

let tsr_between t ~lbl ~src ~dst =
  if lbl <> Semantics.Query.any_label then tsr_between_one t ~lbl ~src ~dst
  else begin
    (* union of the (l, src, dst) runs over every label *)
    let edges = ref [] in
    Array.iter
      (fun lbl ->
        Tsr.iter (fun e -> edges := e :: !edges)
          (tsr_between_one t ~lbl ~src ~dst))
      t.lsd.by_label.Grouping.keys;
    Tsr.of_edges (Array.of_list !edges)
  end

let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr

(* [f] summed over every coverage of the three ECIs *)
let sum_eci f t =
  let two (trie : two_level) = Option.fold ~none:0 ~some:(sum (sum f)) trie.eci in
  two t.ls + two t.ld + Option.fold ~none:0 ~some:(sum (sum (sum f))) t.lsd.eci

let eci_size_words t = sum_eci Temporal.Coverage.size_words t
let eci_n_tuples t = sum_eci Temporal.Coverage.n_tuples t

let size_words t =
  let edge_words arr = 8 * Array.length arr in
  let groupings = sum Grouping.size_words in
  let two (trie : two_level) = Grouping.size_words trie.by_label + groupings trie.level2 in
  let lsd = t.lsd in
  5
  + edge_words t.ls.edges + two t.ls
  + edge_words t.ld.edges + two t.ld
  + edge_words lsd.edges
  + Grouping.size_words lsd.by_label + groupings lsd.level2 + sum groupings lsd.level3
  (* LDS: LD's label and destination levels again, plus its sources *)
  + two t.ld + sum groupings t.lds
  + eci_size_words t
