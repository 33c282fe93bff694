open Tgraph

type trie = {
  edges : Edge.t array; (* sorted in (label, k2, k3, start) order *)
  by_label : Grouping.t;
  level2 : Grouping.t array; (* per label group: grouped by second key *)
  level3 : Grouping.t array array; (* per label, per second-key group *)
}

type t = {
  lsd : trie; (* second key = source, third = destination *)
  lds : trie; (* second key = destination, third = source *)
}

let build_trie graph ~cmp ~key2 ~key3 =
  let edges = Array.copy (Graph.edges graph) in
  Array.sort cmp edges;
  let by_label =
    Grouping.group edges ~off:0 ~len:(Array.length edges) ~key:Edge.lbl
  in
  let n_labels = Grouping.n_groups by_label in
  let level2 = Array.make n_labels (Grouping.group [||] ~off:0 ~len:0 ~key:Edge.lbl) in
  let level3 = Array.make n_labels [||] in
  for li = 0 to n_labels - 1 do
    let off, len = Grouping.range by_label li in
    let g2 = Grouping.group edges ~off ~len ~key:key2 in
    level2.(li) <- g2;
    level3.(li) <-
      Array.init (Grouping.n_groups g2) (fun si ->
          let off, len = Grouping.range g2 si in
          Grouping.group edges ~off ~len ~key:key3)
  done;
  { edges; by_label; level2; level3 }

let build graph =
  {
    lsd = build_trie graph ~cmp:Edge.compare_lsd ~key2:Edge.src ~key3:Edge.dst;
    lds = build_trie graph ~cmp:Edge.compare_lds ~key2:Edge.dst ~key3:Edge.src;
  }

let build_time graph =
  let t0 = Unix.gettimeofday () in
  let idx = build graph in
  (idx, Unix.gettimeofday () -. t0)

let any_label = -1

let merge_key_arrays arrays =
  let seen = Hashtbl.create 64 in
  List.iter (fun a -> Array.iter (fun k -> Hashtbl.replace seen k ()) a) arrays;
  let out = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort Int.compare out;
  out

let labels_of trie = trie.by_label.Grouping.keys

let merge_edge_slices slices =
  let total = List.fold_left (fun acc s -> acc + Slice.length s) 0 slices in
  if total = 0 then Slice.empty
  else begin
    let first = List.find (fun s -> not (Slice.is_empty s)) slices in
    let out = Array.make total (Slice.get first 0) in
    let pos = ref 0 in
    List.iter
      (fun s ->
        Slice.iter
          (fun e ->
            out.(!pos) <- e;
            incr pos)
          s)
      slices;
    Array.sort Tgraph.Edge.compare_by_start out;
    Slice.full out
  end

let second_keys trie ~lbl =
  match Grouping.find trie.by_label lbl with
  | None -> [||]
  | Some li -> trie.level2.(li).Grouping.keys

let sources t ~lbl =
  if lbl = any_label then
    merge_key_arrays
      (Array.to_list (Array.map (fun l -> second_keys t.lsd ~lbl:l) (labels_of t.lsd)))
  else second_keys t.lsd ~lbl

let destinations t ~lbl =
  if lbl = any_label then
    merge_key_arrays
      (Array.to_list (Array.map (fun l -> second_keys t.lds ~lbl:l) (labels_of t.lds)))
  else second_keys t.lds ~lbl

let third_keys trie ~lbl ~k2 =
  match Grouping.find trie.by_label lbl with
  | None -> [||]
  | Some li -> (
      match Grouping.find trie.level2.(li) k2 with
      | None -> [||]
      | Some si -> trie.level3.(li).(si).Grouping.keys)

let dst_keys t ~lbl ~src =
  if lbl = any_label then
    merge_key_arrays
      (Array.to_list
         (Array.map (fun l -> third_keys t.lsd ~lbl:l ~k2:src) (labels_of t.lsd)))
  else third_keys t.lsd ~lbl ~k2:src

let src_keys t ~lbl ~dst =
  if lbl = any_label then
    merge_key_arrays
      (Array.to_list
         (Array.map (fun l -> third_keys t.lds ~lbl:l ~k2:dst) (labels_of t.lds)))
  else third_keys t.lds ~lbl ~k2:dst

let level2_slice trie ~lbl ~k2 =
  match Grouping.find trie.by_label lbl with
  | None -> Slice.empty
  | Some li -> (
      match Grouping.find trie.level2.(li) k2 with
      | None -> Slice.empty
      | Some si ->
          let off, len = Grouping.range trie.level2.(li) si in
          Slice.make trie.edges ~off ~len)

let out_edges t ~lbl ~src =
  if lbl = any_label then
    merge_edge_slices
      (Array.to_list
         (Array.map (fun l -> level2_slice t.lsd ~lbl:l ~k2:src) (labels_of t.lsd)))
  else level2_slice t.lsd ~lbl ~k2:src

let in_edges t ~lbl ~dst =
  if lbl = any_label then
    merge_edge_slices
      (Array.to_list
         (Array.map (fun l -> level2_slice t.lds ~lbl:l ~k2:dst) (labels_of t.lds)))
  else level2_slice t.lds ~lbl ~k2:dst

let edges_between_one t ~lbl ~src ~dst =
  let trie = t.lsd in
  match Grouping.find trie.by_label lbl with
  | None -> Slice.empty
  | Some li -> (
      match Grouping.find trie.level2.(li) src with
      | None -> Slice.empty
      | Some si -> (
          let g3 = trie.level3.(li).(si) in
          match Grouping.find g3 dst with
          | None -> Slice.empty
          | Some di ->
              let off, len = Grouping.range g3 di in
              Slice.make trie.edges ~off ~len))

let edges_between t ~lbl ~src ~dst =
  if lbl = any_label then
    merge_edge_slices
      (Array.to_list
         (Array.map
            (fun l -> edges_between_one t ~lbl:l ~src ~dst)
            (labels_of t.lsd)))
  else edges_between_one t ~lbl ~src ~dst

let label_edges t ~lbl =
  let trie = t.lsd in
  if lbl = any_label then Slice.full trie.edges
  else
    match Grouping.find trie.by_label lbl with
    | None -> Slice.empty
    | Some li ->
        let off, len = Grouping.range trie.by_label li in
        Slice.make trie.edges ~off ~len

let trie_size trie =
  (* edges are counted at full record width (8 words), matching the
     paper's accounting where each index stores its own edge copy *)
  let base = 1 + (8 * Array.length trie.edges) + Grouping.size_words trie.by_label in
  let l2 = Array.fold_left (fun acc g -> acc + Grouping.size_words g) 0 trie.level2 in
  let l3 =
    Array.fold_left
      (fun acc gs ->
        Array.fold_left (fun acc g -> acc + Grouping.size_words g) acc gs)
      0 trie.level3
  in
  base + l2 + l3

let size_words t = 3 + trie_size t.lsd + trie_size t.lds
