(* Planner statistics of one label, kept beside the edge table so the
   cost model and analyzer read them without an edge scan.
   [append] extends them from the new edges only. *)
type label_stats = {
  starts : int array; (* edge starts, ascending *)
  ends : int array; (* edge ends, ascending *)
  len_sum : int; (* sum of interval lengths, saturating at max_int *)
  max_len : int;
}

type t = {
  labels : Label.t;
  edges : Edge.t array;
  n_vertices : int;
  domain : Temporal.Interval.t option; (* None iff no edges *)
  stats : label_stats array; (* per label id interned when built *)
}

let no_stats = { starts = [||]; ends = [||]; len_sum = 0; max_len = 0 }

(* [extend_domain] and [extend_stats] fold edges [lo, hi) of [edges]
   into statistics covering the edges before [lo]: construction is the
   extension of empty statistics *)
let extend_domain domain edges lo hi =
  if lo >= hi then domain
  else begin
    let ts, te =
      match domain with
      | Some d -> (ref (Temporal.Interval.ts d), ref (Temporal.Interval.te d))
      | None -> (ref max_int, ref min_int)
    in
    for i = lo to hi - 1 do
      ts := Int.min !ts (Edge.ts edges.(i));
      te := Int.max !te (Edge.te edges.(i))
    done;
    Some (Temporal.Interval.make !ts !te)
  end

(* number of elements of the ascending array [a] below [t], searching
   from index [lo] on *)
let count_below ~lo (a : int array) t =
  let lo = ref lo and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* merge of the ascending arrays [a] and [b], [b] the short one: each
   element of [b] is placed by binary search, and the runs of [a]
   between them are copied over *)
let merge_sorted a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 in
    let copy_run hi shift =
      for q = !i to hi - 1 do
        out.(q + shift) <- a.(q)
      done;
      i := hi
    in
    Array.iteri
      (fun j x ->
        let k = count_below ~lo:!i a x in
        copy_run k j;
        out.(k + j) <- x)
      b;
    copy_run na nb;
    out
  end

(* lengths are positive, so a sum past max_int saturates there *)
let add_len a b = if a > max_int - b then max_int else a + b

let extend_stats stats ~n_labels edges lo hi =
  let fresh = Array.make n_labels 0 in
  for i = lo to hi - 1 do
    let l = Edge.lbl edges.(i) in
    fresh.(l) <- fresh.(l) + 1
  done;
  let starts = Array.map (fun n -> Array.make n 0) fresh in
  let ends = Array.map (fun n -> Array.make n 0) fresh in
  let fill = Array.make n_labels 0 in
  let len_sum = Array.make n_labels 0 and max_len = Array.make n_labels 0 in
  for i = lo to hi - 1 do
    let e = edges.(i) in
    let l = Edge.lbl e and len = Temporal.Interval.length (Edge.ivl e) in
    starts.(l).(fill.(l)) <- Edge.ts e;
    ends.(l).(fill.(l)) <- Edge.te e;
    fill.(l) <- fill.(l) + 1;
    len_sum.(l) <- add_len len_sum.(l) len;
    max_len.(l) <- Int.max max_len.(l) len
  done;
  Array.init n_labels (fun l ->
      let old = if l < Array.length stats then stats.(l) else no_stats in
      if fresh.(l) = 0 then old
      else begin
        (* the merge sort: on int arrays it beats [Array.sort]'s heap
           sort, and this is most of a graph load's added cost *)
        Array.stable_sort Int.compare starts.(l);
        Array.stable_sort Int.compare ends.(l);
        {
          starts = merge_sorted old.starts starts.(l);
          ends = merge_sorted old.ends ends.(l);
          len_sum = add_len old.len_sum len_sum.(l);
          max_len = Int.max old.max_len max_len.(l);
        }
      end)

let of_edges labels edges n_vertices =
  let n = Array.length edges in
  {
    labels;
    edges;
    n_vertices;
    domain = extend_domain None edges 0 n;
    stats = extend_stats [||] ~n_labels:(Label.count labels) edges 0 n;
  }

module Builder = struct
  type t = {
    labels : Label.t;
    acc : Edge.t Temporal.Vec.t;
    mutable max_vertex : int;
  }

  let create ?labels () =
    let labels = match labels with Some l -> l | None -> Label.create () in
    { labels; acc = Temporal.Vec.create (); max_vertex = -1 }

  let add_edge b ~src ~dst ~lbl ~ts ~te =
    Result.iter_error
      (fun msg -> invalid_arg ("Graph.Builder.add_edge: " ^ msg))
      (Edge.check ~src ~dst ~ts ~te);
    if lbl < 0 || lbl >= Label.count b.labels then
      invalid_arg (Printf.sprintf "Graph.Builder.add_edge: unknown label %d" lbl);
    let ivl = Temporal.Interval.make ts te in
    let id = Temporal.Vec.length b.acc in
    Temporal.Vec.push b.acc (Edge.make ~id ~src ~dst ~lbl ivl);
    b.max_vertex <- max b.max_vertex (max src dst);
    id

  let add_edge_named b ~src ~dst ~lbl ~ts ~te =
    let lbl = Label.intern b.labels lbl in
    add_edge b ~src ~dst ~lbl ~ts ~te

  let n_edges b = Temporal.Vec.length b.acc

  let finish b =
    of_edges b.labels (Temporal.Vec.to_array b.acc) (b.max_vertex + 1)
end

let labels g = g.labels
let n_vertices g = g.n_vertices
let n_edges g = Array.length g.edges
let n_labels g = Label.count g.labels

let edge g i =
  if i < 0 || i >= Array.length g.edges then
    invalid_arg (Printf.sprintf "Graph.edge: unknown edge id %d" i);
  g.edges.(i)

let edges g = g.edges
let iter_edges f g = Array.iter f g.edges
let fold_edges f init g = Array.fold_left f init g.edges

let time_domain g =
  match g.domain with
  | Some d -> d
  | None -> invalid_arg "Graph.time_domain: empty graph"

let label_stats g l =
  if l >= 0 && l < Array.length g.stats then g.stats.(l) else no_stats

let label_count g l = Array.length (label_stats g l).starts

let label_span g l =
  let s = label_stats g l in
  let n = Array.length s.starts in
  if n = 0 then None
  else Some (Temporal.Interval.make s.starts.(0) s.ends.(n - 1))

let label_len_sum g l = (label_stats g l).len_sum
let label_max_len g l = (label_stats g l).max_len

let count_starting_before g ~lbl t =
  count_below ~lo:0 (label_stats g lbl).starts t

let count_ending_before g ~lbl t = count_below ~lo:0 (label_stats g lbl).ends t

let window_of_fraction g ~frac ~at =
  if frac <= 0.0 || frac > 1.0 then
    invalid_arg "Graph.window_of_fraction: frac must be in (0, 1]";
  if at < 0.0 || at > 1.0 then
    invalid_arg "Graph.window_of_fraction: at must be in [0, 1]";
  let domain = time_domain g in
  let total = Temporal.Interval.length domain in
  let width = max 1 (int_of_float (Float.round (float_of_int total *. frac))) in
  let slack = total - width in
  let offset = int_of_float (Float.round (float_of_int slack *. at)) in
  let ws = Temporal.Interval.ts domain + offset in
  Temporal.Interval.make ws (ws + width - 1)

let prefix g k =
  if k < 0 || k > Array.length g.edges then
    invalid_arg (Printf.sprintf "Graph.prefix: bad edge count %d" k);
  let edges = Array.sub g.edges 0 k in
  let max_vertex = ref (-1) in
  Array.iter
    (fun e -> max_vertex := max !max_vertex (max (Edge.src e) (Edge.dst e)))
    edges;
  of_edges g.labels edges (!max_vertex + 1)

let of_edge_list ?labels l =
  let b = Builder.create ?labels () in
  List.iter
    (fun (src, dst, lbl, ts, te) ->
      (* Materialize label ids 0..lbl on demand so numeric test inputs
         stay terse. *)
      while Label.count (b.Builder.labels) <= lbl do
        ignore (Label.intern b.Builder.labels
                  (Printf.sprintf "l%d" (Label.count b.Builder.labels)))
      done;
      ignore (Builder.add_edge b ~src ~dst ~lbl ~ts ~te))
    l;
  Builder.finish b

let append g l =
  let n = Array.length g.edges in
  let extra =
    List.mapi
      (fun i (src, dst, lbl, ts, te) ->
        Result.iter_error
          (fun msg -> invalid_arg ("Graph.append: " ^ msg))
          (Edge.check ~src ~dst ~ts ~te);
        if lbl < 0 || lbl >= Label.count g.labels then
          invalid_arg (Printf.sprintf "Graph.append: unknown label %d" lbl);
        Edge.make ~id:(n + i) ~src ~dst ~lbl (Temporal.Interval.make ts te))
      l
  in
  let edges = Array.append g.edges (Array.of_list extra) in
  let max_vertex = ref (g.n_vertices - 1) in
  List.iter
    (fun e -> max_vertex := max !max_vertex (max (Edge.src e) (Edge.dst e)))
    extra;
  let m = Array.length edges in
  {
    g with
    edges;
    n_vertices = !max_vertex + 1;
    domain = extend_domain g.domain edges n m;
    stats =
      extend_stats g.stats ~n_labels:(Label.count g.labels) edges n m;
  }

let pp_summary fmt g =
  Format.fprintf fmt "graph{|V|=%d |E|=%d |L|=%d%t}" (n_vertices g) (n_edges g)
    (n_labels g) (fun fmt ->
      if n_edges g > 0 then
        Format.fprintf fmt " domain=%a" Temporal.Interval.pp (time_domain g))
