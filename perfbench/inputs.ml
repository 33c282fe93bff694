(* Every input of one run, derived from the seed and fixed settings:
   the served graph file, the request lines of the two read mixes, the
   ingest batches and the standing queries.

   One generated graph feeds all three workloads: the stack profile's
   own, with its fixed generator seed. The run's seed draws the read
   queries; the standing queries come from a fixed seed. Its edges are
   ordered by start time; the first [base_edges] form the served graph and the
   rest is the held-out suffix that ingest appends, in start order, in
   fixed-size batches. Point queries keep only windows that end before
   the suffix starts, so their exact counts (recorded by [Query_gen] on
   the served graph) stay exact while the stream workload ingests.

   Sliding standing queries end at the stream head, the newest edge end
   in the graph. So that the head moves with every batch, every edge
   ends at most one standing-query width after the newest start of its
   ingest unit (the served graph, or its batch): otherwise the long
   intervals the generator truncates at the domain end pin the head
   there and no window ever slides. *)

open Semantics

type size = {
  scale : float;  (* edge-count scale of the stack profile *)
  point_per_shape : int;
  scan_per_shape : int;
  scan_floor : int;  (* least exact result count of a scan query *)
  scan_work : float;  (* engine work the scan queries are chosen near *)
  batch_edges : int;
  batches : int;  (* held-out suffix length, in batches *)
  subs : int;
  sub_width_frac : float;  (* sliding standing-query width, share of the domain *)
}

let dataset = Tgraph.Dataset.Stack
let point_shapes = Pattern.[ Star 3; Chain 3; Cycle 3 ]
let point_frac = 0.015
let point_max_results = 100

(* the most matches a standing query may have over its sliding window *)
let sub_max_matches = 2_000

(* the seed of the point mix the standing queries are taken from *)
let sub_seed = 0

(* the point mix's mean result count: it fixes how many matches a
   response renders, the largest fixed cost of a request *)
let point_target = 30.0

(* more distinct (shape, labels) keys than the served plan cache holds,
   so a cycled scan mix misses it. Every shape contributes the same
   number of queries, chosen so that their mean engine work is a fixed
   target: choosing by result count left the mix's work, hence its
   latency, swinging by a fifth from seed to seed. Each shape has the
   window share at which that target lies inside its candidates' work;
   triangles rarely reach it, so they stay in the point mix only. *)
let scan_shapes = Pattern.[ (Chain 3, 0.3); (Chain 4, 0.5); (Cycle 4, 0.3); (T_shape 4, 0.4) ]

(* the scan mix's M: the server's default intermediate budget is 5M and
   Query_gen probes a candidate up to 50 M + 100K intermediates, so any
   M up to 98K keeps every accepted scan query inside that budget *)
let scan_max_results = 20_000

type query = {
  q : Query.t;
  text : string;
  line : string;  (* the wire request *)
  expected : int;  (* exact result count recorded by Query_gen *)
}

type batch = { bid : string; bline : string; n_edges : int }

type sub = { tag : string; sq : Query.t; stext : string; sline : string; width : int }

type t = {
  graph_file : string;
  base : Tgraph.Graph.t;
  base_edges : int;
  point : query array;
  scan : query array;
  batches : batch array;
  subs : sub array;
}

let request_line ~id text =
  Tcsq_server.Json.to_string (Tcsq_server.Client.query_json ~id text)

let make_query g ~id (qi : Workload.Query_gen.query_info) =
  let text = Qlang.render g qi.Workload.Query_gen.query in
  {
    q = qi.Workload.Query_gen.query;
    text;
    line = request_line ~id text;
    expected = qi.Workload.Query_gen.result_size;
  }

(* [want] queries of one shape passing [keep], out of three times as
   many candidates: of the runs of [want] candidates consecutive in
   [size], the one whose mean [size] lies closest (in ratio) to
   [target]. That pins the mix's mean far more tightly than taking the
   candidates nearest the target one by one, which a skewed pool pulls
   to one side. Query_gen rounds are deterministic in the seed and drawn
   until enough candidates pass or the attempt budget is spent. *)
let gen_shape engine ~seed ~shape ~frac ~max_results ~want ~size ~target keep =
  let pool = 3 * want in
  let rec go round acc =
    if List.length acc >= pool || round >= 8 then acc
    else
      let cfg =
        {
          (Workload.Query_gen.default ~shape) with
          Workload.Query_gen.n_queries = pool - List.length acc;
          window_frac = frac;
          max_results;
          seed = (seed * 7919) + (round * 104729) + Hashtbl.hash shape;
          max_attempts = 20 * pool;
        }
      in
      go (round + 1) (acc @ List.filter keep (Workload.Query_gen.generate engine cfg))
  in
  let cands =
    go 0 [] |> List.map (fun qi -> (size qi, qi)) |> Array.of_list
  in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) cands;
  let n = Array.length cands in
  let k = min want n in
  let off mean = Float.abs (log (Float.max 1.0 mean /. target)) in
  let sum i = Array.fold_left (fun s (x, _) -> s +. x) 0.0 (Array.sub cands i k) in
  let best = ref 0 in
  for i = 1 to n - k do
    if off (sum i /. float_of_int k) < off (sum !best /. float_of_int k) then best := i
  done;
  Array.to_list (Array.map snd (Array.sub cands !best k))

let result_size (qi : Workload.Query_gen.query_info) =
  float_of_int qi.Workload.Query_gen.result_size

(* a scan query's engine work: partial matches built plus edges swept *)
let work engine (qi : Workload.Query_gen.query_info) =
  let stats = Run_stats.create () in
  ignore
    (Workload.Engine.count ~stats engine Workload.Engine.Tsrjoin
       qi.Workload.Query_gen.query);
  float_of_int (stats.Run_stats.intermediate + stats.Run_stats.scanned)

let edge_json labels (src, dst, lbl, ts, te) =
  Tcsq_server.Json.Obj
    [
      ("src", Tcsq_server.Json.Int src);
      ("dst", Tcsq_server.Json.Int dst);
      ("label", Tcsq_server.Json.String (Tgraph.Label.name labels lbl));
      ("ts", Tcsq_server.Json.Int ts);
      ("te", Tcsq_server.Json.Int te);
    ]

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let generate ~dir ~seed ~scan size =
  let cfg = Tgraph.Dataset.config ~scale:size.scale dataset in
  let base_edges = cfg.Tgraph.Generator.n_edges in
  let held = size.batches * size.batch_edges in
  let full = Tgraph.Generator.generate (Tgraph.Generator.with_edges cfg (base_edges + held)) in
  let labels = Tgraph.Graph.labels full in
  let edges = Array.copy (Tgraph.Graph.edges full) in
  Array.stable_sort
    (fun a b -> compare (Tgraph.Edge.ts a) (Tgraph.Edge.ts b))
    edges;
  let width =
    max 1
      (int_of_float (size.sub_width_frac *. float_of_int cfg.Tgraph.Generator.domain))
  in
  (* the last edge of edge [i]'s ingest unit starts newest in it *)
  let unit_last i =
    if i < base_edges then base_edges - 1
    else base_edges + ((((i - base_edges) / size.batch_edges) + 1) * size.batch_edges) - 1
  in
  let tuple i =
    let e = edges.(i) in
    let cap = Tgraph.Edge.ts edges.(unit_last i) + width in
    Tgraph.Edge.(src e, dst e, lbl e, ts e, min (te e) cap)
  in
  let base = Tgraph.Graph.of_edge_list ~labels (List.init base_edges tuple) in
  let split_ts = Tgraph.Edge.ts edges.(base_edges) in
  let graph_file = Filename.concat dir "graph.bin" in
  Tgraph.Binary_io.save base graph_file;
  let engine = Workload.Engine.prepare base in
  let point_mix seed =
    List.concat_map
      (fun shape ->
        gen_shape engine ~seed ~shape ~frac:point_frac
          ~max_results:point_max_results ~want:size.point_per_shape
          ~size:result_size ~target:point_target
          (fun qi ->
            Temporal.Interval.te (Query.window qi.Workload.Query_gen.query)
            < split_ts))
      point_shapes
    |> List.mapi (fun i qi -> make_query base ~id:(Printf.sprintf "p%d" i) qi)
    |> Array.of_list
  in
  let point = point_mix seed in
  let scan =
    if not scan then [||]
    else
      List.concat
        (List.map
           (fun (shape, frac) ->
             gen_shape engine ~seed ~shape ~frac
               ~max_results:scan_max_results ~want:size.scan_per_shape
               ~size:(work engine) ~target:size.scan_work
               (fun qi -> qi.Workload.Query_gen.result_size >= size.scan_floor))
           scan_shapes)
      |> List.mapi (fun i qi -> make_query base ~id:(Printf.sprintf "s%d" i) qi)
      |> Array.of_list
  in
  let batches =
    Array.init size.batches (fun b ->
        let bid = Printf.sprintf "b%d" b in
        let es =
          List.init size.batch_edges (fun i ->
              edge_json labels (tuple (base_edges + (b * size.batch_edges) + i)))
        in
        {
          bid;
          bline =
            Tcsq_server.Json.to_string
              (Tcsq_server.Json.Obj
                 [
                   ("id", Tcsq_server.Json.String bid);
                   ("op", Tcsq_server.Json.String "ingest");
                   ("edges", Tcsq_server.Json.List es);
                 ]);
          n_edges = size.batch_edges;
        })
  in
  (* A standing query is re-evaluated over its whole window on every
     batch, so one with many matches can make every refresh slow enough
     to back the open-loop schedule up for the rest of the run (one
     seed's 3-star did). Each standing query is the first point-mix
     query from its spread position whose matches stay at most
     [sub_max_matches] over the window at every tenth batch, counted on
     the whole generated graph. The mix is drawn from [sub_seed], not the
     run's seed, so that ingest does the same work whatever the seed. *)
  let subs =
    let point = point_mix sub_seed in
    let all = List.init (base_edges + held) tuple in
    let whole = Workload.Engine.prepare (Tgraph.Graph.of_edge_list ~labels all) in
    let heads =
      List.init 11 (fun k ->
          let last = base_edges + (k * size.batches / 10 * size.batch_edges) - 1 in
          List.fold_left
            (fun h (_, _, _, _, te) -> max h te)
            0
            (List.filteri (fun i _ -> i <= last) all))
    in
    let bounded (p : query) =
      List.for_all
        (fun h ->
          Workload.Engine.count whole Workload.Engine.Tsrjoin
            (Query.with_window p.q (Temporal.Interval.make (h - width + 1) h))
          <= sub_max_matches)
        heads
    in
    let n = Array.length point in
    let taken = Hashtbl.create 8 in
    List.init (min size.subs n) (fun i ->
        (* spread the standing queries over every point shape *)
        let start = i * n / max 1 size.subs in
        let rec pick k =
          if k = n then None
          else
            let j = (start + k) mod n in
            if (not (Hashtbl.mem taken j)) && bounded point.(j) then begin
              Hashtbl.add taken j ();
              Some point.(j)
            end
            else pick (k + 1)
        in
        pick 0)
    |> List.filter_map Fun.id
    |> List.mapi (fun i (p : query) ->
           let tag = Printf.sprintf "w%d" i in
           {
             tag;
             sq = p.q;
             stext = p.text;
             sline =
               Tcsq_server.Json.to_string
                 (Tcsq_server.Client.subscribe_json ~id:tag ~window_width:width p.text);
             width;
           })
    |> Array.of_list
  in
  let lines f a = Array.to_list (Array.map f a) in
  write_lines (Filename.concat dir "point.jsonl") (lines (fun q -> q.line) point);
  write_lines (Filename.concat dir "scan.jsonl") (lines (fun q -> q.line) scan);
  write_lines (Filename.concat dir "batches.jsonl") (lines (fun b -> b.bline) batches);
  write_lines (Filename.concat dir "subs.jsonl") (lines (fun s -> s.sline) subs);
  { graph_file; base; base_edges; point; scan; batches; subs }

(* the served query that must reproduce a standing query's final total *)
let check_line (s : sub) g ~window =
  request_line ~id:("c" ^ s.tag) (Qlang.render g (Query.with_window s.sq window))
