(* Tests for the temporal-graph substrate: labels, edges, builder, IO,
   stats, generators, datasets. *)

open Tgraph

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

(* ---------- Label ---------- *)

let test_label_interning () =
  let t = Label.create () in
  let a = Label.intern t "congested" in
  let b = Label.intern t "fluid" in
  let a' = Label.intern t "congested" in
  Alcotest.(check int) "stable id" a a';
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "count" 2 (Label.count t);
  Alcotest.(check string) "name" "fluid" (Label.name t b);
  Alcotest.(check (option int)) "find" (Some a) (Label.find t "congested");
  Alcotest.(check (option int)) "find missing" None (Label.find t "x");
  check_invalid "bad id" (fun () -> ignore (Label.name t 99))

let test_label_of_names () =
  let t = Label.of_names [| "a"; "b"; "c" |] in
  Alcotest.(check int) "ids follow order" 1 (Option.get (Label.find t "b"));
  check_invalid "duplicates rejected" (fun () ->
      ignore (Label.of_names [| "a"; "a" |]))

(* ---------- Graph builder ---------- *)

let small_graph () =
  Graph.of_edge_list
    [ (0, 1, 0, 0, 5); (1, 2, 1, 3, 8); (2, 0, 0, 6, 9); (0, 2, 1, 2, 4) ]

let test_builder_basics () =
  let g = small_graph () in
  Alcotest.(check int) "n_edges" 4 (Graph.n_edges g);
  Alcotest.(check int) "n_vertices" 3 (Graph.n_vertices g);
  Alcotest.(check int) "n_labels" 2 (Graph.n_labels g);
  let e = Graph.edge g 1 in
  Alcotest.(check int) "src" 1 (Edge.src e);
  Alcotest.(check int) "dst" 2 (Edge.dst e);
  Alcotest.(check int) "ts" 3 (Edge.ts e);
  check_invalid "bad edge id" (fun () -> ignore (Graph.edge g 99))

let test_builder_validation () =
  let b = Graph.Builder.create () in
  check_invalid "negative vertex" (fun () ->
      ignore (Graph.Builder.add_edge_named b ~src:(-1) ~dst:0 ~lbl:"a" ~ts:0 ~te:1));
  check_invalid "bad interval" (fun () ->
      ignore (Graph.Builder.add_edge_named b ~src:0 ~dst:1 ~lbl:"a" ~ts:5 ~te:4));
  check_invalid "unknown label id" (fun () ->
      ignore (Graph.Builder.add_edge b ~src:0 ~dst:1 ~lbl:7 ~ts:0 ~te:1));
  (* an interval whose length does not fit in an int *)
  check_invalid "length past max_int" (fun () ->
      ignore (Graph.Builder.add_edge b ~src:0 ~dst:1 ~lbl:0 ~ts:0 ~te:max_int));
  check_invalid "appended length past max_int" (fun () ->
      ignore (Graph.append (Graph.Builder.finish b) [ (0, 1, 0, min_int, max_int) ]));
  let g = Graph.of_edge_list [ (0, 1, 0, 1, max_int) ] in
  Alcotest.(check int) "[1, max_int] survives a binary round trip" max_int
    (Edge.te (Graph.edge (Binary_io.of_bytes (Binary_io.to_bytes g)) 0))

(* Two [1, max_int] edges sum past max_int: the label's length sum
   saturates there, when built at once and when appended, so the planner
   reads a huge mean length rather than a wrapped one. *)
let test_len_sum_saturates () =
  let long = (0, 1, 0, 1, max_int) and short = (1, 2, 0, 5, 6) in
  List.iter
    (fun (name, g) ->
      Alcotest.(check int) name max_int (Graph.label_len_sum g 0);
      let s = Tcsq_core.Plan.label_summary (Tcsq_core.Tai.build g) 0 in
      Alcotest.(check bool) (name ^ ": large mean length") true
        (s.Tcsq_core.Plan.mean_len > 1e18))
    [
      ("built at once", Graph.of_edge_list [ long; long; short ]);
      ("appended", Graph.append (Graph.of_edge_list [ long ]) [ long; short ]);
      ( "appended one by one",
        Graph.append (Graph.append (Graph.of_edge_list [ long ]) [ long ])
          [ short ] );
    ]

let test_time_domain () =
  let g = small_graph () in
  Alcotest.(check int) "domain start" 0 (Temporal.Interval.ts (Graph.time_domain g));
  Alcotest.(check int) "domain end" 9 (Temporal.Interval.te (Graph.time_domain g))

let test_window_of_fraction () =
  let g = small_graph () in
  let w = Graph.window_of_fraction g ~frac:0.5 ~at:0.0 in
  Alcotest.(check int) "width" 5 (Temporal.Interval.length w);
  Alcotest.(check int) "starts at domain start" 0 (Temporal.Interval.ts w);
  let w1 = Graph.window_of_fraction g ~frac:0.5 ~at:1.0 in
  Alcotest.(check int) "ends at domain end" 9 (Temporal.Interval.te w1);
  check_invalid "frac out of range" (fun () ->
      ignore (Graph.window_of_fraction g ~frac:0.0 ~at:0.0))

let test_prefix () =
  let g = small_graph () in
  let p = Graph.prefix g 2 in
  Alcotest.(check int) "edges" 2 (Graph.n_edges p);
  Alcotest.(check int) "vertices shrink" 3 (Graph.n_vertices p);
  Alcotest.(check int) "full prefix" 4 (Graph.n_edges (Graph.prefix g 4));
  check_invalid "too large" (fun () -> ignore (Graph.prefix g 5))

(* ---------- IO ---------- *)

let test_io_roundtrip () =
  let g = small_graph () in
  let path = Filename.temp_file "tcsq_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save g path;
      let g' = Io.load path in
      Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g');
      Alcotest.(check int) "vertices" (Graph.n_vertices g) (Graph.n_vertices g');
      for i = 0 to Graph.n_edges g - 1 do
        let a = Graph.edge g i and b = Graph.edge g' i in
        Alcotest.(check bool)
          (Printf.sprintf "edge %d equal" i)
          true
          (Edge.src a = Edge.src b && Edge.dst a = Edge.dst b
          && Edge.ts a = Edge.ts b && Edge.te a = Edge.te b);
        Alcotest.(check string)
          "label name"
          (Label.name (Graph.labels g) (Edge.lbl a))
          (Label.name (Graph.labels g') (Edge.lbl b))
      done)

let test_io_rejects_garbage () =
  let path = Filename.temp_file "tcsq_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1,2,a,0\n";
      close_out oc;
      Alcotest.check_raises "malformed line" (Io.Malformed "")
        (fun () ->
          try ignore (Io.load path)
          with Io.Malformed _ -> raise (Io.Malformed "")))

(* ---------- contact-sequence import ---------- *)

let test_load_contacts () =
  let path = Filename.temp_file "tcsq_contacts" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# SNAP-style contacts\n";
      output_string oc "0 1 100\n";
      output_string oc "1\t2\t105\n";
      output_string oc "\n";
      output_string oc "2 0 200\n";
      close_out oc;
      let g = Io.load_contacts ~duration:10 path in
      Alcotest.(check int) "edges" 3 (Graph.n_edges g);
      Alcotest.(check int) "vertices" 3 (Graph.n_vertices g);
      let e = Graph.edge g 0 in
      Alcotest.(check int) "ts" 100 (Edge.ts e);
      Alcotest.(check int) "te" 109 (Edge.te e);
      Alcotest.(check string) "label" "contact"
        (Label.name (Graph.labels g) (Edge.lbl e)))

let test_load_contacts_rejects () =
  let path = Filename.temp_file "tcsq_contacts" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0 1\n";
      close_out oc;
      Alcotest.check_raises "two fields" (Io.Malformed "") (fun () ->
          try ignore (Io.load_contacts ~duration:5 path)
          with Io.Malformed _ -> raise (Io.Malformed "")));
  Alcotest.check_raises "bad duration" (Invalid_argument "") (fun () ->
      try ignore (Io.load_contacts ~duration:0 "/dev/null")
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ---------- Binary codec ---------- *)

let test_binary_roundtrip () =
  let g =
    Generator.generate
      {
        topology = Uniform_random { n_vertices = 20 };
        n_edges = 300;
        n_labels = 4;
        domain = 500;
        mean_duration = 15.0;
        label_affinity = None;
        seed = 99;
      }
  in
  let bytes = Binary_io.to_bytes g in
  let g' = Binary_io.of_bytes bytes in
  Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g');
  Alcotest.(check int) "vertices" (Graph.n_vertices g) (Graph.n_vertices g');
  for i = 0 to Graph.n_edges g - 1 do
    let a = Graph.edge g i and b = Graph.edge g' i in
    if
      not
        (Edge.src a = Edge.src b && Edge.dst a = Edge.dst b
        && Edge.lbl a = Edge.lbl b && Edge.ts a = Edge.ts b
        && Edge.te a = Edge.te b)
    then Alcotest.failf "edge %d differs after binary round trip" i
  done;
  Alcotest.(check (array string))
    "label names"
    (Label.names (Graph.labels g))
    (Label.names (Graph.labels g'))

let test_binary_file_roundtrip () =
  let g = small_graph () in
  let path = Filename.temp_file "tcsq_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binary_io.save g path;
      let g' = Binary_io.load path in
      Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g'))

let test_binary_rejects_corruption () =
  let g = small_graph () in
  let bytes = Binary_io.to_bytes g in
  let expect_failure name data =
    Alcotest.check_raises name (Io.Malformed "") (fun () ->
        try ignore (Binary_io.of_bytes data)
        with Io.Malformed _ -> raise (Io.Malformed ""))
  in
  (* bad magic *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 0 'X';
  expect_failure "bad magic" bad;
  (* truncation *)
  expect_failure "truncated" (Bytes.sub bytes 0 (Bytes.length bytes - 2));
  (* trailing garbage *)
  expect_failure "trailing bytes" (Bytes.cat bytes (Bytes.of_string "junk"))

let test_binary_smaller_than_csv () =
  let g =
    Generator.generate
      {
        topology = Uniform_random { n_vertices = 50 };
        n_edges = 2000;
        n_labels = 4;
        domain = 5000;
        mean_duration = 40.0;
        label_affinity = None;
        seed = 5;
      }
  in
  let bin = Bytes.length (Binary_io.to_bytes g) in
  let csv = Filename.temp_file "tcsq_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv)
    (fun () ->
      Io.save g csv;
      let csv_size = (Unix.stat csv).Unix.st_size in
      Alcotest.(check bool)
        (Printf.sprintf "binary (%d) < csv (%d)" bin csv_size)
        true (bin < csv_size))

(* ---------- Stats ---------- *)

let test_stats () =
  let g = small_graph () in
  let s = Stats.compute g in
  Alcotest.(check int) "edges" 4 s.Stats.n_edges;
  Alcotest.(check int) "labels" 2 s.Stats.n_labels;
  Alcotest.(check int) "max interval" 6 s.Stats.max_interval_length;
  Alcotest.(check bool) "mean length" true
    (abs_float (s.Stats.mean_interval_length -. 4.75) < 1e-9);
  Alcotest.(check int) "max out degree" 2 s.Stats.max_out_degree

let test_stats_empty () =
  let g = Graph.Builder.finish (Graph.Builder.create ()) in
  let s = Stats.compute g in
  Alcotest.(check int) "edges" 0 s.Stats.n_edges;
  Alcotest.(check bool) "no domain" true (s.Stats.domain = None)

(* ---------- Generator / datasets ---------- *)

let test_generator_deterministic () =
  let cfg : Generator.config =
    {
      topology = Uniform_random { n_vertices = 50 };
      n_edges = 500;
      n_labels = 4;
      domain = 1000;
      mean_duration = 20.0;
      label_affinity = None;
      seed = 7;
    }
  in
  let g1 = Generator.generate cfg and g2 = Generator.generate cfg in
  Alcotest.(check int) "same size" (Graph.n_edges g1) (Graph.n_edges g2);
  let same = ref true in
  for i = 0 to Graph.n_edges g1 - 1 do
    let a = Graph.edge g1 i and b = Graph.edge g2 i in
    if
      not
        (Edge.src a = Edge.src b && Edge.dst a = Edge.dst b
        && Edge.lbl a = Edge.lbl b && Edge.ts a = Edge.ts b
        && Edge.te a = Edge.te b)
    then same := false
  done;
  Alcotest.(check bool) "identical edge streams" true !same;
  let g3 = Generator.generate { cfg with seed = 8 } in
  let differs = ref false in
  for i = 0 to min (Graph.n_edges g1) (Graph.n_edges g3) - 1 do
    if Edge.ts (Graph.edge g1 i) <> Edge.ts (Graph.edge g3 i) then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_generator_grid_topology () =
  let cfg : Generator.config =
    {
      topology = Grid { rows = 5; cols = 7 };
      n_edges = 300;
      n_labels = 3;
      domain = 100;
      mean_duration = 10.0;
      label_affinity = None;
      seed = 3;
    }
  in
  let g = Generator.generate cfg in
  Alcotest.(check bool) "vertices bounded by grid" true (Graph.n_vertices g <= 35);
  (* edges connect 4-neighbours or diagonal neighbours *)
  let ok = ref true in
  Graph.iter_edges
    (fun e ->
      let r1 = Edge.src e / 7 and c1 = Edge.src e mod 7 in
      let r2 = Edge.dst e / 7 and c2 = Edge.dst e mod 7 in
      let dr = abs (r1 - r2) and dc = abs (c1 - c2) in
      if not (dr <= 1 && dc <= 1 && dr + dc > 0) then ok := false)
    g;
  Alcotest.(check bool) "grid adjacency" true !ok

let test_generator_domain_respected () =
  let cfg : Generator.config =
    {
      topology = Uniform_random { n_vertices = 10 };
      n_edges = 400;
      n_labels = 2;
      domain = 50;
      mean_duration = 30.0;
      label_affinity = None;
      seed = 5;
    }
  in
  let g = Generator.generate cfg in
  let ok = ref true in
  Graph.iter_edges (fun e -> if Edge.ts e < 0 || Edge.te e > 49 then ok := false) g;
  Alcotest.(check bool) "intervals inside domain" true !ok

let test_dataset_presets () =
  Array.iter
    (fun name ->
      let cfg = Dataset.config ~scale:0.02 name in
      let g = Generator.generate cfg in
      Alcotest.(check bool)
        (Dataset.to_string name ^ " non-empty")
        true
        (Graph.n_edges g > 0))
    Dataset.all

let test_dataset_shapes () =
  (* the headline dataset contrast: taxi intervals are long, bike
     intervals short *)
  let scale = 0.05 in
  let yellow = Stats.compute (Dataset.graph ~scale Dataset.Yellow) in
  let bike = Stats.compute (Dataset.graph ~scale Dataset.Bike) in
  Alcotest.(check bool)
    "yellow intervals much longer than bike" true
    (yellow.Stats.mean_interval_length > 5.0 *. bike.Stats.mean_interval_length)

let test_dataset_profiles () =
  (* regression guard on the Table III shape (DESIGN.md §3): interval
     profiles and density ratios the reproduction depends on *)
  let scale = 0.1 in
  let stats name = Stats.compute (Dataset.graph ~scale name) in
  let yellow = stats Dataset.Yellow in
  let bike = stats Dataset.Bike in
  let stack = stats Dataset.Stack in
  let caida = stats Dataset.Caida in
  (* transportation: tiny vertex sets, heavy multi-edges *)
  Alcotest.(check bool) "yellow density" true
    (yellow.Stats.n_edges / yellow.Stats.n_vertices > 10);
  (* interval-length contrast relative to each domain *)
  let rel s =
    s.Stats.mean_interval_length
    /. float_of_int
         (match s.Stats.domain with
         | Some d -> Temporal.Interval.length d
         | None -> 1)
  in
  Alcotest.(check bool) "yellow relatively long" true (rel yellow > 2.0 *. rel bike);
  Alcotest.(check bool) "caida longest" true (rel caida > rel yellow);
  (* power-law graphs have hub skew *)
  Alcotest.(check bool) "stack hubs" true
    (float_of_int stack.Stats.max_out_degree
    > 5.0 *. stack.Stats.mean_out_degree)

let test_dataset_memoization () =
  let a = Dataset.graph ~scale:0.03 Dataset.Green in
  let b = Dataset.graph ~scale:0.03 Dataset.Green in
  Alcotest.(check bool) "same instance" true (a == b);
  let c = Dataset.graph ~scale:0.04 Dataset.Green in
  Alcotest.(check bool) "distinct per scale" true (a != c)

let test_dataset_of_string () =
  Alcotest.(check bool) "roundtrip" true
    (Array.for_all
       (fun n -> Dataset.of_string (Dataset.to_string n) = Some n)
       Dataset.all);
  Alcotest.(check bool) "unknown" true (Dataset.of_string "nope" = None)

let () =
  Alcotest.run "tgraph"
    [
      ( "label",
        [
          Alcotest.test_case "interning" `Quick test_label_interning;
          Alcotest.test_case "of_names" `Quick test_label_of_names;
        ] );
      ( "graph",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "length sum saturates" `Quick test_len_sum_saturates;
          Alcotest.test_case "time domain" `Quick test_time_domain;
          Alcotest.test_case "window_of_fraction" `Quick test_window_of_fraction;
          Alcotest.test_case "prefix subsets" `Quick test_prefix;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "contact sequences" `Quick test_load_contacts;
          Alcotest.test_case "contact validation" `Quick test_load_contacts_rejects;
        ] );
      ( "binary_io",
        [
          Alcotest.test_case "bytes roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_binary_file_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_binary_rejects_corruption;
          Alcotest.test_case "smaller than csv" `Quick test_binary_smaller_than_csv;
        ] );
      ( "stats",
        [
          Alcotest.test_case "small graph" `Quick test_stats;
          Alcotest.test_case "empty graph" `Quick test_stats_empty;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "grid topology" `Quick test_generator_grid_topology;
          Alcotest.test_case "domain respected" `Quick test_generator_domain_respected;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "presets generate" `Quick test_dataset_presets;
          Alcotest.test_case "interval-length contrast" `Quick test_dataset_shapes;
          Alcotest.test_case "profile regression" `Quick test_dataset_profiles;
          Alcotest.test_case "memoization" `Quick test_dataset_memoization;
          Alcotest.test_case "name roundtrip" `Quick test_dataset_of_string;
        ] );
    ]
