type t = { edges : int array; life : Temporal.Interval.t }

let make edges life = { edges; life }

let compare a b =
  let la = Array.length a.edges and lb = Array.length b.edges in
  let c = Int.compare la lb in
  if c <> 0 then c
  else begin
    let rec go i =
      if i = la then Temporal.Interval.compare a.life b.life
      else
        let c = Int.compare a.edges.(i) b.edges.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let equal a b = compare a b = 0

let collect run =
  let out = ref [] in
  run (fun m -> out := m :: !out);
  List.rev !out

let pp fmt m =
  Format.fprintf fmt "(%s, %a)"
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "e%d") m.edges)))
    Temporal.Interval.pp m.life

(* Constant keys are pre-escaped literals. A label's name is escaped on
   its first use by this writer and kept, together with the keys around
   it, as the one literal [, "label": <name>, "ts": ]. The cache lives in
   the writer, not in a global: ingest interns new labels into a shared
   table, and a writer only meets labels of the graph it was made for. *)
let json_writer g =
  let labels = Tgraph.Graph.labels g in
  let label_lits = Array.make (Tgraph.Label.count labels) "" in
  let label_lit lbl =
    let lit = label_lits.(lbl) in
    if lit <> "" then lit
    else begin
      let b = Buffer.create 32 in
      Buffer.add_string b ", \"label\": ";
      Obs.Json.write_string b (Tgraph.Label.name labels lbl);
      Buffer.add_string b ", \"ts\": ";
      let lit = Buffer.contents b in
      label_lits.(lbl) <- lit;
      lit
    end
  in
  fun buf m ->
    let int = Obs.Json.write_int in
    Buffer.add_string buf "{\"edges\": [";
    for i = 0 to Array.length m.edges - 1 do
      let id = m.edges.(i) in
      let e = Tgraph.Graph.edge g id in
      Buffer.add_string buf (if i = 0 then "{\"id\": " else ", {\"id\": ");
      int buf id;
      Buffer.add_string buf ", \"src\": ";
      int buf (Tgraph.Edge.src e);
      Buffer.add_string buf ", \"dst\": ";
      int buf (Tgraph.Edge.dst e);
      Buffer.add_string buf (label_lit (Tgraph.Edge.lbl e));
      int buf (Tgraph.Edge.ts e);
      Buffer.add_string buf ", \"te\": ";
      int buf (Tgraph.Edge.te e);
      Buffer.add_char buf '}'
    done;
    Buffer.add_string buf "], \"lifespan\": {\"ts\": ";
    int buf (Temporal.Interval.ts m.life);
    Buffer.add_string buf ", \"te\": ";
    int buf (Temporal.Interval.te m.life);
    Buffer.add_string buf "}}"

let csv_header = "edges,lifespan_ts,lifespan_te"

let to_csv m =
  Printf.sprintf "%s,%d,%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int m.edges)))
    (Temporal.Interval.ts m.life)
    (Temporal.Interval.te m.life)

let life_of_edges g edges =
  let open Temporal in
  Array.fold_left
    (fun acc id ->
      match acc with
      | None -> None
      | Some life -> Interval.intersect life (Tgraph.Edge.ivl (Tgraph.Graph.edge g id)))
    (Some (Interval.make min_int max_int))
    edges

let verify g q m =
  let open Tgraph in
  let n = Query.n_edges q in
  if Array.length m.edges <> n then
    Error
      (Printf.sprintf "match has %d edge bindings, query has %d edges"
         (Array.length m.edges) n)
  else begin
    let bindings = Array.make (Query.n_vars q) (-1) in
    let problem = ref None in
    let bind v vertex =
      if bindings.(v) = -1 then bindings.(v) <- vertex
      else if bindings.(v) <> vertex && !problem = None then
        problem :=
          Some
            (Printf.sprintf "variable x%d bound to both %d and %d" v
               bindings.(v) vertex)
    in
    Array.iteri
      (fun i id ->
        let qe = Query.edge q i in
        let e = Graph.edge g id in
        if qe.Query.lbl <> Query.any_label && Edge.lbl e <> qe.Query.lbl
           && !problem = None then
          problem :=
            Some
              (Printf.sprintf "edge %d: label %d does not match query label %d"
                 id (Edge.lbl e) qe.Query.lbl);
        bind qe.Query.src_var (Edge.src e);
        bind qe.Query.dst_var (Edge.dst e))
      m.edges;
    match !problem with
    | Some msg -> Error msg
    | None -> (
        match life_of_edges g m.edges with
        | None -> Error "matched intervals have empty intersection"
        | Some life ->
            if not (Temporal.Interval.equal life m.life) then
              Error
                (Printf.sprintf "claimed lifespan %s but intervals meet at %s"
                   (Temporal.Interval.to_string m.life)
                   (Temporal.Interval.to_string life))
            else if not (Temporal.Interval.overlaps life (Query.window q)) then
              Error "lifespan does not overlap the query window"
            else if Temporal.Interval.length life < Query.min_duration q then
              Error "lifespan shorter than the query's duration floor"
            else Ok ())
  end

module Result_set = struct
  type match_t = t
  type nonrec t = match_t array

  let of_list l =
    let arr = Array.of_list l in
    Array.sort compare arr;
    let out = ref [] in
    Array.iter
      (fun m ->
        match !out with
        | prev :: _ when equal prev m -> ()
        | _ -> out := m :: !out)
      arr;
    Array.of_list (List.rev !out)

  let cardinality = Array.length
  let to_list = Array.to_list

  let equal a b =
    Array.length a = Array.length b
    && begin
         let rec go i =
           i = Array.length a || (compare a.(i) b.(i) = 0 && go (i + 1))
         in
         go 0
       end

  let diff_summary ~expected ~actual =
    if equal expected actual then None
    else begin
      let to_set arr = List.rev (Array.to_list arr) in
      let mem arr m = Array.exists (fun m' -> compare m m' = 0) arr in
      let missing =
        List.filter (fun m -> not (mem actual m)) (to_set expected)
      in
      let extra = List.filter (fun m -> not (mem expected m)) (to_set actual) in
      let show l =
        String.concat "; "
          (List.map (Format.asprintf "%a" pp) (List.filteri (fun i _ -> i < 5) l))
      in
      Some
        (Printf.sprintf
           "expected %d matches, got %d. missing (%d): %s | extra (%d): %s"
           (Array.length expected) (Array.length actual) (List.length missing)
           (show missing) (List.length extra) (show extra))
    end
end

let durability m = Temporal.Interval.length m.life

module Top_k = struct
  module H = Temporal.Min_heap

  type match_t = t
  type nonrec t = { k : int; heap : match_t H.t }

  (* the heap's root is the weakest match kept: shortest, then last in
     match order *)
  let weaker a b =
    let c = Int.compare (durability a) (durability b) in
    if c <> 0 then c else compare b a

  let create k =
    if k < 1 then invalid_arg "Match_result.Top_k.create: need k >= 1";
    { k; heap = H.create ~cmp:weaker () }

  let offer t m =
    if H.length t.heap < t.k then H.push t.heap m
    else
      match H.peek t.heap with
      | Some weakest when weaker m weakest > 0 ->
          ignore (H.pop t.heap);
          H.push t.heap m
      | Some _ | None -> ()

  let drain t =
    let rec go acc =
      match H.pop t.heap with Some m -> go (m :: acc) | None -> acc
    in
    go [] (* popped weakest first *)
end
