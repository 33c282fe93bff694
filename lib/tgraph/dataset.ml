type name = Yellow | Green | Bike | Divvy | Stack | Caida

let all = [| Yellow; Green; Bike; Divvy; Stack; Caida |]

let to_string = function
  | Yellow -> "yellow"
  | Green -> "green"
  | Bike -> "bike"
  | Divvy -> "divvy"
  | Stack -> "stack"
  | Caida -> "caida"

let of_string s =
  match String.lowercase_ascii s with
  | "yellow" -> Some Yellow
  | "green" -> Some Green
  | "bike" -> Some Bike
  | "divvy" -> Some Divvy
  | "stack" -> Some Stack
  | "caida" -> Some Caida
  | _ -> None

let describe = function
  | Yellow -> "NYC yellow taxi analogue: grid roads, long intervals"
  | Green -> "NYC green taxi analogue: grid roads, long intervals"
  | Bike -> "NYC bike-trip analogue: grid roads, short intervals"
  | Divvy -> "Chicago bike-trip analogue: grid roads, short intervals"
  | Stack -> "StackOverflow analogue: steep power-law, long-lived threads"
  | Caida -> "CAIDA AS-relationship analogue: power-law, long-lived edges"

(* Vertex counts are kept small relative to edge counts to preserve the
   paper's edges-per-vertex density (e.g. NYC taxi: 265 zones, millions
   of trips); interval lengths relative to the domain preserve each
   network's temporal-selectivity profile. *)
let base_config name : Generator.config =
  match name with
  | Yellow ->
      {
        topology = Grid { rows = 16; cols = 16 };
        n_edges = 60_000;
        n_labels = 8;
        domain = 100_000;
        mean_duration = 2_000.0;
        label_affinity = None;
        seed = 11;
      }
  | Green ->
      {
        topology = Grid { rows = 14; cols = 14 };
        n_edges = 45_000;
        n_labels = 8;
        domain = 100_000;
        mean_duration = 1_500.0;
        label_affinity = None;
        seed = 12;
      }
  | Bike ->
      {
        topology = Grid { rows = 15; cols = 15 };
        n_edges = 55_000;
        n_labels = 8;
        domain = 10_000;
        mean_duration = 80.0;
        label_affinity = None;
        seed = 13;
      }
  | Divvy ->
      {
        topology = Grid { rows = 13; cols = 13 };
        n_edges = 40_000;
        n_labels = 8;
        domain = 10_000;
        mean_duration = 60.0;
        label_affinity = None;
        seed = 14;
      }
  | Stack ->
      (* steep power law (selective topology) with long-lived threads
         (unselective time): the regime where the paper's T^P method
         loses its advantage *)
      {
        topology = Power_law { n_vertices = 1_500; exponent = 1.3 };
        n_edges = 50_000;
        n_labels = 12;
        domain = 100_000;
        mean_duration = 8_000.0;
        label_affinity = Some 5;
        seed = 15;
      }
  | Caida ->
      {
        topology = Power_law { n_vertices = 800; exponent = 1.1 };
        n_edges = 45_000;
        n_labels = 10;
        domain = 100_000;
        mean_duration = 25_000.0;
        label_affinity = Some 4;
        seed = 16;
      }

let config ?(scale = 1.0) name =
  let cfg = base_config name in
  if scale <= 0.0 then invalid_arg "Dataset.config: scale must be positive";
  if scale = 1.0 then cfg
  else
    Generator.with_edges cfg
      (max 1 (int_of_float (float_of_int cfg.Generator.n_edges *. scale)))

let cache : (string * float, Graph.t) Hashtbl.t = Hashtbl.create 8

let graph ?(scale = 1.0) name =
  let key = (to_string name, scale) in
  match Hashtbl.find_opt cache key with
  | Some g -> g
  | None ->
      let g = Generator.generate (config ~scale name) in
      Hashtbl.add cache key g;
      g
