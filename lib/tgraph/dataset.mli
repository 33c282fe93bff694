(** The six experiment datasets.

    Synthetic stand-ins for the paper's Table III networks, shaped to
    match each network's published profile (see DESIGN.md §3):

    - [Yellow], [Green]: NYC taxi trips — grid road topology, heavy
      multi-edges, {e long} intervals relative to the domain;
    - [Bike], [Divvy]: bike trips — grid topology, {e short} intervals;
    - [Stack]: StackOverflow interactions — power-law topology, many
      vertices, medium intervals;
    - [Caida]: autonomous-system relationships — power-law topology,
      very long-lived edges. *)

type name = Yellow | Green | Bike | Divvy | Stack | Caida

val all : name array
val to_string : name -> string

val of_string : string -> name option
(** Case-insensitive. *)

val config : ?scale:float -> name -> Generator.config
(** The generator configuration; [scale] multiplies the edge count
    (default [1.0], ~40-60K edges per dataset). *)

val graph : ?scale:float -> name -> Graph.t
(** [graph name] generates the dataset (deterministic; results are
    memoized per [(name, scale)] within a process). *)

val describe : name -> string
