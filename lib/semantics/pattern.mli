(** The query-pattern catalog (the paper's Fig. 7).

    A shape fixes the topology; {!instantiate} attaches labels and a
    window to produce a {!Query.t}. *)

type shape =
  | Star of int  (** [Star k]: k edges out of a shared center *)
  | Chain of int  (** [Chain k]: k edges in a directed path *)
  | Cycle of int  (** [Cycle k]: k edges in a directed cycle, k >= 3;
                      [Cycle 3] is the triangle *)
  | T_shape of int
      (** [T_shape k]: a 2-star whose center continues into a chain of
          [k - 2] further edges (k >= 3) *)
  | Double_star of int
      (** [Double_star k]: two centers each pointing at the same [k]
          targets (2k edges, k + 2 variables) — the intro's "pairs of
          users following k accounts in common" *)

val n_edges : shape -> int

val validate : shape -> unit
(** @raise Invalid_argument on a degenerate size (e.g. [Cycle 2]). *)

val instantiate :
  shape -> labels:int array -> window:Temporal.Interval.t -> Query.t
(** [labels] must have length [n_edges shape].
    @raise Invalid_argument otherwise. *)

val to_string : shape -> string
(** e.g. ["3-star"], ["4-chain"], ["triangle"], ["4-circle"]. *)

val of_string : string -> shape option
(** Accepts ["3-star"], ["star3"], ["triangle"], ["4-circle"],
    ["circle4"], ["4-cycle"], ["tshape4"], ["3-dstar"], ... *)

val paper_set : shape list
(** The shapes evaluated in the paper's experiments: 3-star, 4-star,
    3-chain, 4-chain, triangle, 4-circle. *)

val selectivity_set : shape list
(** The Fig. 11 subset: 4-star, 4-chain, 4-circle. *)
