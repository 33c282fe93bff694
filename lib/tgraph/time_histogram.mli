(** Equi-width temporal histograms of edge activity, per label.

    For each label, the time domain is split into a fixed number of
    buckets and each bucket counts the edges alive in it (an edge spans
    every bucket its interval intersects). Query planners use this to
    estimate, for a specific query window, how many edges of a label are
    temporally relevant — much sharper than a global mean interval
    length when activity is bursty. *)

type t

val build : ?n_buckets:int -> Graph.t -> t
(** Default 64 buckets. An empty graph yields a histogram whose
    estimates are all zero. *)

val active_in_window : t -> lbl:int -> ws:int -> we:int -> float
(** Estimated number of label-[lbl] edges alive somewhere in the window
    (sum of intersected buckets, each scaled by the window's coverage of
    the bucket; an upper-bound-flavoured estimate since an edge spanning
    several intersected buckets is counted per bucket). Unknown labels
    estimate 0. *)

val selectivity : t -> lbl:int -> ws:int -> we:int -> float
(** [active_in_window / label count], clamped to [1e-9, 1]: the
    fraction of the label's edges that are temporally relevant to the
    window. *)
