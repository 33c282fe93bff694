(** Descriptive analytics over match sets.

    Temporal-clique queries return matches with lifespans; applications
    usually want them summarized over time (jams per hour, co-follow
    bursts per day). These helpers aggregate lifespans without touching
    the graph. *)

val lifespan_histogram :
  ?n_buckets:int ->
  over:Temporal.Interval.t ->
  Match_result.t list ->
  (Temporal.Interval.t * int) array
(** [lifespan_histogram ~over ms] splits [over] into [n_buckets]
    (default 24) equal buckets and counts, per bucket, the matches whose
    lifespan intersects it. A match spanning several buckets counts in
    each. *)

val active_at : Match_result.t list -> t:int -> int
(** Matches whose lifespan contains the timestamp. *)

val peak :
  ?n_buckets:int ->
  over:Temporal.Interval.t ->
  Match_result.t list ->
  (Temporal.Interval.t * int) option
(** The histogram bucket with the most active matches ([None] for an
    empty match list or a histogram of zeros). *)

type durability_summary = {
  count : int;
  min_len : int;
  max_len : int;
  mean_len : float;
  median_len : int;
}

val durability_summary : Match_result.t list -> durability_summary option
(** Lifespan-length statistics; [None] on an empty list. *)
