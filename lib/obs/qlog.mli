(** Structured per-request query log: one JSON object per line, schema
    [tcsq-qlog/v1]. The server appends a record for every request it
    finishes (any outcome, including rejections), giving operators and
    the future re-optimizer a greppable trace of what ran, how long it
    took, and how far the cost model's per-level predictions were from
    the measured cardinalities.

    Dependency-free by design (Stdlib only): timestamps are supplied by
    the caller, execution counters arrive as plain [(name, value)]
    pairs, and the writer is a mutex-guarded [out_channel] safe to share
    across worker domains.

    Line schema (all keys always present; absent values are [null]):
    [schema], [ts], [id], [fingerprint], [query], [method], [window]
    ([{ws, we}]), [outcome], [duration_ms], [slow], [truncated],
    [deadline], [stats] (object of counters), [levels] (array of
    [{level, est, actual}]), [misestimation], [plan_source]. *)

type outcome =
  | Completed
  | Truncated_budget
  | Truncated_deadline
  | Rejected_query  (** parse failure or static analysis error *)
  | Rejected_lint  (** admission lint refused the query *)
  | Overloaded
  | Internal_error

type level = { level : int; est : int; actual : int }
(** One TSRJoin plan level: the analyzer's predicted intermediate
    cardinality next to the measured one. *)

type record = {
  ts : float;  (** unix seconds, caller-supplied (injected clock) *)
  id : string option;  (** client-supplied request id *)
  fingerprint : string option;  (** {!Semantics.Fingerprint}; [None]
                                    when the query never parsed *)
  query : string option;  (** original request text *)
  method_ : string option;
  window : (int * int) option;
  outcome : outcome;
  duration_ms : float;
  stats : (string * int) list;
  levels : level list;
  misestimation : float option;
      (** max over levels of the symmetric est-vs-actual factor;
          [None] when there is no estimate to compare against *)
  plan_source : string option;
      (** where the TSRJoin plan came from: ["cached"], ["fresh"] or
          ["replanned"] ({!Workload.Plan_cache} — named here as a plain
          string to keep lib/obs dependency-free); [None] for methods
          without a planner or requests that never executed *)
}

type t
(** A JSONL appender. *)

val create : ?slow_ms:float -> ?sample:float -> string -> (t, string) result
(** [create ~slow_ms ~sample path] opens [path] for append.
    [slow_ms] (default [infinity]) marks records at or above the
    threshold as slow; [sample] (default [1.0], clamped to [0..1]) is
    the keep-rate for ordinary lines — slow or non-[Completed] records
    are always written regardless. *)

val log : t -> record -> bool
(** Append one record (thread-safe). Returns whether the line was
    written — [false] only when the deterministic sampler thinned an
    ordinary (fast, completed) record or the writer is closed. *)

val close : t -> unit
