(** The Leapfrog TSRJoin engine: executes a {!Plan.t} depth-first.

    Per plan step, pivot bindings come either from leapfrog intersection
    of TAI key sets (component roots) or from the propagated partial
    match; LFTO then joins the pivot's bound r-TSRs inside the current
    valid window, extending the partial match with edge bindings and a
    narrowed lifespan (partial match production + propagation).

    The valid window handed to LFTO is the propagated lifespan clipped
    to the query window — the clip guarantees every complete match's
    lifespan overlaps the query window (the paper's example windows are
    always inside the query window, where the two coincide). *)

type lfto_mode = Basic | Optimized of Lfto_opt.config

type config = {
  mode : lfto_mode;
  allen : (int * Temporal.Allen.relation * int) list;
      (** Allen constraints between query edges (by edge index), pruned
          as soon as both edges of a constraint are bound — equivalent
          to post-filtering complete matches on
          [Temporal.Allen.classify], just earlier in the join tree. *)
}

val default_config : config
(** [Optimized Lfto_opt.all_on], no Allen constraints. *)

val basic_config : config

type roots =
  | All_roots  (** evaluate every first-leapfrog binding (the default) *)
  | Root_filter of (int -> bool)
      (** evaluate only root bindings the predicate accepts; the first
          leapfrog still runs in full (its seeks are charged here) *)
  | Root_chunks of {
      candidates : int array;
      claim : unit -> (int * int) option;
    }
      (** parallel evaluation: skip the first leapfrog entirely and
          instead process [candidates.(lo..hi-1)] for every [(lo, hi)]
          index range [claim] hands out, until it returns [None].
          [candidates] must come from {!root_candidates} on the same
          plan; [claim] is typically a shared atomic cursor so several
          domains running the same plan drain disjoint chunks. *)

val run :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?roots:roots ->
  ?config:config ->
  ?plan:Plan.t ->
  ?limit:int ->
  ?counted:int ref ->
  Tai.t ->
  Semantics.Query.t ->
  emit:(Semantics.Match_result.t -> unit) ->
  unit
(** Evaluates the query, calling [emit] once per complete match. A
    supplied [plan] must be for (a query structurally equal to) the
    query. [roots] restricts which first-leapfrog bindings are explored
    (see {!roots}); complete matches partition over root bindings, so
    any partition of the root set yields a partition of the matches.
    Raises {!Semantics.Run_stats.Limit_exceeded} when the stats budget
    runs out.

    [limit] (default [max_int]: enumerate everything) is how many
    matches the caller wants to see. Matches stream as without it until
    [limit] have been emitted; after that, each call of the last plan
    step that meets the rule below counts its matches with
    {!Lfto_opt.count} and adds them to [counted] instead of emitting
    them. [emit] may still see more than [limit] matches (a call
    already under way finishes, and steps outside the rule enumerate);
    the answer's size is always the number of [emit] calls plus what
    was added to [counted], which holds the count so far also when the
    run raises. The rule: the step is the last, has one TSR, [mode] is
    [Optimized], [allen] is empty and the query's duration floor is at
    most 1. [stats] end up exactly as enumeration leaves them, levels
    included; a count that would cross a budget
    ({!Semantics.Run_stats.room}) enumerates instead, so a truncated
    run stops at the same tuple as it would without [limit]. *)

val evaluate :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?config:config ->
  ?plan:Plan.t ->
  Tai.t ->
  Semantics.Query.t ->
  Semantics.Match_result.t list

val count :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?config:config ->
  ?plan:Plan.t ->
  Tai.t ->
  Semantics.Query.t ->
  int

val root_candidates :
  ?stats:Semantics.Run_stats.t ->
  ?obs:Obs.Sink.t ->
  ?plan:Plan.t ->
  Tai.t ->
  Semantics.Query.t ->
  int array
(** Materializes the first leapfrog's candidate bindings, in ascending
    order — the input to {!roots.Root_chunks}. Seeks are ticked into
    [stats]/[obs] exactly as {!run} would, so a parallel run's merged
    counters match a sequential run's. The multicore driver lives in
    [Exec.Parallel] (lib/exec); this stays single-domain. *)
