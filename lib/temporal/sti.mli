(** Start Time Index (STI, Zhu et al. [28]).

    A temporal relation sorted by start time together with its
    earliest-concurrent coverage. The coverage lets a window scan begin
    at the earliest interval that can still overlap the window start
    (skipping every interval that expired before [ws]) instead of at the
    beginning of the relation. This is the index behind the TIME
    baseline. *)

type t

val build : Relation.t -> t
val relation : t -> Relation.t
val length : t -> int

val scan_range : t -> ws:int -> we:int -> int * int
(** [scan_range sti ~ws ~we] is the index range [(start, stop)] (half
    open) containing every item that overlaps the window: the scan starts
    at the earliest concurrent of [ws] (or at the first start after [ws]
    when nothing is alive at [ws]) and stops after the last item starting
    at or before [we]. Items inside the range may still end before [ws]
    and must be filtered by the consumer. *)

val enum_window : t -> ws:int -> we:int -> f:(Span_item.t -> unit) -> int
(** Enumerates (filtered) items overlapping the window; returns the
    count. *)

val size_words : t -> int
