(** CSV-ish persistence for temporal graphs.

    Line format (one edge per line, '#' comments and blank lines
    ignored):

    {v src,dst,label,ts,te v}

    where [label] is the label string (interned on load). *)

exception Malformed of string
(** The single load-time error of both graph codecs ({!Io} and
    {!Binary_io}): malformed user input — bad field counts, unparsable
    integers, inverted intervals, corrupt binary framing — raises
    [Malformed] with a located, human-readable message. I/O-level
    failures (missing file, permissions) keep raising [Sys_error].
    Programming errors (bad arguments to the API itself) keep raising
    [Invalid_argument]. *)

val save : Graph.t -> string -> unit
(** [save g path] writes [g] to [path]. *)

val load : string -> Graph.t
(** [load path] reads a graph.
    @raise Malformed with a line-numbered message on malformed input. *)

val load_contacts : ?label:string -> duration:int -> string -> Graph.t
(** Imports a SNAP-style contact sequence: whitespace-separated
    [src dst timestamp] lines ('#' comments ignored), turning each
    contact into an edge valid for [duration] timestamps from its
    contact time, labeled [label] (default ["contact"]). This is how
    public temporal datasets (e.g. SNAP's email/CollegeMsg networks)
    map onto the interval model.
    @raise Malformed with a line-numbered message on malformed input.
    @raise Invalid_argument when [duration < 1]. *)
