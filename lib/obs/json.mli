(** The one JSON value type, printer and parser.

    Every JSON document tcsq emits — wire frames, [tcsq-qlog/v1] lines,
    [trace/v1] files, explain and lint reports, [tcsq-bench/v1] records —
    is printed in one text format: [", "] between items, [": "] after
    keys, no newline inside a value (one-JSON-per-line framing relies on
    it). Most are built as a {!t} and printed by {!to_string}. The frames
    that carry matches (result, subscribe snapshot, delta) are instead
    written straight into one buffer by [Semantics.Match_result.json_writer]
    and the server's protocol, through {!write}, {!write_string} and
    {!write_int}; a property test in [test_server.ml] pins their bytes to
    {!to_string} of the equivalent tree. Dependency-free like the rest of
    [obs], so every layer can use it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Integral values below 1e15 print as ["%.1f"], others with
          the fewest of 15, 16 or 17 significant digits (["%.*g"]) that
          parse back to the same float. *)
  | Fixed of int * float
      (** [Fixed (d, f)] prints [f] with [d] decimals (["%.*f"]): the
          fixed-precision fields of qlog, traces and bench records. *)
  | Sig of int * float
      (** [Sig (d, f)] prints [f] with [d] significant digits
          (["%.*g"]): explain's estimates, bench's scale. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** The single-line text of a value. *)

val write : Buffer.t -> t -> unit
(** Appends the single-line text of a value: what {!to_string} returns. *)

val write_string : Buffer.t -> string -> unit
(** Appends a string literal, quoted and escaped: ['"'], ['\\'] and
    control characters are escaped, every other byte is copied. *)

val write_int : Buffer.t -> int -> unit
(** Appends an integer in decimal, byte for byte what [string_of_int]
    prints, [min_int] included, without allocating. *)

val max_depth : int
(** Deepest array/object nesting {!parse} accepts; the parser recurses
    per level on bytes read straight off a socket. *)

val parse : string -> (t, string) result
(** Numbers that read as an [int] parse as [Int], others as [Float]. *)

(** {2 Accessors} *)

val member : string -> t -> t option

val int_opt : t -> int option
(** [Int], or an integral [Float] inside the int range. *)

val mem_string : string -> t -> string option
val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
