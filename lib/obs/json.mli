(** The one JSON value type, printer and parser.

    Every JSON document tcsq emits — wire frames, [tcsq-qlog/v1] lines,
    [trace/v1] files, explain and lint reports, [tcsq-bench/v1] records —
    is built as a {!t} and printed by {!to_string}, so the text format is
    decided here and nowhere else: [", "] between items, [": "] after
    keys, no newline inside a value (one-JSON-per-line framing relies on
    it). Dependency-free like the rest of [obs], so every layer can use
    it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Integral values below 1e15 print as ["%.1f"], others as
          ["%.17g"]; parses back to the same float. *)
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

val to_string_lines : t list -> string
(** An array with a line break after each element's comma (["[a,\n b]"]):
    the layout of [tcsq query --format json]. Joining its lines gives
    [to_string (List items)]. *)

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
