(** Structured diagnostics for static query/plan analysis.

    Every finding of the analyzer is a [t]: a stable code (["Q002"],
    ["P004"], ...), a severity, a location pointing at the query edge,
    variable, window or plan step at fault, and a human-readable
    message. Some diagnostics additionally {e prove} that the query has
    zero matches (e.g. a window disjoint from the graph's time span);
    callers may short-circuit execution on those.

    Codes are namespaced: [Qxxx] for query semantic analysis
    ({!Query_check}), [Pxxx] for plan invariant analysis
    ({!Plan_check}). *)

type severity = Hint | Warning | Error
(** Ordered: [Hint < Warning < Error]. *)

type location =
  | Queryloc  (** the query as a whole *)
  | Window  (** the query time window *)
  | Edge of int  (** a query edge, by index *)
  | Var of int  (** a query variable *)
  | Step of int  (** a plan step, by position *)
  | Planloc  (** the plan as a whole *)
  | Text of int  (** a byte offset into query-language source *)

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
  proves_empty : bool;
      (** The diagnostic proves the query has zero matches. *)
}

val make :
  ?proves_empty:bool ->
  code:string ->
  severity:severity ->
  location:location ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [make ~code ~severity ~location fmt ...] formats the message. *)

val compare_severity : severity -> severity -> int
val severity_name : severity -> string
(** ["hint"], ["warning"], ["error"]. *)

val location_string : location -> string
(** e.g. ["edge 2"], ["step 1"], ["variable x3"], ["window"]. *)

val max_severity : t list -> severity option
(** [None] on a clean (empty) list. *)

val has_errors : t list -> bool
val proves_empty : t list -> bool
(** Whether any diagnostic proves the query empty. *)

val exit_code : t list -> int
(** The [tcsq lint] contract: 0 clean (hints included), 1 warnings,
    2 errors. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[code] at location: message]. *)

val to_string : t -> string

val to_json : t -> Obs.Json.t
(** A JSON object:
    [{"code": "Q002", "severity": "warning",
      "location": {"kind": "window"}, "message": "...",
      "proves_empty": true}];
    indexed locations carry an ["index"] field. *)

val list_to_json : t list -> Obs.Json.t
(** A JSON array of {!to_json} objects. *)
