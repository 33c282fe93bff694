type severity = Hint | Warning | Error

type location =
  | Queryloc
  | Window
  | Edge of int
  | Var of int
  | Step of int
  | Planloc
  | Text of int

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
  proves_empty : bool;
}

let make ?(proves_empty = false) ~code ~severity ~location fmt =
  Format.kasprintf
    (fun message -> { code; severity; location; message; proves_empty })
    fmt

let severity_rank = function Hint -> 0 | Warning -> 1 | Error -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

let severity_name = function
  | Hint -> "hint"
  | Warning -> "warning"
  | Error -> "error"

let location_string = function
  | Queryloc -> "query"
  | Window -> "window"
  | Edge i -> Printf.sprintf "edge %d" i
  | Var v -> Printf.sprintf "variable x%d" v
  | Step i -> Printf.sprintf "step %d" i
  | Planloc -> "plan"
  | Text off -> Printf.sprintf "offset %d" off

let max_severity = function
  | [] -> None
  | d :: ds ->
      Some
        (List.fold_left
           (fun acc d ->
             if compare_severity d.severity acc > 0 then d.severity else acc)
           d.severity ds)

let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let proves_empty ds = List.exists (fun d -> d.proves_empty) ds

let exit_code ds =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Hint | None -> 0

let pp fmt d =
  Format.fprintf fmt "%s[%s] at %s: %s" (severity_name d.severity) d.code
    (location_string d.location)
    d.message

let to_string d = Format.asprintf "%a" pp d

let location_json = function
  | Queryloc -> Semantics.Json_out.obj [ ("kind", "\"query\"") ]
  | Window -> Semantics.Json_out.obj [ ("kind", "\"window\"") ]
  | Edge i ->
      Semantics.Json_out.obj
        [ ("kind", "\"edge\""); ("index", string_of_int i) ]
  | Var v ->
      Semantics.Json_out.obj
        [ ("kind", "\"variable\""); ("index", string_of_int v) ]
  | Step i ->
      Semantics.Json_out.obj
        [ ("kind", "\"step\""); ("index", string_of_int i) ]
  | Planloc -> Semantics.Json_out.obj [ ("kind", "\"plan\"") ]
  | Text off ->
      Semantics.Json_out.obj
        [ ("kind", "\"text\""); ("offset", string_of_int off) ]

let to_json d =
  Semantics.Json_out.obj
    [
      ("code", Semantics.Json_out.escape_string d.code);
      ("severity", Semantics.Json_out.escape_string (severity_name d.severity));
      ("location", location_json d.location);
      ("message", Semantics.Json_out.escape_string d.message);
      ("proves_empty", string_of_bool d.proves_empty);
    ]

let list_to_json ds = Semantics.Json_out.arr (List.map to_json ds)
