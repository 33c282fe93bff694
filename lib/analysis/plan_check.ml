open Tcsq_core

let code = function
  | Plan.Empty_step -> "P001"
  | Unbound_pivot -> "P002"
  | Bound_root -> "P003"
  | Unmatched_edge -> "P004"
  | Rematched_edge -> "P005"
  | Detached_edge -> "P006"
  | Foreign_edge -> "P007"

let check p =
  List.map
    (fun (v : Plan.violation) ->
      let location =
        match v.site with
        | Plan.At_step i -> Diagnostic.Step i
        | At_edge i -> Edge i
      in
      Diagnostic.make ~code:(code v.rule) ~severity:Error ~location "%s"
        v.message)
    (Plan.violations p)
