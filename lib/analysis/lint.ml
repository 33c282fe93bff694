open Tcsq_core

type target = { tai : Tai.t; env : Query_check.env }

let target_of_tai tai = { tai; env = Query_check.env_of_graph (Tai.graph tai) }

let target_of_graph g = target_of_tai (Tai.build g)

let env t = t.env
let tai t = t.tai

let check_equery t eq =
  let q = Semantics.Equery.core eq in
  let ds = Query_check.check ~env:t.env q in
  if Diagnostic.has_errors ds then ds
  else
    ds
    @ Ext_check.check ~env:t.env eq
    @ (Bound.analyze ~allen:(Semantics.Equery.allen eq) ~env:t.env q)
        .Bound.diagnostics

let check_query t q = check_equery t (Semantics.Equery.plain q)

let check_pivot_order q order =
  Plan_check.check (Plan.of_pivot_order_unchecked q order)

let check_text ?default_window t text =
  match Semantics.Qlang.parse text with
  | Error { position; message } ->
      ( None,
        [
          Diagnostic.make ~code:"Q000" ~severity:Error
            ~location:(Text position) "syntax error: %s" message;
        ] )
  | Ok ast -> (
      match
        Semantics.Qlang.compile_ext ?default_window (Tai.graph t.tai) ast
      with
      | Error msg ->
          ( None,
            [
              Diagnostic.make ~code:"Q000" ~severity:Error ~location:Queryloc
                "%s" msg;
            ] )
      | Ok eq -> (Some eq, check_equery t eq))
