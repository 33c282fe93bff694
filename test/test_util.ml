(* Shared helpers for the test suites: delegates input generation to the
   Testkit library and adds Alcotest-flavoured assertions. *)

open Semantics

let random_graph = Testkit.random_graph
let query_pool = Testkit.query_pool
let result_set_of_list = Match_result.Result_set.of_list

let check_same_results ~msg expected actual =
  let expected = result_set_of_list expected in
  let actual = result_set_of_list actual in
  match Match_result.Result_set.diff_summary ~expected ~actual with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: %s" msg diff

(* [Workload.Engine.run_ext]'s matches as a list, for plain ([run]) and
   extended ([run_ext]) queries. *)
let run_ext ?obs ?domains ?plan_cache ?plan_source engine m eq =
  Match_result.collect (fun emit ->
      Workload.Engine.run_ext ?obs ?domains ?plan_cache ?plan_source engine m
        eq ~emit)

let run ?obs ?domains ?plan_cache ?plan_source engine m q =
  run_ext ?obs ?domains ?plan_cache ?plan_source engine m (Equery.plain q)
