(** Pass 2: plan invariant analysis.

    Reports {!Tcsq_core.Plan.violations} — the rule set
    {!Tcsq_core.Plan.validate} enforces before execution — as
    diagnostics located at a step or a query edge.

    Codes (all [Error]):
    - [P001] step matches no query edge
    - [P002] pivot used before being bound (unbound non-root pivot)
    - [P003] [produce_binding] set on an already-bound pivot
    - [P004] query edge never matched by the plan
    - [P005] query edge matched more than once
    - [P006] step edge not incident to the step's pivot
    - [P007] step edge disagrees with the query's edge table *)

val check : Tcsq_core.Plan.t -> Diagnostic.t list
(** Diagnostics in step order, then unmatched-edge order. *)
