(* Query-shape fingerprints: a stable 64-bit hash of the label / arity /
   constraint shape of an extended query — the future plan-cache key and
   the grouping key of the server's query log.

   Two queries fingerprint identically iff their canonical forms agree:
   variables are renumbered by first appearance in edge order (so any
   alias or variable renaming that preserves the edge list is
   invisible), the window contributes only its length (so translating
   the window in time is invisible), and clause lists are sorted (so
   clause order is invisible). Everything that changes what the planner
   or executor would do — a label, an edge, a constraint, the duration
   floor, the aggregate, the window length — changes the fingerprint. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

(* canonical variable ids: order of first appearance over the edge list
   (src before dst), the same order [Qlang.render_ext] names variables
   in — so a render/parse roundtrip maps onto the identical canon *)
let canon_vars q =
  let canon = Array.make (Query.n_vars q) (-1) in
  let next = ref 0 in
  let visit v =
    if canon.(v) < 0 then begin
      canon.(v) <- !next;
      incr next
    end
  in
  Array.iter
    (fun (e : Query.edge) ->
      visit e.Query.src_var;
      visit e.Query.dst_var)
    (Query.edges q);
  canon

let canonical eq =
  let q = Equery.core eq in
  let canon = canon_vars q in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "tcsq-fp/v1";
  Array.iter
    (fun (e : Query.edge) ->
      Printf.bprintf buf "|e%d:%d>%d" e.Query.lbl canon.(e.Query.src_var)
        canon.(e.Query.dst_var))
    (Query.edges q);
  Printf.bprintf buf "|w%d" (Temporal.Interval.length (Query.window q));
  Printf.bprintf buf "|d%d" (Query.min_duration q);
  let endpoint = function
    | Equery.Any -> "*"
    | Equery.Var v -> string_of_int canon.(v)
  in
  let clause_strings kind cs =
    List.map
      (fun (c : Equery.clause) ->
        Printf.sprintf "%s%d:%s>%s" kind c.Equery.lbl (endpoint c.Equery.src)
          (endpoint c.Equery.dst))
      cs
    |> List.sort String.compare
  in
  List.iter (Printf.bprintf buf "|%s")
    (clause_strings "n" (Equery.anti eq));
  List.iter (Printf.bprintf buf "|%s")
    (clause_strings "x" (Equery.semi eq));
  List.iter (Printf.bprintf buf "|%s")
    (List.sort String.compare
       (List.map
          (fun (i, rel, j) ->
            Printf.sprintf "a%d %s %d" i (Temporal.Allen.to_string rel) j)
          (Equery.allen eq)));
  (match Equery.agg eq with
  | None -> ()
  | Some Equery.Count -> Printf.bprintf buf "|count"
  | Some (Equery.Top k) -> Printf.bprintf buf "|top%d" k);
  Buffer.contents buf

let of_equery eq = Printf.sprintf "%016Lx" (fnv1a64 (canonical eq))

let of_query q = of_equery (Equery.plain q)

(* ---- plan-cache keys ---- *)

let canonical_vars = canon_vars

(* ceil-log2 buckets over the window length: lengths 1 | 2 | 3-4 | 5-8 |
   9-16 | ... share a bucket, so 2^k and 2^k + 1 always key apart — the
   planner's temporal factors move smoothly within a bucket but change
   regime across the doubling boundary. *)
let window_bucket len =
  if len <= 1 then 0
  else begin
    (* bits of (len - 1) = ceil (log2 len) for len >= 2 *)
    let n = ref (len - 1) and b = ref 0 in
    while !n > 0 do
      incr b;
      n := !n lsr 1
    done;
    !b
  end

let canonical_plan q =
  let canon = canon_vars q in
  let buf = Buffer.create 96 in
  Printf.bprintf buf "tcsq-fp-plan/v1";
  Array.iter
    (fun (e : Query.edge) ->
      Printf.bprintf buf "|e%d:%d>%d" e.Query.lbl canon.(e.Query.src_var)
        canon.(e.Query.dst_var))
    (Query.edges q);
  Printf.bprintf buf "|wb%d"
    (window_bucket (Temporal.Interval.length (Query.window q)));
  Printf.bprintf buf "|d%d" (Query.min_duration q);
  Buffer.contents buf
