open Tgraph

type t = {
  edges : Edge.t Triejoin.Slice.t;
  coverage : Temporal.Coverage.t option;
}

let is_start_sorted slice =
  let n = Triejoin.Slice.length slice in
  let rec check i =
    i >= n
    || Edge.compare_by_start
         (Triejoin.Slice.get slice (i - 1))
         (Triejoin.Slice.get slice i)
       <= 0
       && check (i + 1)
  in
  n <= 1 || check 1

let make ?coverage edges =
  if not (is_start_sorted edges) then
    invalid_arg "Tsr.make: slice not sorted by start time";
  { edges; coverage }

let make_unchecked ?coverage edges = { edges; coverage }

let of_edges ?coverage edges =
  let edges = Array.copy edges in
  Array.sort Edge.compare_by_start edges;
  { edges = Triejoin.Slice.full edges; coverage }

let empty = { edges = Triejoin.Slice.empty; coverage = None }
let length tsr = Triejoin.Slice.length tsr.edges
let is_empty tsr = Triejoin.Slice.is_empty tsr.edges
let get tsr i = Triejoin.Slice.get tsr.edges i
let iter f tsr = Triejoin.Slice.iter f tsr.edges
let to_list tsr = Triejoin.Slice.to_list tsr.edges
let coverage tsr = tsr.coverage

let lower_bound_start tsr t =
  let lo = ref 0 and hi = ref (length tsr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Edge.ts (get tsr mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_start tsr t =
  let lo = ref 0 and hi = ref (length tsr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Edge.ts (get tsr mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

let get_coverage_tuple tsr t =
  match tsr.coverage with
  | None -> None
  | Some c -> Temporal.Coverage.get_coverage_tuple c t
