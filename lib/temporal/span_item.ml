type t = { id : int; ivl : Interval.t }

let make id ivl = { id; ivl }
let id x = x.id
let ivl x = x.ivl
let ts x = Interval.ts x.ivl
let te x = Interval.te x.ivl

let compare_by_start a b =
  let c = Interval.compare a.ivl b.ivl in
  if c <> 0 then c else Int.compare a.id b.id

let sort_by_start items = Array.sort compare_by_start items

let is_sorted_by_start items =
  let n = Array.length items in
  let rec check i =
    if i >= n then true
    else if compare_by_start items.(i - 1) items.(i) > 0 then false
    else check (i + 1)
  in
  n <= 1 || check 1
