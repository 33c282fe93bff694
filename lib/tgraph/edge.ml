type t = {
  id : int;
  src : int;
  dst : int;
  lbl : int;
  ivl : Temporal.Interval.t;
}

let make ~id ~src ~dst ~lbl ivl = { id; src; dst; lbl; ivl }

let check ~src ~dst ~ts ~te =
  if src < 0 || dst < 0 then
    Error (Printf.sprintf "negative vertex id on edge %d->%d" src dst)
  else if te < ts then Error (Printf.sprintf "te < ts on edge %d->%d" src dst)
  else if te - ts + 1 <= 0 then
    (* the length wrapped: it exceeds [max_int] *)
    Error
      (Printf.sprintf "interval [%d, %d] of edge %d->%d is longer than max_int"
         ts te src dst)
  else Ok ()

let id e = e.id
let src e = e.src
let dst e = e.dst
let lbl e = e.lbl
let ivl e = e.ivl
let ts e = Temporal.Interval.ts e.ivl
let te e = Temporal.Interval.te e.ivl
let to_span e = Temporal.Span_item.make e.id e.ivl

let compare_by_start a b =
  let c = Temporal.Interval.compare a.ivl b.ivl in
  if c <> 0 then c else Int.compare a.id b.id

(* The trie orders compare their integer keys lexicographically, then
   by start; each key is read only when every earlier one ties. *)
let compare_lsd a b =
  if a.lbl <> b.lbl then Int.compare a.lbl b.lbl
  else if a.src <> b.src then Int.compare a.src b.src
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else compare_by_start a b

let compare_lds a b =
  if a.lbl <> b.lbl then Int.compare a.lbl b.lbl
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else if a.src <> b.src then Int.compare a.src b.src
  else compare_by_start a b

let compare_ls a b =
  if a.lbl <> b.lbl then Int.compare a.lbl b.lbl
  else if a.src <> b.src then Int.compare a.src b.src
  else compare_by_start a b

let compare_ld a b =
  if a.lbl <> b.lbl then Int.compare a.lbl b.lbl
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else compare_by_start a b
