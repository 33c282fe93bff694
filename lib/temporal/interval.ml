type t = { ts : int; te : int }

let make ts te =
  if te < ts then
    invalid_arg (Printf.sprintf "Interval.make: te (%d) < ts (%d)" te ts);
  { ts; te }

let make_opt ts te = if te < ts then None else Some { ts; te }
let point t = { ts = t; te = t }
let ts i = i.ts
let te i = i.te
let length i = i.te - i.ts + 1
let contains i t = i.ts <= t && t <= i.te
let overlaps a b = a.ts <= b.te && b.ts <= a.te
let overlaps_window i ~ws ~we = i.ts <= we && ws <= i.te

let intersect a b =
  let ts = max a.ts b.ts and te = min a.te b.te in
  if ts <= te then Some { ts; te } else None

let intersect_exn a b =
  let ts = max a.ts b.ts and te = min a.te b.te in
  if ts <= te then { ts; te }
  else
    invalid_arg
      (Printf.sprintf "Interval.intersect_exn: [%d,%d] and [%d,%d] disjoint"
         a.ts a.te b.ts b.te)

let span a b = { ts = min a.ts b.ts; te = max a.te b.te }
let before a b = a.te < b.ts
let equal a b = a.ts = b.ts && a.te = b.te

let compare a b =
  let c = Int.compare a.ts b.ts in
  if c <> 0 then c else Int.compare a.te b.te

let pp fmt i = Format.fprintf fmt "[%d, %d]" i.ts i.te
let to_string i = Printf.sprintf "[%d, %d]" i.ts i.te
