type t = { items : Span_item.t array }

let of_items a =
  let items = Array.copy a in
  Span_item.sort_by_start items;
  { items }

let of_sorted a =
  if not (Span_item.is_sorted_by_start a) then
    invalid_arg "Relation.of_sorted: array not sorted by start";
  { items = a }

let of_list l = of_items (Array.of_list l)
let empty = { items = [||] }
let length r = Array.length r.items
let get r i = r.items.(i)
let items r = r.items

let lower_bound_start r t =
  let items = r.items in
  let lo = ref 0 and hi = ref (Array.length items) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Span_item.ts items.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_start r t =
  let items = r.items in
  let lo = ref 0 and hi = ref (Array.length items) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Span_item.ts items.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

let count_window r ~ws ~we =
  let stop = upper_bound_start r we in
  let count = ref 0 in
  for i = 0 to stop - 1 do
    if Span_item.te r.items.(i) >= ws then incr count
  done;
  !count

(* A span item is a 2-word record header-included approximation plus an
   interval record: ~6 words per item, 1 word per array slot. *)
let size_words r = 1 + (7 * Array.length r.items)
