type tuple = { cs : int; ce : int; ec : int }
type t = { tuples : tuple array }

let empty = { tuples = [||] }
let tuples c = c.tuples
let n_tuples c = Array.length c.tuples

(* eC(t) is the start of the earliest-starting interval overlapping t.
   With items sorted by start, that is the start of the first item (in
   start order) whose end is >= t, provided that item has started by t:
   every interval overlapping t comes no earlier in start order, so it
   starts no earlier. That first item stays first until t passes its
   end, so eC is constant from t to its end, and the sweep jumps there:
   one pass over the items, no sort. A piece extends the previous tuple
   when contiguous with an equal ec, so runs come out maximal; every
   piece moves the first item forward, so there are at most [n]. *)
let of_run n ~ts ~te =
  for i = 1 to n - 1 do
    if ts i < ts (i - 1) then invalid_arg "Coverage.of_run: not in start order"
  done;
  let out = Array.make n { cs = 0; ce = 0; ec = 0 } in
  let n_out = ref 0 and first = ref 0 and time = ref min_int in
  while !first < n do
    let i = !first in
    if te i < !time then incr first
    else begin
      let ec = ts i and ce = te i in
      let cs = if ec > !time then ec else !time in
      let last = !n_out - 1 in
      if last >= 0 && out.(last).ec = ec && out.(last).ce + 1 = cs then
        out.(last) <- { (out.(last)) with ce }
      else begin
        out.(!n_out) <- { cs; ce; ec };
        incr n_out
      end;
      (* nothing comes after [max_int]: the last tuple is out *)
      if ce = max_int then first := n else time := ce + 1
    end
  done;
  if !n_out = 0 then empty else { tuples = Array.sub out 0 !n_out }

let build items =
  if not (Span_item.is_sorted_by_start items) then
    invalid_arg "Coverage.build: items not sorted by start time";
  of_run (Array.length items)
    ~ts:(fun i -> Span_item.ts items.(i))
    ~te:(fun i -> Span_item.te items.(i))

(* Binary search: first tuple with ce >= t (tuples are disjoint and sorted
   by cs, hence also by ce). That tuple either contains t or starts after
   t, matching the paper's getCoverageTuple contract. *)
let get_coverage_tuple c t =
  let tuples = c.tuples in
  let n = Array.length tuples in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if tuples.(mid).ce < t then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then None else Some tuples.(!lo)

let earliest_concurrent c t =
  match get_coverage_tuple c t with
  | Some tup when tup.cs <= t && t <= tup.ce -> Some tup.ec
  | Some _ | None -> None

let size_words c = 3 + (4 * Array.length c.tuples)
