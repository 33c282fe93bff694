type t = { keys : int array; mutable pos : int }

let of_sorted_array_unchecked keys = { keys; pos = 0 }

let of_sorted_array keys =
  for i = 1 to Array.length keys - 1 do
    if keys.(i - 1) >= keys.(i) then
      invalid_arg "Key_iter.of_sorted_array: keys not strictly ascending"
  done;
  of_sorted_array_unchecked keys

let reset it = it.pos <- 0
let at_end it = it.pos >= Array.length it.keys

let key it =
  if at_end it then invalid_arg "Key_iter.key: iterator at end";
  it.keys.(it.pos)

let next it = if not (at_end it) then it.pos <- it.pos + 1

let seek it target =
  let lo = ref it.pos and hi = ref (Array.length it.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if it.keys.(mid) < target then lo := mid + 1 else hi := mid
  done;
  it.pos <- !lo

