(* The backing array is allocated lazily at the first push, so no dummy
   element is ever needed; [data] is [[||]] iff nothing was ever
   pushed. [hint] remembers the requested capacity. *)
type 'a t = { mutable data : 'a array; mutable size : int; hint : int }

let create ?(capacity = 8) () = { data = [||]; size = 0; hint = max capacity 1 }

let length v = v.size
let is_empty v = v.size = 0

let check v i =
  if i < 0 || i >= v.size then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0, %d)" i v.size)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let push v x =
  if v.size = Array.length v.data then begin
    let capacity = max v.hint (2 * Array.length v.data) in
    let data = Array.make capacity x in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let pop_exn v =
  if v.size = 0 then invalid_arg "Vec.pop_exn: empty vector";
  v.size <- v.size - 1;
  v.data.(v.size)

let clear v = v.size <- 0

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let to_array v = Array.sub v.data 0 v.size
let to_list v = Array.to_list (to_array v)

let of_array a =
  let v = create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (push v) a;
  v

let of_list l = of_array (Array.of_list l)

let insert_sorted ~cmp v x =
  (* Find the first position whose element is greater than x, then shift
     the suffix right by one. *)
  let lo = ref 0 and hi = ref v.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp v.data.(mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  push v x;
  let pos = !lo in
  if pos < v.size - 1 then begin
    Array.blit v.data pos v.data (pos + 1) (v.size - 1 - pos);
    v.data.(pos) <- x
  end

let remove_prefix p v =
  let k = ref 0 in
  while !k < v.size && p v.data.(!k) do incr k done;
  let removed = !k in
  if removed > 0 then begin
    Array.blit v.data removed v.data 0 (v.size - removed);
    v.size <- v.size - removed
  end;
  removed

let filter_in_place p v =
  let kept = ref 0 in
  for i = 0 to v.size - 1 do
    if p v.data.(i) then begin
      v.data.(!kept) <- v.data.(i);
      incr kept
    end
  done;
  let removed = v.size - !kept in
  v.size <- !kept;
  removed
