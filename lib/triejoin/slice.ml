type 'a t = { data : 'a array; off : int; len : int }

let make data ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length data then
    invalid_arg
      (Printf.sprintf "Slice.make: window (%d, %d) out of bounds for %d" off
         len (Array.length data));
  { data; off; len }

let full data = { data; off = 0; len = Array.length data }
let empty = { data = [||]; off = 0; len = 0 }
let length s = s.len
let is_empty s = s.len = 0

let get s i =
  if i < 0 || i >= s.len then
    invalid_arg (Printf.sprintf "Slice.get: index %d out of bounds [0, %d)" i s.len);
  s.data.(s.off + i)

let sub s ~off ~len =
  if off < 0 || len < 0 || off + len > s.len then
    invalid_arg "Slice.sub: window out of bounds";
  { data = s.data; off = s.off + off; len }

let iter f s =
  for i = 0 to s.len - 1 do
    f s.data.(s.off + i)
  done

let fold f init s =
  let acc = ref init in
  for i = 0 to s.len - 1 do
    acc := f !acc s.data.(s.off + i)
  done;
  !acc

let to_list s = List.init s.len (get s)
