(* Order statistics over float samples. Percentiles are nearest-rank, so
   every reported value is one that was actually measured. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* samples strictly above the [p] percentile: how many measurements the
   tail percentile actually rests on *)
let beyond a p =
  let v = percentile a p in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

(* growable sample buffer *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.0; len = 0 }

let add b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* The items taken while the host ran this VM: those whose [steal]
   share is at most [limit]. If fewer than a quarter of them pass, the
   quarter with the least steal, so that a run taken under steady steal
   still reports; its record says how many were left out. *)
let least_steal ~limit ~steal items =
  let floor = max 1 ((List.length items + 3) / 4) in
  match List.filter (fun x -> steal x <= limit) items with
  | ok when List.length ok >= floor -> ok
  | _ ->
      List.stable_sort (fun a b -> Float.compare (steal a) (steal b)) items
      |> List.filteri (fun i _ -> i < floor)
