(* Normalized sets of integer timestamps, represented as sorted lists of
   disjoint, non-adjacent closed intervals. Lists are tiny in practice
   (clause unions per match, lifespan pieces), so linear merges beat any
   tree structure. *)

type t = Interval.t list

let empty = []
let is_empty s = s = []
let of_interval i = [ i ]
let to_list s = s

(* guard against te = max_int: naive lifespans start unbounded *)
let succ_te i =
  let te = Interval.te i in
  if te = max_int then max_int else te + 1

let normalize l =
  let sorted = List.sort Interval.compare l in
  let rec merge acc = function
    | [] -> List.rev acc
    | i :: rest -> (
        match acc with
        | j :: acc' when Interval.ts i <= succ_te j ->
            (* overlapping or adjacent: fuse into one maximal interval *)
            merge
              (Interval.make (Interval.ts j)
                 (max (Interval.te j) (Interval.te i))
              :: acc')
              rest
        | _ -> merge (i :: acc) rest)
  in
  merge [] sorted

let of_list l = normalize l

let union a b = normalize (List.rev_append a b)

let inter a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | x :: a', y :: b' ->
        let acc =
          match Interval.intersect x y with Some i -> i :: acc | None -> acc
        in
        if Interval.te x <= Interval.te y then go acc a' b else go acc a b'
  in
  go [] a b

let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | a, [] -> List.rev_append acc a
    | x :: a', y :: b' ->
        if Interval.te y < Interval.ts x then go acc a b'
        else if Interval.te x < Interval.ts y then go (x :: acc) a' b
        else begin
          (* x and y share at least one tick *)
          let acc =
            if Interval.ts x < Interval.ts y then
              Interval.make (Interval.ts x) (Interval.ts y - 1) :: acc
            else acc
          in
          if Interval.te x > Interval.te y then
            go acc (Interval.make (Interval.te y + 1) (Interval.te x) :: a') b'
          else go acc a' b
        end
  in
  go [] a b

let equal a b = List.length a = List.length b && List.for_all2 Interval.equal a b

let to_string s =
  "{" ^ String.concat ", " (List.map Interval.to_string s) ^ "}"
