type t = {
  iters : Key_iter.t array;  (* ordered by current key, rotating index p *)
  mutable p : int;
  mutable binding : int option;
  (* observation hooks (callbacks, not a stats type, so this library
     stays free of semantics/obs dependencies) *)
  on_seek : unit -> unit;
  on_next : unit -> unit;
}

let nop () = ()

(* leapfrog-search: let max be the key of the iterator just before p in
   rotation order; repeatedly seek iterator p to max. Terminates with all
   iterators on the same key (a binding) or with some iterator at end. *)
let search lf =
  let k = Array.length lf.iters in
  if Array.exists Key_iter.at_end lf.iters then lf.binding <- None
  else begin
    let max_key = ref (Key_iter.key lf.iters.((lf.p + k - 1) mod k)) in
    let rec loop () =
      let it = lf.iters.(lf.p) in
      let least = Key_iter.key it in
      if least = !max_key then lf.binding <- Some !max_key
      else begin
        lf.on_seek ();
        Key_iter.seek it !max_key;
        if Key_iter.at_end it then lf.binding <- None
        else begin
          max_key := Key_iter.key it;
          lf.p <- (lf.p + 1) mod k;
          loop ()
        end
      end
    in
    loop ()
  end

let create ?(on_seek = nop) ?(on_next = nop) iters =
  if Array.length iters = 0 then invalid_arg "Leapfrog.create: no iterators";
  Array.iter Key_iter.reset iters;
  let lf = { iters; p = 0; binding = None; on_seek; on_next } in
  if Array.exists Key_iter.at_end iters then lf
  else begin
    (* leapfrog-init: order iterators by their first key. *)
    Array.sort (fun a b -> Int.compare (Key_iter.key a) (Key_iter.key b)) lf.iters;
    lf.p <- 0;
    search lf;
    lf
  end

let next lf =
  match lf.binding with
  | None -> ()
  | Some _ ->
      lf.on_next ();
      let it = lf.iters.(lf.p) in
      Key_iter.next it;
      if Key_iter.at_end it then lf.binding <- None else search lf

let iter f lf =
  let rec go () =
    match lf.binding with
    | None -> ()
    | Some v ->
        f v;
        next lf;
        go ()
  in
  go ()

let to_list lf =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) lf;
  List.rev !acc

let intersect_arrays arrays =
  match arrays with
  | [] -> [||]
  | _ ->
      let lf =
        create (Array.of_list (List.map Key_iter.of_sorted_array arrays))
      in
      Array.of_list (to_list lf)
