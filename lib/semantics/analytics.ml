let buckets_of ?(n_buckets = 24) ~over () =
  if n_buckets <= 0 then invalid_arg "Analytics: need at least one bucket";
  let ws = Temporal.Interval.ts over in
  let total = Temporal.Interval.length over in
  let width = max 1 ((total + n_buckets - 1) / n_buckets) in
  Array.init n_buckets (fun i ->
      let lo = ws + (i * width) in
      Temporal.Interval.make lo (lo + width - 1))

let lifespan_histogram ?n_buckets ~over ms =
  let buckets = buckets_of ?n_buckets ~over () in
  Array.map
    (fun bucket ->
      let count =
        List.fold_left
          (fun acc m ->
            if Temporal.Interval.overlaps m.Match_result.life bucket then
              acc + 1
            else acc)
          0 ms
      in
      (bucket, count))
    buckets

let active_at ms ~t =
  List.fold_left
    (fun acc m ->
      if Temporal.Interval.contains m.Match_result.life t then acc + 1 else acc)
    0 ms

let peak ?n_buckets ~over ms =
  let hist = lifespan_histogram ?n_buckets ~over ms in
  Array.fold_left
    (fun best (bucket, count) ->
      match best with
      | Some (_, best_count) when best_count >= count -> best
      | _ -> if count > 0 then Some (bucket, count) else best)
    None hist

type durability_summary = {
  count : int;
  min_len : int;
  max_len : int;
  mean_len : float;
  median_len : int;
}

let durability_summary = function
  | [] -> None
  | ms ->
      let lens = Array.of_list (List.map Match_result.durability ms) in
      Array.sort Int.compare lens;
      let n = Array.length lens in
      let sum = Array.fold_left ( + ) 0 lens in
      Some
        {
          count = n;
          min_len = lens.(0);
          max_len = lens.(n - 1);
          mean_len = float_of_int sum /. float_of_int n;
          median_len = lens.(n / 2);
        }
