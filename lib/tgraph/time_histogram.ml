type t = {
  domain_start : int;
  bucket_width : int;
  counts : float array array; (* per label, per bucket *)
  totals : int array; (* per label *)
}

let build ?(n_buckets = 64) g =
  if n_buckets <= 0 then invalid_arg "Time_histogram.build: need buckets";
  let n_labels = Graph.n_labels g in
  if Graph.n_edges g = 0 then
    {
      domain_start = 0;
      bucket_width = 1;
      counts = Array.make (max 1 n_labels) [||];
      totals = Array.make (max 1 n_labels) 0;
    }
  else begin
    let domain = Graph.time_domain g in
    let domain_start = Temporal.Interval.ts domain in
    let total = Temporal.Interval.length domain in
    let bucket_width = max 1 ((total + n_buckets - 1) / n_buckets) in
    (* an edge counts in buckets [bucket (ts), bucket (te)], the bucket
       index clamped to [0, n_buckets - 1]; so bucket [b] holds the edges
       with [ts < lo (b + 1)] (all of them in the last bucket) less those
       with [te < lo b] (none in the first), where [lo b] is the bucket's
       first tick. Both counts are binary searches in the graph's
       sorted per-label starts and ends. *)
    let lo b = domain_start + (b * bucket_width) in
    let counts =
      Array.init (max 1 n_labels) (fun l ->
          let c = Array.make n_buckets 0.0 in
          let n = Graph.label_count g l in
          if n > 0 then
            for b = 0 to n_buckets - 1 do
              let started =
                if b = n_buckets - 1 then n
                else Graph.count_starting_before g ~lbl:l (lo (b + 1))
              in
              let ended =
                if b = 0 then 0 else Graph.count_ending_before g ~lbl:l (lo b)
              in
              c.(b) <- float_of_int (started - ended)
            done;
          c)
    in
    let totals = Array.init (max 1 n_labels) (Graph.label_count g) in
    { domain_start; bucket_width; counts; totals }
  end

let active_in_window t ~lbl ~ws ~we =
  if lbl < 0 || lbl >= Array.length t.counts || we < ws then 0.0
  else begin
    let buckets = t.counts.(lbl) in
    let nb = Array.length buckets in
    if nb = 0 then 0.0
    else begin
      let clamp b = min (nb - 1) (max 0 b) in
      let b0 = clamp ((ws - t.domain_start) / t.bucket_width) in
      let b1 = clamp ((we - t.domain_start) / t.bucket_width) in
      let acc = ref 0.0 in
      for b = b0 to b1 do
        (* scale partial buckets by the window's coverage of them *)
        let bucket_lo = t.domain_start + (b * t.bucket_width) in
        let bucket_hi = bucket_lo + t.bucket_width - 1 in
        let covered =
          float_of_int (min we bucket_hi - max ws bucket_lo + 1)
          /. float_of_int t.bucket_width
        in
        if covered > 0.0 then acc := !acc +. (buckets.(b) *. min 1.0 covered)
      done;
      !acc
    end
  end

let selectivity t ~lbl ~ws ~we =
  if lbl < 0 || lbl >= Array.length t.totals || t.totals.(lbl) = 0 then 1e-9
  else
    min 1.0
      (max 1e-9 (active_in_window t ~lbl ~ws ~we /. float_of_int t.totals.(lbl)))
