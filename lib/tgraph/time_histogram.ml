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
    let counts = Array.init (max 1 n_labels) (fun _ -> Array.make n_buckets 0.0) in
    let totals = Array.make (max 1 n_labels) 0 in
    let bucket_of t =
      min (n_buckets - 1) (max 0 ((t - domain_start) / bucket_width))
    in
    Graph.iter_edges
      (fun e ->
        let l = Edge.lbl e in
        totals.(l) <- totals.(l) + 1;
        let b0 = bucket_of (Edge.ts e) and b1 = bucket_of (Edge.te e) in
        for b = b0 to b1 do
          counts.(l).(b) <- counts.(l).(b) +. 1.0
        done)
      g;
    { domain_start; bucket_width; counts; totals }
  end

let n_buckets t =
  if Array.length t.counts = 0 then 0 else Array.length t.counts.(0)

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
