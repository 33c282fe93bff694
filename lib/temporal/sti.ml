type t = { relation : Relation.t; coverage : Coverage.t }

let build relation =
  { relation; coverage = Coverage.build (Relation.items relation) }

let relation sti = sti.relation
let length sti = Relation.length sti.relation

let scan_range sti ~ws ~we =
  let stop = Relation.upper_bound_start sti.relation we in
  let start_time =
    match Coverage.get_coverage_tuple sti.coverage ws with
    | None -> max_int (* the relation dies out before ws: nothing to scan *)
    | Some tup ->
        if tup.Coverage.cs <= ws && ws <= tup.Coverage.ce then tup.Coverage.ec
        else
          (* Nothing alive at ws; the first candidates start in
             (ws, we], all at or after the next covered segment. *)
          tup.Coverage.cs
  in
  let start =
    if start_time = max_int then stop
    else Relation.lower_bound_start sti.relation start_time
  in
  (min start stop, stop)

let enum_window sti ~ws ~we ~f =
  let start, stop = scan_range sti ~ws ~we in
  let count = ref 0 in
  for i = start to stop - 1 do
    let it = Relation.get sti.relation i in
    if Interval.overlaps_window (Span_item.ivl it) ~ws ~we then begin
      incr count;
      f it
    end
  done;
  !count

let size_words sti =
  2 + Relation.size_words sti.relation + Coverage.size_words sti.coverage
