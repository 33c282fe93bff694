let magic = "TCSQGR\x01\n"

(* all decode-time corruption reports go through the shared typed
   load error of the codecs *)
let malformed fmt = Printf.ksprintf (fun msg -> raise (Io.Malformed msg)) fmt

(* ---- varint (LEB128, zig-zag for signed deltas) ---- *)

let write_uvarint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))
let write_svarint buf v = write_uvarint buf (zigzag v)

type reader = { data : bytes; mutable pos : int }

let read_byte r =
  if r.pos >= Bytes.length r.data then
    malformed "Binary_io: truncated input at byte %d" r.pos;
  let b = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  b

let read_uvarint r =
  let rec go shift acc =
    if shift > 62 then malformed "Binary_io: varint too long";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_svarint r = unzigzag (read_uvarint r)

(* ---- encode ---- *)

let to_bytes g =
  let buf = Buffer.create (64 + (Graph.n_edges g * 6)) in
  Buffer.add_string buf magic;
  let names = Label.names (Graph.labels g) in
  write_uvarint buf (Array.length names);
  Array.iter
    (fun n ->
      write_uvarint buf (String.length n);
      Buffer.add_string buf n)
    names;
  write_uvarint buf (Graph.n_vertices g);
  write_uvarint buf (Graph.n_edges g);
  (* edges in id order; delta-encode ts against the previous edge's ts
     (insertion order is usually roughly chronological) *)
  let prev_ts = ref 0 in
  Graph.iter_edges
    (fun e ->
      write_uvarint buf (Edge.src e);
      write_uvarint buf (Edge.dst e);
      write_uvarint buf (Edge.lbl e);
      write_svarint buf (Edge.ts e - !prev_ts);
      write_uvarint buf (Edge.te e - Edge.ts e);
      prev_ts := Edge.ts e)
    g;
  Buffer.to_bytes buf

(* ---- decode ---- *)

let of_bytes data =
  let r = { data; pos = 0 } in
  let m = Bytes.create (String.length magic) in
  String.iteri (fun i _ -> Bytes.set m i (Char.chr (read_byte r))) magic;
  if Bytes.to_string m <> magic then
    malformed "Binary_io: bad magic (not a tcsq graph file, or wrong version)";
  let n_labels = read_uvarint r in
  if n_labels > 1_000_000 then malformed "Binary_io: implausible label count";
  let names =
    Array.init n_labels (fun _ ->
        let len = read_uvarint r in
        if len > 4096 then malformed "Binary_io: implausible label length";
        String.init len (fun _ -> Char.chr (read_byte r)))
  in
  let labels = Label.of_names names in
  let n_vertices = read_uvarint r in
  let n_edges = read_uvarint r in
  let b = Graph.Builder.create ~labels () in
  let prev_ts = ref 0 in
  for i = 0 to n_edges - 1 do
    let src = read_uvarint r in
    let dst = read_uvarint r in
    let lbl = read_uvarint r in
    let ts = !prev_ts + read_svarint r in
    let len = read_uvarint r in
    if src >= n_vertices || dst >= n_vertices then
      malformed "Binary_io: edge %d endpoint out of range" i;
    if lbl >= n_labels then
      malformed "Binary_io: edge %d label out of range" i;
    prev_ts := ts;
    try ignore (Graph.Builder.add_edge b ~src ~dst ~lbl ~ts ~te:(ts + len))
    with Invalid_argument msg -> malformed "Binary_io: edge %d: %s" i msg
  done;
  if r.pos <> Bytes.length data then
    malformed "Binary_io: trailing bytes after the edge table";
  Graph.Builder.finish b

let save g path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes g))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let data = Bytes.create len in
      really_input ic data 0 len;
      of_bytes data)
