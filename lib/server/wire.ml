(* Newline-delimited framing over a file descriptor, shared by the
   server's connection handlers and the client. *)

type reader = {
  fd : Unix.file_descr;
  max_line : int;
  chunk : bytes;
  lines : string Queue.t;
  partial : Buffer.t;
  mutable eof : bool;
}

exception Frame_too_long

let reader ~max_line fd =
  { fd; max_line; chunk = Bytes.create 8192; lines = Queue.create ();
    partial = Buffer.create 256; eof = false }

(* Blocking read of the next line (newline stripped). [None] on EOF; a
   final unterminated line is returned before EOF is reported. A reset
   peer counts as EOF rather than an error. Once the pending line grows
   past [max_line] bytes the lines completed before it are still
   returned, then [Frame_too_long] is raised and the reader stops
   buffering. *)
let rec read_line r =
  if not (Queue.is_empty r.lines) then Some (Queue.pop r.lines)
  else if Buffer.length r.partial > r.max_line then raise Frame_too_long
  else if r.eof then
    if Buffer.length r.partial > 0 then begin
      let s = Buffer.contents r.partial in
      Buffer.clear r.partial;
      Some s
    end
    else None
  else begin
    let n =
      try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
          0
    in
    if n = 0 then r.eof <- true
    else begin
      let i = ref 0 in
      while !i < n && Buffer.length r.partial <= r.max_line do
        let c = Bytes.get r.chunk !i in
        if c = '\n' then begin
          Queue.push (Buffer.contents r.partial) r.lines;
          Buffer.clear r.partial
        end
        else Buffer.add_char r.partial c;
        incr i
      done
    end;
    read_line r
  end

let write_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd data !off (len - !off)
  done
