(* The one JSON value type, printer and parser. Every document tcsq
   writes (wire frames, qlog lines, traces, explain and lint reports,
   bench records) is a [t] printed by [write], except match-bearing
   frames, which their encoders write straight into a buffer with
   [write_string] and [write_int]; the printer never emits a newline
   inside a value, which is what makes one-JSON-per-line framing safe. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | Sig of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

(* the shortest of 15, 16 and 17 significant digits that reads back as
   the same float, so 0.1332 prints as 0.1332, not 0.13320000000000001 *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let exact digits =
      let s = Printf.sprintf "%.*g" digits f in
      if float_of_string s = f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

(* escapes straight into [buf], copying runs of plain bytes whole *)
let write_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let from = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !from (i - !from);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
      from := i + 1
    end
  done;
  Buffer.add_substring buf s !from (n - !from);
  Buffer.add_char buf '"'

(* Decimal digits straight into [buf], most significant first: a
   recursion at most 19 deep, dividing by the constant 10 (a multiply).
   It runs on the non-positive [-|i|], whose range holds [min_int]'s
   digits where negating [min_int] would overflow; the remainder of a
   non-positive value is non-positive, so a digit is [-(n mod 10)]. *)
let rec write_digits buf n =
  if n <= -10 then write_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let write_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    write_digits buf i
  end
  else write_digits buf (-i)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Fixed (digits, f) -> Printf.bprintf buf "%.*f" digits f
  | Sig (digits, f) -> Printf.bprintf buf "%.*g" digits f
  | String s -> write_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          write_string buf k;
          Buffer.add_string buf ": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Bad of string

(* arrays/objects nest by recursion on bytes read straight off a
   socket; no protocol message comes near this depth *)
let max_depth = 512

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "at %d: expected %c, found %c" !pos c c'
    | None -> fail "at %d: expected %c, found end of input" !pos c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "at %d: bad literal" !pos
  in
  let hex4 () =
    if !pos + 4 > n then fail "at %d: truncated \\u escape" !pos;
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = input.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "at %d: bad hex digit %c" !pos c
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "at %d: unterminated string" !pos;
      let c = input.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "at %d: truncated escape" !pos;
         let e = input.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             let cp = hex4 () in
             let cp =
               (* high surrogate followed by \uDC00-\uDFFF pairs up *)
               if cp >= 0xD800 && cp <= 0xDBFF
                  && !pos + 1 < n && input.[!pos] = '\\'
                  && input.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 if lo >= 0xDC00 && lo <= 0xDFFF then
                   0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                 else fail "at %d: bad low surrogate" !pos
               end
               else cp
             in
             add_utf8 buf cp
         | c -> fail "at %d: bad escape \\%c" !pos c);
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && (match input.[!pos] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "at %d: bad number %S" start text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "at %d: unexpected end of input" !pos
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some ('[' | '{') when depth >= max_depth ->
        fail "at %d: nesting deeper than %d" !pos max_depth
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> fail "at %d: unexpected character %C" !pos c
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "at %d: trailing input" !pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_opt = function String s -> Some s | _ -> None
let bool_opt = function Bool b -> Some b | _ -> None

(* [int_of_float] is undefined outside the int range; [float_of_int
   max_int] rounds up to 2^62, hence the strict bound *)
let int_opt = function
  | Int i -> Some i
  | Float f
    when Float.is_integer f
         && f >= float_of_int min_int
         && f < float_of_int max_int ->
      Some (int_of_float f)
  | _ -> None

let float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let list_opt = function List l -> Some l | _ -> None

let mem_string key j = Option.bind (member key j) string_opt
let mem_int key j = Option.bind (member key j) int_opt
let mem_float key j = Option.bind (member key j) float_opt
let mem_bool key j = Option.bind (member key j) bool_opt
let mem_list key j = Option.bind (member key j) list_opt
