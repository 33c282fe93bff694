(* Hand-written lexer + recursive-descent parser: the grammar is LL(1)
   and tiny, so no parser generator is warranted. *)

type token =
  | Tmatch
  | Tin
  | Tlasting
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tcolon
  | Tarrow_out_head (* -[ *)
  | Tarrow_out_tail (* ]-> *)
  | Tarrow_in_head (* <-[ *)
  | Tarrow_in_tail (* ]- *)
  | Tident of string
  | Tint of int
  | Tstar
  | Teof

type lexed = { token : token; position : int }

type error = { position : int; message : string }

exception Parse_error of error

let fail position fmt =
  Format.kasprintf (fun message -> raise (Parse_error { position; message })) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let lex input =
  let n = String.length input in
  let out = ref [] in
  let i = ref 0 in
  let push token position = out := { token; position } :: !out in
  (* an integer literal from [!i], a leading '-' included *)
  let lex_int () =
    let j = ref (!i + 1) in
    while !j < n && is_digit input.[!j] do incr j done;
    let text = String.sub input !i (!j - !i) in
    (match int_of_string_opt text with
    | Some v -> push (Tint v) !i
    | None -> fail !i "integer literal %s is out of range" text);
    i := !j
  in
  while !i < n do
    let c = input.[!i] in
    let at = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && input.[!i] <> '\n' do incr i done
    end
    else if c = '*' then (push Tstar at; incr i)
    else if c = '(' then (push Tlparen at; incr i)
    else if c = ')' then (push Trparen at; incr i)
    else if c = '[' then (push Tlbracket at; incr i)
    else if c = ',' then (push Tcomma at; incr i)
    else if c = ':' then (push Tcolon at; incr i)
    else if c = '-' then begin
      (* -[  (edge head) *)
      if !i + 1 < n && input.[!i + 1] = '[' then begin
        push Tarrow_out_head at;
        i := !i + 2
      end
      else if !i + 1 < n && is_digit input.[!i + 1] then lex_int ()
      else fail at "expected '[' after '-'"
    end
    else if c = ']' then begin
      (* ]->, ]-, or a plain ] closing a window *)
      if !i + 2 < n && input.[!i + 1] = '-' && input.[!i + 2] = '>' then begin
        push Tarrow_out_tail at;
        i := !i + 3
      end
      else if !i + 1 < n && input.[!i + 1] = '-' then begin
        push Tarrow_in_tail at;
        i := !i + 2
      end
      else (push Trbracket at; incr i)
    end
    else if c = '<' then begin
      if !i + 2 < n && input.[!i + 1] = '-' && input.[!i + 2] = '[' then begin
        push Tarrow_in_head at;
        i := !i + 3
      end
      else fail at "expected '-[' after '<'"
    end
    else if is_digit c then lex_int ()
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char input.[!j] do incr j done;
      let word = String.sub input !i (!j - !i) in
      (match String.lowercase_ascii word with
      | "match" -> push Tmatch at
      | "in" -> push Tin at
      | "lasting" -> push Tlasting at
      | _ -> push (Tident word) at);
      i := !j
    end
    else fail at "unexpected character %C" c
  done;
  push Teof n;
  Array.of_list (List.rev !out)

(* ---- AST ---- *)

type ast_edge = { lbl_name : string; src : int; dst : int }

(* A NOT/EXISTS clause: one labeled step whose endpoints are either core
   variables (resolved at parse time) or unconstrained (None). *)
type ast_clause = {
  neg : bool;
  clbl_name : string;
  csrc : int option;
  cdst : int option;
}

type ast = {
  vars : string array;
  edges : ast_edge list; (* in source order *)
  clauses : ast_clause list; (* in source order *)
  wheres : (int * Temporal.Allen.relation * int) list; (* edge indices *)
  agg : Equery.agg option;
  win : (int * int) option;
  lasting : int option;
}

let n_edges ast = List.length ast.edges
let n_vars ast = Array.length ast.vars
let var_names ast = Array.copy ast.vars
let window ast = ast.win

let is_extended ast =
  ast.clauses <> [] || ast.wheres <> [] || ast.agg <> None

(* ---- parser ---- *)

type state = {
  tokens : lexed array;
  mutable pos : int;
  var_ids : (string, int) Hashtbl.t;
  mutable var_order : string list;
  mutable fresh : int;
  mutable acc_edges : ast_edge list;
  aliases : (string, int) Hashtbl.t; (* edge alias -> edge index *)
  mutable acc_clauses : ast_clause list;
  mutable acc_wheres : (int * Temporal.Allen.relation * int) list;
}

let peek st = st.tokens.(st.pos)
let advance st = st.pos <- st.pos + 1

let expect st token message =
  let l = peek st in
  if l.token = token then advance st else fail l.position "%s" message

let var_id st name =
  match Hashtbl.find_opt st.var_ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length st.var_ids in
      Hashtbl.add st.var_ids name id;
      st.var_order <- name :: st.var_order;
      id

let parse_node st =
  expect st Tlparen "expected '(' starting a node";
  match (peek st).token with
  | Trparen ->
      advance st;
      let name = Printf.sprintf "$%d" st.fresh in
      st.fresh <- st.fresh + 1;
      var_id st name
  | Tident name ->
      advance st;
      expect st Trparen "expected ')' closing the node";
      var_id st name
  | _ -> fail (peek st).position "expected a variable name or ')'"

let parse_label st =
  match (peek st).token with
  | Tident name ->
      advance st;
      name
  | Tstar ->
      advance st;
      "*"
  | _ -> fail (peek st).position "expected an edge label or '*'"

(* label position of a core edge, with an optional "alias:" prefix
   registering the edge index for WHERE constraints *)
let parse_aliased_label st =
  let edge_idx = List.length st.acc_edges in
  (match (peek st).token with
  | Tident alias when st.tokens.(st.pos + 1).token = Tcolon ->
      let at = (peek st).position in
      if Hashtbl.mem st.aliases alias then
        fail at "duplicate edge alias %S" alias;
      Hashtbl.add st.aliases alias edge_idx;
      advance st;
      advance st
  | _ -> ());
  parse_label st

(* one edge step: either -[l]-> node  or  <-[l]- node; returns the next
   chain anchor *)
let parse_step st anchor =
  match (peek st).token with
  | Tarrow_out_head ->
      advance st;
      let lbl_name = parse_aliased_label st in
      expect st Tarrow_out_tail "expected ']->' after the label";
      let target = parse_node st in
      st.acc_edges <- { lbl_name; src = anchor; dst = target } :: st.acc_edges;
      target
  | Tarrow_in_head ->
      advance st;
      let lbl_name = parse_aliased_label st in
      expect st Tarrow_in_tail "expected ']-' after the label";
      let source = parse_node st in
      st.acc_edges <- { lbl_name; src = source; dst = anchor } :: st.acc_edges;
      source
  | _ -> fail (peek st).position "expected '-[' or '<-[' continuing the chain"

let parse_chain st =
  let anchor = ref (parse_node st) in
  (* at least one edge *)
  anchor := parse_step st !anchor;
  let rec more () =
    match (peek st).token with
    | Tarrow_out_head | Tarrow_in_head ->
        anchor := parse_step st !anchor;
        more ()
    | _ -> ()
  in
  more ()

let parse_window st =
  expect st Tlbracket "expected '[' starting the window";
  let ws =
    match (peek st).token with
    | Tint v ->
        advance st;
        v
    | _ -> fail (peek st).position "expected the window start timestamp"
  in
  expect st Tcomma "expected ',' inside the window";
  let we =
    match (peek st).token with
    | Tint v ->
        advance st;
        v
    | _ -> fail (peek st).position "expected the window end timestamp"
  in
  let close = peek st in
  (match close.token with
  | Tarrow_in_tail | Tarrow_out_tail ->
      (* the lexer greedily reads "]-" / "]->"; a window is closed by a
         plain ']' only, so reaching here is a syntax error *)
      fail close.position "expected ']' closing the window"
  | Trbracket -> advance st
  | _ -> fail close.position "expected ']' closing the window");
  if we < ws then fail close.position "window end %d before start %d" we ws;
  (ws, we)

(* NOT / EXISTS / WHERE / AND / COUNT / TOP and the Allen relation names
   are contextual keywords: they lex as plain identifiers and are only
   recognized at the clause positions, so they stay available as
   variable and label names. *)
let lower_of st =
  match (peek st).token with
  | Tident w -> Some (String.lowercase_ascii w)
  | _ -> None

(* clause node: "()" is unconstrained; a name must be a pattern variable *)
let parse_clause_node st =
  expect st Tlparen "expected '(' starting a clause node";
  match (peek st).token with
  | Trparen ->
      advance st;
      None
  | Tident name -> (
      let at = (peek st).position in
      advance st;
      expect st Trparen "expected ')' closing the node";
      match Hashtbl.find_opt st.var_ids name with
      | Some id -> Some id
      | None ->
          fail at "clause variable %S does not appear in the MATCH pattern"
            name)
  | _ -> fail (peek st).position "expected a variable name or ')'"

let parse_clause st ~neg =
  let first = parse_clause_node st in
  match (peek st).token with
  | Tarrow_out_head ->
      advance st;
      let clbl_name = parse_label st in
      expect st Tarrow_out_tail "expected ']->' after the label";
      let second = parse_clause_node st in
      st.acc_clauses <-
        { neg; clbl_name; csrc = first; cdst = second } :: st.acc_clauses
  | Tarrow_in_head ->
      advance st;
      let clbl_name = parse_label st in
      expect st Tarrow_in_tail "expected ']-' after the label";
      let second = parse_clause_node st in
      st.acc_clauses <-
        { neg; clbl_name; csrc = second; cdst = first } :: st.acc_clauses
  | _ -> fail (peek st).position "expected '-[' or '<-[' in the clause"

let parse_alias_ref st =
  match (peek st).token with
  | Tident w -> (
      let at = (peek st).position in
      advance st;
      match Hashtbl.find_opt st.aliases w with
      | Some idx -> idx
      | None -> fail at "unknown edge alias %S (declare it as -[%s: label]->)" w w)
  | _ -> fail (peek st).position "expected an edge alias"

let parse_where_term st =
  let a = parse_alias_ref st in
  let rel =
    match (peek st).token with
    | Tident w -> (
        let at = (peek st).position in
        advance st;
        match Temporal.Allen.of_string w with
        | Some r -> r
        | None -> fail at "unknown Allen relation %S" w)
    | _ -> fail (peek st).position "expected an Allen relation"
  in
  let bat = (peek st).position in
  let b = parse_alias_ref st in
  if a = b then fail bat "an Allen constraint must relate two distinct edges";
  st.acc_wheres <- (a, rel, b) :: st.acc_wheres

let parse input =
  match
    let tokens = lex input in
    let st =
      {
        tokens;
        pos = 0;
        var_ids = Hashtbl.create 8;
        var_order = [];
        fresh = 0;
        acc_edges = [];
        aliases = Hashtbl.create 8;
        acc_clauses = [];
        acc_wheres = [];
      }
    in
    expect st Tmatch "expected MATCH";
    parse_chain st;
    let rec more_chains () =
      if (peek st).token = Tcomma then begin
        advance st;
        parse_chain st;
        more_chains ()
      end
    in
    more_chains ();
    let rec more_clauses () =
      match lower_of st with
      | Some "not" ->
          advance st;
          parse_clause st ~neg:true;
          more_clauses ()
      | Some "exists" ->
          advance st;
          parse_clause st ~neg:false;
          more_clauses ()
      | _ -> ()
    in
    more_clauses ();
    if lower_of st = Some "where" then begin
      advance st;
      parse_where_term st;
      let rec more_terms () =
        if lower_of st = Some "and" then begin
          advance st;
          parse_where_term st;
          more_terms ()
        end
      in
      more_terms ()
    end;
    let win =
      if (peek st).token = Tin then begin
        advance st;
        Some (parse_window st)
      end
      else None
    in
    let lasting =
      if (peek st).token = Tlasting then begin
        advance st;
        match (peek st).token with
        | Tint v when v >= 1 ->
            advance st;
            Some v
        | Tint _ -> fail (peek st).position "LASTING needs a duration >= 1"
        | _ -> fail (peek st).position "expected a duration after LASTING"
      end
      else None
    in
    let agg =
      match lower_of st with
      | Some "count" ->
          advance st;
          Some Equery.Count
      | Some "top" -> (
          advance st;
          match (peek st).token with
          | Tint k when k >= 1 ->
              advance st;
              Some (Equery.Top k)
          | Tint _ -> fail (peek st).position "TOP needs a count >= 1"
          | _ -> fail (peek st).position "expected a count after TOP")
      | _ -> None
    in
    (match (peek st).token with
    | Teof -> ()
    | _ -> fail (peek st).position "trailing input after the query");
    {
      vars = Array.of_list (List.rev st.var_order);
      edges = List.rev st.acc_edges;
      clauses = List.rev st.acc_clauses;
      wheres = List.rev st.acc_wheres;
      agg;
      win;
      lasting;
    }
  with
  | ast -> Ok ast
  | exception Parse_error e -> Error e

(* ---- compilation ---- *)

let compile_core ?default_window g ast =
  let table = Tgraph.Graph.labels g in
  let ( let* ) = Result.bind in
  let* window =
    match (ast.win, default_window) with
    | Some (ws, we), _ -> Ok (Temporal.Interval.make ws we)
    | None, Some w -> Ok w
    | None, None -> Error "query has no IN window and no default was given"
  in
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest when e.lbl_name = "*" ->
        resolve ((Query.any_label, e.src, e.dst) :: acc) rest
    | e :: rest -> (
        match Tgraph.Label.find table e.lbl_name with
        | Some lbl -> resolve ((lbl, e.src, e.dst) :: acc) rest
        | None -> Error (Printf.sprintf "unknown edge label %S" e.lbl_name))
  in
  let* edges = resolve [] ast.edges in
  let q = Query.make ~n_vars:(Array.length ast.vars) ~edges ~window in
  Ok
    (match ast.lasting with
    | Some d -> Query.with_min_duration q d
    | None -> q)

let compile ?default_window g ast =
  if is_extended ast then
    Error
      "query uses extended operators (NOT/EXISTS/WHERE/COUNT/TOP); it only \
       compiles through the extended pipeline"
  else compile_core ?default_window g ast

let compile_ext ?default_window g ast =
  let table = Tgraph.Graph.labels g in
  let ( let* ) = Result.bind in
  let* q = compile_core ?default_window g ast in
  let resolve_lbl name =
    if name = "*" then Ok Query.any_label
    else
      match Tgraph.Label.find table name with
      | Some lbl -> Ok lbl
      | None -> Error (Printf.sprintf "unknown edge label %S" name)
  in
  let endpoint = function Some v -> Equery.Var v | None -> Equery.Any in
  let rec clauses acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest ->
        let* lbl = resolve_lbl c.clbl_name in
        clauses
          (( c.neg,
             { Equery.lbl; src = endpoint c.csrc; dst = endpoint c.cdst } )
          :: acc)
          rest
  in
  let* resolved = clauses [] ast.clauses in
  let anti = List.filter_map (fun (n, c) -> if n then Some c else None) resolved in
  let semi = List.filter_map (fun (n, c) -> if n then None else Some c) resolved in
  match Equery.make ~anti ~semi ~allen:ast.wheres ?agg:ast.agg q with
  | eq -> Ok eq
  | exception Invalid_argument msg -> Error msg

let parse_and_compile ?default_window g input =
  match parse input with
  | Error { position; message } ->
      Error (Printf.sprintf "at offset %d: %s" position message)
  | Ok ast -> compile ?default_window g ast

let parse_and_compile_ext ?default_window g input =
  match parse input with
  | Error { position; message } ->
      Error (Printf.sprintf "at offset %d: %s" position message)
  | Ok ast -> compile_ext ?default_window g ast

(* ---- rendering (unparse) ---- *)

(* MATCH chains; [alias idx] supplies an optional "alias: " prefix inside
   edge brackets (used by render_ext for WHERE-referenced edges). Edges
   render in index order — greedy chaining only merges consecutive
   indices — so "a<i>" aliases reparse to the same edge index. *)
let render_chains buf g q ~alias =
  let label l =
    if l = Query.any_label then "*"
    else Tgraph.Label.name (Tgraph.Graph.labels g) l
  in
  let bracket idx l =
    match alias idx with
    | Some a -> Printf.sprintf "%s: %s" a (label l)
    | None -> label l
  in
  Buffer.add_string buf "MATCH ";
  let edges = Query.edges q in
  (* greedy chaining: extend the current chain while the next edge starts
     where the previous one ended *)
  let n = Array.length edges in
  let i = ref 0 in
  while !i < n do
    if !i > 0 then Buffer.add_string buf ", ";
    let e = edges.(!i) in
    Buffer.add_string buf (Printf.sprintf "(x%d)" e.Query.src_var);
    Buffer.add_string buf
      (Printf.sprintf "-[%s]->(x%d)" (bracket !i e.Query.lbl) e.Query.dst_var);
    let anchor = ref e.Query.dst_var in
    incr i;
    let continue = ref true in
    while !continue && !i < n do
      let e = edges.(!i) in
      if e.Query.src_var = !anchor then begin
        Buffer.add_string buf
          (Printf.sprintf "-[%s]->(x%d)" (bracket !i e.Query.lbl)
             e.Query.dst_var);
        anchor := e.Query.dst_var;
        incr i
      end
      else if e.Query.dst_var = !anchor && e.Query.src_var <> e.Query.dst_var
      then begin
        Buffer.add_string buf
          (Printf.sprintf "<-[%s]-(x%d)" (bracket !i e.Query.lbl)
             e.Query.src_var);
        anchor := e.Query.src_var;
        incr i
      end
      else continue := false
    done
  done

let render_suffix buf q =
  Buffer.add_string buf
    (Printf.sprintf " IN [%d, %d]" (Query.ws q) (Query.we q));
  if Query.min_duration q > 1 then
    Buffer.add_string buf (Printf.sprintf " LASTING %d" (Query.min_duration q))

let render g q =
  let buf = Buffer.create 128 in
  render_chains buf g q ~alias:(fun _ -> None);
  render_suffix buf q;
  Buffer.contents buf

let render_ext g eq =
  let q = Equery.core eq in
  let label l =
    if l = Query.any_label then "*"
    else Tgraph.Label.name (Tgraph.Graph.labels g) l
  in
  let referenced = Hashtbl.create 8 in
  List.iter
    (fun (i, _, j) ->
      Hashtbl.replace referenced i ();
      Hashtbl.replace referenced j ())
    (Equery.allen eq);
  let alias idx =
    if Hashtbl.mem referenced idx then Some (Printf.sprintf "a%d" idx)
    else None
  in
  let buf = Buffer.create 128 in
  render_chains buf g q ~alias;
  let node = function
    | Equery.Var v -> Printf.sprintf "(x%d)" v
    | Equery.Any -> "()"
  in
  let emit_clause kw (c : Equery.clause) =
    Buffer.add_string buf
      (Printf.sprintf " %s %s-[%s]->%s" kw (node c.Equery.src)
         (label c.Equery.lbl) (node c.Equery.dst))
  in
  List.iter (emit_clause "NOT") (Equery.anti eq);
  List.iter (emit_clause "EXISTS") (Equery.semi eq);
  (match Equery.allen eq with
  | [] -> ()
  | terms ->
      let term (i, rel, j) =
        let rel_kw =
          String.uppercase_ascii
            (String.map
               (fun c -> if c = '-' then '_' else c)
               (Temporal.Allen.to_string rel))
        in
        Printf.sprintf "a%d %s a%d" i rel_kw j
      in
      Buffer.add_string buf
        (" WHERE " ^ String.concat " AND " (List.map term terms)));
  render_suffix buf q;
  (match Equery.agg eq with
  | None -> ()
  | Some Equery.Count -> Buffer.add_string buf " COUNT"
  | Some (Equery.Top k) -> Buffer.add_string buf (Printf.sprintf " TOP %d" k));
  Buffer.contents buf
