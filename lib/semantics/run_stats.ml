type limits = { max_results : int; max_intermediate : int }

let no_limits = { max_results = max_int; max_intermediate = max_int }
let with_max_results n = { no_limits with max_results = n }

exception Limit_exceeded of string
exception Deadline_exceeded

(* A wall-clock budget. The clock is injected rather than read from
   Unix so this library keeps its dependency-free core and so tests can
   drive time deterministically. *)
type deadline = { expires_at : float; now : unit -> float }

type t = {
  mutable results : int;
  mutable intermediate : int;
  mutable scanned : int;
  mutable bindings : int;
  mutable enum_steps : int;
  mutable seeks : int;
  mutable est_intermediate : int;
  (* per-TSRJoin-level actual intermediate cardinalities; [||] until the
     first levelled tick, then grown to the plan depth *)
  mutable level_intermediate : int array;
  (* per-level static estimates, recorded once per query next to
     [est_intermediate] *)
  mutable est_level_intermediate : int array;
  limits : limits;
  mutable deadline : deadline option;
  (* ticks remaining until the next clock read; reading the clock on
     every tick would dominate tight sweep loops *)
  mutable until_check : int;
  mutable on_check : (unit -> unit) option;
}

let deadline_check_interval = 256

let until_check_of s =
  match (s.deadline, s.on_check) with None, None -> max_int | _ -> 1

let create ?(limits = no_limits) ?deadline () =
  let s =
    { results = 0; intermediate = 0; scanned = 0; bindings = 0; enum_steps = 0;
      seeks = 0; est_intermediate = 0; level_intermediate = [||];
      est_level_intermediate = [||]; limits; deadline; until_check = max_int;
      on_check = None }
  in
  s.until_check <- until_check_of s;
  s

let set_deadline s deadline =
  s.deadline <- deadline;
  s.until_check <- until_check_of s

let set_on_check s hook =
  s.on_check <- hook;
  s.until_check <- until_check_of s

let check_deadline s =
  match (s.deadline, s.on_check) with
  | None, None -> s.until_check <- max_int
  | deadline, hook ->
      s.until_check <- deadline_check_interval;
      (match hook with Some f -> f () | None -> ());
      (match deadline with
      | Some d when d.now () >= d.expires_at -> raise Deadline_exceeded
      | Some _ | None -> ())

(* every counter update passes through here, so a sweep that produces no
   results still notices an expired deadline within [deadline_check_interval]
   scanned edges *)
let touch s =
  s.until_check <- s.until_check - 1;
  if s.until_check <= 0 then check_deadline s

let tick_result s =
  touch s;
  s.results <- s.results + 1;
  if s.results > s.limits.max_results then
    raise (Limit_exceeded "result budget exhausted")

let add_intermediate s n =
  touch s;
  s.intermediate <- s.intermediate + n;
  if s.intermediate > s.limits.max_intermediate then
    raise (Limit_exceeded "intermediate-tuple budget exhausted")

let tick_intermediate s = add_intermediate s 1

(* grow-to-fit shared by the actual and estimate level arrays *)
let grown arr i =
  let n = Array.make (i + 1) 0 in
  Array.blit arr 0 n 0 (Array.length arr);
  n

let tick_level_intermediate s level =
  add_intermediate s 1;
  if level >= Array.length s.level_intermediate then
    s.level_intermediate <- grown s.level_intermediate level;
  s.level_intermediate.(level) <- s.level_intermediate.(level) + 1

let tick_scanned s =
  touch s;
  s.scanned <- s.scanned + 1

let tick_binding s =
  touch s;
  s.bindings <- s.bindings + 1

let add_enum_steps s n =
  touch s;
  s.enum_steps <- s.enum_steps + n

(* seeks are the leapfrog/TAI-probe hot path: no [touch] — the
   surrounding binding/scanned ticks already drive deadline checks, and
   a second decrement per seek would double the bookkeeping cost of the
   innermost loop *)
let tick_seek s = s.seeks <- s.seeks + 1

(* a static prediction, not execution work: recorded once per query by
   the engine before running the plan, so no [touch] and no budget *)
let add_est_intermediate s n = s.est_intermediate <- s.est_intermediate + n

let add_est_level_intermediate s level n =
  if level >= Array.length s.est_level_intermediate then
    s.est_level_intermediate <- grown s.est_level_intermediate level;
  s.est_level_intermediate.(level) <- s.est_level_intermediate.(level) + n

let levels s = Array.copy s.level_intermediate
let est_levels s = Array.copy s.est_level_intermediate

let merge_levels dst src =
  if Array.length src > 0 then begin
    let dst = if Array.length dst < Array.length src then grown dst (Array.length src - 1) else dst in
    Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src;
    dst
  end
  else dst

let merge_into dst src =
  dst.results <- dst.results + src.results;
  dst.intermediate <- dst.intermediate + src.intermediate;
  dst.scanned <- dst.scanned + src.scanned;
  dst.bindings <- dst.bindings + src.bindings;
  dst.enum_steps <- dst.enum_steps + src.enum_steps;
  dst.seeks <- dst.seeks + src.seeks;
  dst.est_intermediate <- dst.est_intermediate + src.est_intermediate;
  dst.level_intermediate <-
    merge_levels dst.level_intermediate src.level_intermediate;
  dst.est_level_intermediate <-
    merge_levels dst.est_level_intermediate src.est_level_intermediate

let counters s =
  [
    ("results", s.results);
    ("intermediate", s.intermediate);
    ("scanned", s.scanned);
    ("bindings", s.bindings);
    ("enum_steps", s.enum_steps);
    ("seeks", s.seeks);
    ("est_intermediate", s.est_intermediate);
  ]

let pp fmt s =
  Format.pp_print_string fmt
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (counters s)));
  if Array.length s.level_intermediate > 0 then begin
    Format.fprintf fmt " levels=[";
    Array.iteri
      (fun i v -> Format.fprintf fmt "%s%d" (if i > 0 then ";" else "") v)
      s.level_intermediate;
    Format.fprintf fmt "]"
  end
