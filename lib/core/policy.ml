(* Execution policies: the on-demand determinism switch.

   A program written against [Run] never changes; the policy
   (serial, speculative non-deterministic, or deterministic DIG
   scheduling) is chosen at run time, e.g. from the command line — the
   paper's "on-demand" requirement (§1). *)

type priority_mode =
  | Prio_off
      (* Unordered execution: generations are pure id order, the
         original DIG behaviour. *)
  | Prio_delta of int
      (* Delta-stepping buckets of width [delta >= 1]: tasks whose
         priority lands in a lower [priority / delta] bucket run in
         earlier rounds. Bucket assignment is a pure function of
         (priority, delta); intra-bucket order stays id order, so the
         schedule is still deterministic. *)
  | Prio_auto
      (* Derive delta per generation from the priority range
         (span / 64, at least 1) — parameterless, but still a pure
         function of the generation's task set. *)

type det_options = {
  target_ratio : float;
      (* Commit-ratio threshold of the adaptive window (§3.2). Below it
         the window shrinks proportionally; at or above it the window
         doubles. A fixed constant: not machine-tuned, hence
         parameterless. *)
  initial_window : int option;
      (* Window of the first round. [None] derives it from the task
         count — deterministic, machine-independent. *)
  spread : int;
      (* Locality-spread piles (§3.3): iteration order is dealt into
         [spread] strided piles so neighboring (likely conflicting) tasks
         land in different rounds. [1] disables. *)
  continuation : bool;
      (* §3.3 continuation optimization: keep inspect-phase state for the
         commit phase instead of re-executing the task prefix. *)
  validate : bool;
      (* Debug: re-verify all neighborhood marks at commit instead of
         trusting the O(1) defeat flags. The two must agree; tests check
         this. *)
  priority : priority_mode;
      (* Soft-priority windows: when on, each generation is dealt into
         delta-stepping buckets by the run's priority function and
         rounds draw from the lowest non-empty bucket first. Off by
         default — schedules (and digests) are unchanged unless asked
         for. *)
}

let default_det =
  {
    target_ratio = 0.9;
    initial_window = None;
    spread = 16;
    continuation = true;
    validate = false;
    priority = Prio_off;
  }

module Det_options = struct
  type t = det_options = {
    target_ratio : float;
    initial_window : int option;
    spread : int;
    continuation : bool;
    validate : bool;
    priority : priority_mode;
  }

  let default = default_det

  let make ?(ratio = default.target_ratio) ?(window = default.initial_window)
      ?(spread = default.spread) ?(continuation = default.continuation)
      ?(validate = default.validate) ?(priority = default.priority) () =
    if ratio <= 0.0 then invalid_arg "Det_options.make: ratio must be > 0";
    (match window with
    | Some w when w < 1 -> invalid_arg "Det_options.make: window must be >= 1"
    | _ -> ());
    if spread < 1 then invalid_arg "Det_options.make: spread must be >= 1";
    (match priority with
    | Prio_delta d when d < 1 -> invalid_arg "Det_options.make: delta must be >= 1"
    | _ -> ());
    { target_ratio = ratio; initial_window = window; spread; continuation; validate; priority }

  (* Keyed option grammar: "window=64,spread=1,ratio=0.95,cont=off,
     validate=on". [to_string] emits only the non-default keys, in that
     fixed order; [of_string] accepts them in any order, rejecting
     unknown or duplicate keys and out-of-range values, so the two
     round-trip. *)

  let onoff = function true -> "on" | false -> "off"

  (* %.12g keeps human-entered ratios (0.95) readable while remaining
     exact for anything with <= 12 significant digits; values that need
     more fall back to %.17g, which round-trips every float, so
     [of_string (to_string t) = Ok t] holds for arbitrary ratios. *)
  let float_str f =
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let prio_str = function
    | Prio_off -> "off"
    | Prio_delta d -> Printf.sprintf "delta:%d" d
    | Prio_auto -> "auto"

  let to_string t =
    let d = default in
    let kv = Buffer.create 32 in
    let add k v =
      if Buffer.length kv > 0 then Buffer.add_char kv ',';
      Buffer.add_string kv k;
      Buffer.add_char kv '=';
      Buffer.add_string kv v
    in
    (match t.initial_window with
    | None -> ()
    | Some w -> add "window" (string_of_int w));
    if t.spread <> d.spread then add "spread" (string_of_int t.spread);
    if t.target_ratio <> d.target_ratio then add "ratio" (float_str t.target_ratio);
    if t.continuation <> d.continuation then add "cont" (onoff t.continuation);
    if t.validate <> d.validate then add "validate" (onoff t.validate);
    if t.priority <> d.priority then add "prio" (prio_str t.priority);
    Buffer.contents kv

  let of_string body =
    let ( let* ) = Result.bind in
    let parse_onoff k v =
      match v with
      | "on" -> Ok true
      | "off" -> Ok false
      | _ -> Error (Printf.sprintf "option %s: expected on|off, got %S" k v)
    in
    let parse_kv (seen, acc) kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
      | Some i ->
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          if List.mem k seen then Error (Printf.sprintf "duplicate option %S" k)
          else
            let* acc =
              match k with
              | "window" -> (
                  match v with
                  | "auto" -> Ok { acc with initial_window = None }
                  | _ -> (
                      match int_of_string_opt v with
                      | Some w when w >= 1 -> Ok { acc with initial_window = Some w }
                      | _ ->
                          Error
                            (Printf.sprintf
                               "option window: expected auto or an integer >= 1, got %S" v)))
              | "spread" -> (
                  match int_of_string_opt v with
                  | Some s when s >= 1 -> Ok { acc with spread = s }
                  | _ -> Error (Printf.sprintf "option spread: expected an integer >= 1, got %S" v))
              | "ratio" -> (
                  match float_of_string_opt v with
                  | Some r when r > 0.0 -> Ok { acc with target_ratio = r }
                  | _ -> Error (Printf.sprintf "option ratio: expected a float > 0, got %S" v))
              | "cont" ->
                  let* b = parse_onoff "cont" v in
                  Ok { acc with continuation = b }
              | "validate" ->
                  let* b = parse_onoff "validate" v in
                  Ok { acc with validate = b }
              | "prio" -> (
                  match v with
                  | "off" -> Ok { acc with priority = Prio_off }
                  | "auto" -> Ok { acc with priority = Prio_auto }
                  | _ when String.starts_with ~prefix:"delta:" v -> (
                      let dv = String.sub v 6 (String.length v - 6) in
                      match int_of_string_opt dv with
                      | Some d when d >= 1 -> Ok { acc with priority = Prio_delta d }
                      | _ ->
                          Error
                            (Printf.sprintf
                               "option prio: expected delta:<int >= 1>, got %S" v))
                  | _ ->
                      Error
                        (Printf.sprintf
                           "option prio: expected off|auto|delta:<n>, got %S" v))
              | _ -> Error (Printf.sprintf "unknown option %S" k)
            in
            Ok (k :: seen, acc)
    in
    if String.trim body = "" then Ok default
    else
      let* _, t =
        List.fold_left
          (fun acc kv -> match acc with Ok acc -> parse_kv acc kv | e -> e)
          (Ok ([], default))
          (String.split_on_char ',' body)
      in
      Ok t
end

type t =
  | Serial
  | Nondet of { threads : int }
  | Det of { threads : int; options : det_options }

let serial = Serial
let nondet threads = Nondet { threads }
let det ?(options = default_det) threads = Det { threads; options }

let threads = function Serial -> 1 | Nondet { threads } | Det { threads; _ } -> threads

let is_deterministic = function Serial | Det _ -> true | Nondet _ -> false

let grammar = "serial | nondet[:T] | det[:T][k=v,...]"

let of_string s =
  let fail msg = Error (Printf.sprintf "bad policy %S (%s)" s msg) in
  let parse_threads rest =
    match int_of_string_opt rest with
    | Some t when t > 0 -> Ok t
    | _ -> Error (Printf.sprintf "bad policy %S (bad thread count %S)" s rest)
  in
  (* "[:T]" suffix: "" means 1 thread, ":8" means 8. *)
  let parse_suffix rest k =
    if rest = "" then k 1
    else if rest.[0] = ':' then
      Result.bind (parse_threads (String.sub rest 1 (String.length rest - 1))) k
    else fail ("expected " ^ grammar)
  in
  if s = "serial" then Ok Serial
  else if String.starts_with ~prefix:"nondet" s then
    parse_suffix (String.sub s 6 (String.length s - 6)) (fun threads ->
        Ok (Nondet { threads }))
  else if String.starts_with ~prefix:"det" s then
    let rest = String.sub s 3 (String.length s - 3) in
    (* Split off a trailing "[window=64,...]" option block, if any. *)
    let head, body =
      match String.index_opt rest '[' with
      | None -> (rest, Ok "")
      | Some i ->
          if String.length rest > 0 && rest.[String.length rest - 1] = ']' then
            (String.sub rest 0 i, Ok (String.sub rest (i + 1) (String.length rest - i - 2)))
          else (String.sub rest 0 i, Error ())
    in
    match body with
    | Error () -> fail "unterminated option block, expected det:T[k=v,...]"
    | Ok body ->
        parse_suffix head (fun threads ->
            match Det_options.of_string body with
            | Ok options -> Ok (Det { threads; options })
            | Error msg -> fail msg)
  else fail ("expected " ^ grammar)

let to_string = function
  | Serial -> "serial"
  | Nondet { threads } -> Printf.sprintf "nondet:%d" threads
  | Det { threads; options } -> (
      match Det_options.to_string options with
      | "" -> Printf.sprintf "det:%d" threads
      | body -> Printf.sprintf "det:%d[%s]" threads body)

let pp ppf t = Fmt.string ppf (to_string t)
