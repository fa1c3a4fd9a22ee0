type phase = Inspect | Select | Execute

let phase_name = function
  | Inspect -> "inspect"
  | Select -> "select"
  | Execute -> "execute"

let phase_of_name = function
  | "inspect" -> Some Inspect
  | "select" -> Some Select
  | "execute" -> Some Execute
  | _ -> None

(* The ten per-worker counters behind the paper's Figs. 4 and 5,
   declared once (fields documented in the interface): [counter_table]
   drives everything that walks them — sums, rendering, the JSONL
   codec, resume boundaries, snapshots — so adding a counter is one
   field here plus one table entry (and its 0 in [counters], which the
   compiler asks for). *)
type counters = {
  worker : int;
  mutable committed : int;
  mutable aborted : int;
  mutable acquires : int;
  mutable atomics : int;
  mutable work : int;
  mutable pushes : int;
  mutable inspections : int;
  mutable chunks : int;
  mutable spins : int;
  mutable parks : int;
}

type counter = {
  name : string;
  get : counters -> int;
  set : counters -> int -> unit;
  det : bool;
}

let counter name get set ~det = { name; get; set; det }

let counter_table =
  [
    counter "committed" (fun c -> c.committed) (fun c v -> c.committed <- v) ~det:true;
    counter "aborted" (fun c -> c.aborted) (fun c v -> c.aborted <- v) ~det:true;
    counter "acquires" (fun c -> c.acquires) (fun c v -> c.acquires <- v) ~det:true;
    counter "atomics" (fun c -> c.atomics) (fun c v -> c.atomics <- v) ~det:true;
    counter "work" (fun c -> c.work) (fun c v -> c.work <- v) ~det:true;
    counter "pushes" (fun c -> c.pushes) (fun c v -> c.pushes <- v) ~det:true;
    counter "inspections" (fun c -> c.inspections) (fun c v -> c.inspections <- v) ~det:true;
    counter "chunks" (fun c -> c.chunks) (fun c v -> c.chunks <- v) ~det:false;
    counter "spins" (fun c -> c.spins) (fun c v -> c.spins <- v) ~det:false;
    counter "parks" (fun c -> c.parks) (fun c v -> c.parks <- v) ~det:false;
  ]

let det_counters = List.filter (fun f -> f.det) counter_table

let counters worker =
  { worker; committed = 0; aborted = 0; acquires = 0; atomics = 0; work = 0; pushes = 0;
    inspections = 0; chunks = 0; spins = 0; parks = 0 }

let sum_counters ?(fields = counter_table) cs =
  let total = counters 0 in
  List.iter (fun f -> f.set total (Array.fold_left (fun a c -> a + f.get c) 0 cs)) fields;
  total

type event =
  | Run_begin of { policy : string; threads : int; tasks : int }
  | Generation_begin of { generation : int; tasks : int }
  | Round_begin of { round : int; window : int }
  | Inspect_done of { round : int; marked : int; saved_continuations : int }
  | Select_done of { round : int; committed : int; defeated : int }
  | Execute_done of { round : int; work : int; pushes : int }
  | Window_adapted of { old_w : int; new_w : int; ratio : float }
  | Phase_time of { round : int; phase : phase; dt_s : float }
  | Chunk_sized of { round : int; tasks : int; chunk : int }
  | Worker_counters of counters
  | Bucket_opened of { generation : int; bucket : int; size : int }
  | Bucket_drained of { round : int; bucket : int }
  | Checkpoint_taken of { round : int; digest : string }
  | Resumed of { round : int; digest : string }
  | Audit_finding of { round : int; rule : string; task : int; other : int; lid : int }
  | Run_end of { commits : int; rounds : int; generations : int }

type stamped = { at_s : float; event : event }

let deterministic = function
  | Run_begin _ | Phase_time _ | Chunk_sized _ | Worker_counters _ -> false
  | Generation_begin _ | Round_begin _ | Inspect_done _ | Select_done _
  | Execute_done _ | Window_adapted _ | Bucket_opened _ | Bucket_drained _
  | Checkpoint_taken _ | Resumed _ | Audit_finding _ | Run_end _ ->
      true

let pp_event ppf = function
  | Run_begin { policy; threads; tasks } ->
      Fmt.pf ppf "run-begin policy=%s threads=%d tasks=%d" policy threads tasks
  | Generation_begin { generation; tasks } ->
      Fmt.pf ppf "generation-begin generation=%d tasks=%d" generation tasks
  | Round_begin { round; window } ->
      Fmt.pf ppf "round-begin round=%d window=%d" round window
  | Inspect_done { round; marked; saved_continuations } ->
      Fmt.pf ppf "inspect-done round=%d marked=%d saved=%d" round marked
        saved_continuations
  | Select_done { round; committed; defeated } ->
      Fmt.pf ppf "select-done round=%d committed=%d defeated=%d" round
        committed defeated
  | Execute_done { round; work; pushes } ->
      Fmt.pf ppf "execute-done round=%d work=%d pushes=%d" round work pushes
  | Window_adapted { old_w; new_w; ratio } ->
      Fmt.pf ppf "window-adapted old=%d new=%d ratio=%.6f" old_w new_w ratio
  | Phase_time { round; phase; dt_s } ->
      Fmt.pf ppf "phase-time round=%d phase=%s dt=%.6fs" round
        (phase_name phase) dt_s
  | Chunk_sized { round; tasks; chunk } ->
      Fmt.pf ppf "chunk-sized round=%d tasks=%d chunk=%d" round tasks chunk
  | Worker_counters c ->
      Fmt.pf ppf "worker-counters worker=%d" c.worker;
      List.iter (fun f -> Fmt.pf ppf " %s=%d" f.name (f.get c)) counter_table
  | Bucket_opened { generation; bucket; size } ->
      Fmt.pf ppf "bucket-opened generation=%d bucket=%d size=%d" generation
        bucket size
  | Bucket_drained { round; bucket } ->
      Fmt.pf ppf "bucket-drained round=%d bucket=%d" round bucket
  | Checkpoint_taken { round; digest } ->
      Fmt.pf ppf "checkpoint-taken round=%d digest=%s" round digest
  | Resumed { round; digest } -> Fmt.pf ppf "resumed round=%d digest=%s" round digest
  | Audit_finding { round; rule; task; other; lid } ->
      Fmt.pf ppf "audit-finding round=%d rule=%s task=%d other=%d lid=%d" round rule
        task other lid
  | Run_end { commits; rounds; generations } ->
      Fmt.pf ppf "run-end commits=%d rounds=%d generations=%d" commits rounds
        generations

let deterministic_lines trace =
  let buf = Buffer.create 1024 in
  List.iter
    (fun { event; _ } ->
      if deterministic event then (
        Buffer.add_string buf (Fmt.str "%a" pp_event event);
        Buffer.add_char buf '\n'))
    trace;
  Buffer.contents buf

(* Sinks *)

type sink = { emit : stamped -> unit; close : unit -> unit }

module Sink = struct
  type nonrec t = sink

  let null = { emit = ignore; close = ignore }
  let is_null s = s == null

  (* [null] operands collapse away, so builder code can chain optional
     sinks unconditionally without stacking dead indirections. *)
  let tee a b =
    if is_null a then b
    else if is_null b then a
    else
      {
        emit =
          (fun s ->
            a.emit s;
            b.emit s);
        close =
          (fun () ->
            a.close ();
            b.close ());
      }

  let of_list sinks =
    match List.filter (fun s -> not (is_null s)) sinks with
    | [] -> null
    | [ s ] -> s
    | sinks ->
        {
          emit = (fun ev -> List.iter (fun s -> s.emit ev) sinks);
          close = (fun () -> List.iter (fun s -> s.close ()) sinks);
        }
end

let null = Sink.null
let close s = s.close ()

module Memory = struct
  type t = {
    mutable ring : stamped array;
    capacity : int;
    mutable head : int; (* next write position *)
    mutable length : int;
    mutable dropped : int;
  }

  let create ?(capacity = 65536) () =
    if capacity < 1 then invalid_arg "Obs.Memory.create: capacity < 1";
    { ring = [||]; capacity; head = 0; length = 0; dropped = 0 }

  let push t s =
    if Array.length t.ring = 0 then begin
      t.ring <- Array.make t.capacity s;
      t.head <- 1 mod t.capacity;
      t.length <- 1
    end
    else begin
      t.ring.(t.head) <- s;
      t.head <- (t.head + 1) mod t.capacity;
      if t.length < t.capacity then t.length <- t.length + 1
      else t.dropped <- t.dropped + 1
    end

  let sink t = { emit = (fun s -> push t s); close = ignore }

  let contents t =
    let n = t.length in
    let start = (t.head - n + t.capacity * 2) mod t.capacity in
    List.init n (fun i -> t.ring.((start + i) mod t.capacity))

  let dropped t = t.dropped
end

(* JSONL encoding *)

module Jsonl = struct
  (* A flat JSON value: this module only ever emits (and therefore only
     ever parses) strings and numbers. *)
  type jv = S of string | I of int | F of float

  let fields = function
    | Run_begin { policy; threads; tasks } ->
        ("run_begin",
         [ ("policy", S policy); ("threads", I threads); ("tasks", I tasks) ])
    | Generation_begin { generation; tasks } ->
        ("generation_begin", [ ("generation", I generation); ("tasks", I tasks) ])
    | Round_begin { round; window } ->
        ("round_begin", [ ("round", I round); ("window", I window) ])
    | Inspect_done { round; marked; saved_continuations } ->
        ("inspect_done",
         [ ("round", I round); ("marked", I marked);
           ("saved_continuations", I saved_continuations) ])
    | Select_done { round; committed; defeated } ->
        ("select_done",
         [ ("round", I round); ("committed", I committed);
           ("defeated", I defeated) ])
    | Execute_done { round; work; pushes } ->
        ("execute_done",
         [ ("round", I round); ("work", I work); ("pushes", I pushes) ])
    | Window_adapted { old_w; new_w; ratio } ->
        ("window_adapted",
         [ ("old_w", I old_w); ("new_w", I new_w); ("ratio", F ratio) ])
    | Phase_time { round; phase; dt_s } ->
        ("phase_time",
         [ ("round", I round); ("phase", S (phase_name phase));
           ("dt_s", F dt_s) ])
    | Chunk_sized { round; tasks; chunk } ->
        ("chunk_sized",
         [ ("round", I round); ("tasks", I tasks); ("chunk", I chunk) ])
    | Worker_counters c ->
        ("worker_counters",
         ("worker", I c.worker) :: List.map (fun f -> (f.name, I (f.get c))) counter_table)
    | Bucket_opened { generation; bucket; size } ->
        ("bucket_opened",
         [ ("generation", I generation); ("bucket", I bucket);
           ("size", I size) ])
    | Bucket_drained { round; bucket } ->
        ("bucket_drained", [ ("round", I round); ("bucket", I bucket) ])
    | Checkpoint_taken { round; digest } ->
        ("checkpoint_taken", [ ("round", I round); ("digest", S digest) ])
    | Resumed { round; digest } ->
        ("resumed", [ ("round", I round); ("digest", S digest) ])
    | Audit_finding { round; rule; task; other; lid } ->
        ("audit_finding",
         [ ("round", I round); ("rule", S rule); ("task", I task);
           ("other", I other); ("lid", I lid) ])
    | Run_end { commits; rounds; generations } ->
        ("run_end",
         [ ("commits", I commits); ("rounds", I rounds);
           ("generations", I generations) ])

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let add_float buf f =
    (* Shortest lossless-enough form: integers as "N.0" (stays a JSON
       number, parses back exactly), everything else at 17 significant
       digits so the round-trip is bit-exact. *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

  let add_jv buf = function
    | S s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | I i -> Buffer.add_string buf (string_of_int i)
    | F f -> add_float buf f

  let to_line { at_s; event } =
    let name, fs = fields event in
    let buf = Buffer.create 128 in
    Buffer.add_string buf "{\"at_s\":";
    add_float buf at_s;
    Buffer.add_string buf ",\"ev\":\"";
    Buffer.add_string buf name;
    Buffer.add_char buf '"';
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf ",\"";
        Buffer.add_string buf k;
        Buffer.add_string buf "\":";
        add_jv buf v)
      fs;
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* Minimal parser for the flat objects emitted above. *)

  exception Bad of string

  let parse_flat line =
    let n = String.length line in
    let pos = ref 0 in
    let fail msg = raise (Bad msg) in
    let peek () = if !pos < n then Some line.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false)
      do incr pos done
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> incr pos
      | _ -> fail (Printf.sprintf "expected %c at column %d" c !pos)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "unterminated escape";
              (match line.[!pos] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 >= n then fail "bad \\u escape";
                  let hex = String.sub line (!pos + 1) 4 in
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  if code > 0xff then fail "\\u escape beyond latin-1"
                  else Buffer.add_char buf (Char.chr code);
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              incr pos;
              go ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num line.[!pos] do incr pos done;
      if !pos = start then fail (Printf.sprintf "expected value at column %d" start);
      let txt = String.sub line start (!pos - start) in
      match int_of_string_opt txt with
      | Some i -> I i
      | None -> (
          match float_of_string_opt txt with
          | Some f -> F f
          | None -> fail (Printf.sprintf "bad number %S" txt))
    in
    let parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> S (parse_string ())
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unsupported value starting with %c" c)
      | None -> fail "truncated line"
    in
    expect '{';
    let fields = ref [] in
    skip_ws ();
    (match peek () with
    | Some '}' -> incr pos
    | _ ->
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          if List.mem_assoc k !fields then
            fail (Printf.sprintf "duplicate field %S" k);
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ());
    skip_ws ();
    if !pos <> n then fail "trailing characters after object";
    List.rev !fields

  let get fs k =
    match List.assoc_opt k fs with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" k))

  let get_int fs k =
    match get fs k with
    | I i -> i
    | _ -> raise (Bad (Printf.sprintf "field %S: expected integer" k))

  let get_float fs k =
    match get fs k with
    | F f -> f
    | I i -> float_of_int i
    | _ -> raise (Bad (Printf.sprintf "field %S: expected number" k))

  let get_string fs k =
    match get fs k with
    | S s -> s
    | _ -> raise (Bad (Printf.sprintf "field %S: expected string" k))

  let event_of_fields ev fs =
    match ev with
    | "run_begin" ->
        Run_begin
          { policy = get_string fs "policy"; threads = get_int fs "threads";
            tasks = get_int fs "tasks" }
    | "generation_begin" ->
        Generation_begin
          { generation = get_int fs "generation"; tasks = get_int fs "tasks" }
    | "round_begin" ->
        Round_begin { round = get_int fs "round"; window = get_int fs "window" }
    | "inspect_done" ->
        Inspect_done
          { round = get_int fs "round"; marked = get_int fs "marked";
            saved_continuations = get_int fs "saved_continuations" }
    | "select_done" ->
        Select_done
          { round = get_int fs "round"; committed = get_int fs "committed";
            defeated = get_int fs "defeated" }
    | "execute_done" ->
        Execute_done
          { round = get_int fs "round"; work = get_int fs "work";
            pushes = get_int fs "pushes" }
    | "window_adapted" ->
        Window_adapted
          { old_w = get_int fs "old_w"; new_w = get_int fs "new_w";
            ratio = get_float fs "ratio" }
    | "phase_time" ->
        let name = get_string fs "phase" in
        let phase =
          match phase_of_name name with
          | Some p -> p
          | None -> raise (Bad (Printf.sprintf "unknown phase %S" name))
        in
        Phase_time { round = get_int fs "round"; phase; dt_s = get_float fs "dt_s" }
    | "chunk_sized" ->
        Chunk_sized
          { round = get_int fs "round"; tasks = get_int fs "tasks";
            chunk = get_int fs "chunk" }
    | "worker_counters" ->
        let c = counters (get_int fs "worker") in
        List.iter (fun f -> f.set c (get_int fs f.name)) counter_table;
        Worker_counters c
    | "bucket_opened" ->
        Bucket_opened
          { generation = get_int fs "generation"; bucket = get_int fs "bucket";
            size = get_int fs "size" }
    | "bucket_drained" ->
        Bucket_drained { round = get_int fs "round"; bucket = get_int fs "bucket" }
    | "checkpoint_taken" ->
        Checkpoint_taken
          { round = get_int fs "round"; digest = get_string fs "digest" }
    | "resumed" ->
        Resumed { round = get_int fs "round"; digest = get_string fs "digest" }
    | "audit_finding" ->
        Audit_finding
          { round = get_int fs "round"; rule = get_string fs "rule";
            task = get_int fs "task"; other = get_int fs "other";
            lid = get_int fs "lid" }
    | "run_end" ->
        Run_end
          { commits = get_int fs "commits"; rounds = get_int fs "rounds";
            generations = get_int fs "generations" }
    | other -> raise (Bad (Printf.sprintf "unknown event %S" other))

  let of_line line =
    match
      let fs = parse_flat line in
      let at_s = get_float fs "at_s" in
      let ev = get_string fs "ev" in
      let event = event_of_fields ev fs in
      (* Schema check: nothing beyond the envelope and this event's own
         fields may be present. *)
      let _, expected = fields event in
      List.iter
        (fun (k, _) ->
          if k <> "at_s" && k <> "ev" && not (List.mem_assoc k expected) then
            raise (Bad (Printf.sprintf "unexpected field %S for event %S" k ev)))
        fs;
      { at_s; event }
    with
    | s -> Ok s
    | exception Bad msg -> Error msg

  let load path =
    match open_in path with
    | exception Sys_error msg -> Error msg
    | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | line -> (
              match of_line line with
              | Ok s -> go (lineno + 1) (s :: acc)
              | Error msg ->
                  Error (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        go 1 [])

  let sink oc =
    {
      emit =
        (fun s ->
          output_string oc (to_line s);
          output_char oc '\n');
      close = (fun () -> flush oc);
    }

  let file path =
    let oc = open_out path in
    let closed = ref false in
    {
      emit =
        (fun s ->
          if not !closed then begin
            output_string oc (to_line s);
            output_char oc '\n'
          end);
      close =
        (fun () ->
          if not !closed then begin
            closed := true;
            close_out oc
          end);
    }
end
