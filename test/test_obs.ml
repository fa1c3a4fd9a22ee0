(* The observability layer in isolation: the memory ring, the JSONL
   round-trip (every event kind), the validating parser's reject cases,
   and the deterministic-subset rendering that detcheck compares. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let stamp ?(at_s = 1.25) event = { Obs.at_s; event }

let worker_counters =
  Obs.Worker_counters
    {
      worker = 3;
      committed = 10;
      aborted = 2;
      acquires = 25;
      atomics = 40;
      work = 17;
      pushes = 4;
      inspections = 12;
      chunks = 6;
      spins = 9;
      parks = 1;
    }

(* One exemplar per constructor, with non-default field values so a
   field swap or rename cannot round-trip by accident. *)
let exemplars =
  [
    Obs.Run_begin { policy = "det:4[spread=1]"; threads = 4; tasks = 1000 };
    Obs.Generation_begin { generation = 2; tasks = 513 };
    Obs.Round_begin { round = 7; window = 64 };
    Obs.Inspect_done { round = 7; marked = 130; saved_continuations = 61 };
    Obs.Select_done { round = 7; committed = 59; defeated = 5 };
    Obs.Execute_done { round = 7; work = 222; pushes = 13 };
    Obs.Window_adapted { old_w = 64; new_w = 128; ratio = 0.921875 };
    Obs.Phase_time { round = 7; phase = Obs.Inspect; dt_s = 0.003125 };
    Obs.Chunk_sized { round = 7; tasks = 64; chunk = 4 };
    worker_counters;
    Obs.Bucket_opened { generation = 2; bucket = 5; size = 37 };
    Obs.Bucket_drained { round = 9; bucket = 5 };
    Obs.Checkpoint_taken { round = 8; digest = "04aeef9adef32405" };
    Obs.Resumed { round = 8; digest = "04aeef9adef32405" };
    Obs.Audit_finding { round = 7; rule = "race"; task = 41; other = 17; lid = 1234 };
    Obs.Run_end { commits = 1000; rounds = 19; generations = 3 };
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i event ->
      let s = stamp ~at_s:(0.5 +. float_of_int i) event in
      let line = Obs.Jsonl.to_line s in
      match Obs.Jsonl.of_line line with
      | Error e -> Alcotest.failf "event %d: %s (line %S)" i e line
      | Ok s' ->
          check_string
            (Printf.sprintf "event %d round-trips" i)
            line (Obs.Jsonl.to_line s'))
    exemplars

(* The table-derived rendering of [Worker_counters] must stay
   byte-identical to the hand-written one it replaced: the strings below
   are what the per-field printer and encoder produced. *)
let test_worker_counters_golden () =
  check_string "jsonl"
    {|{"at_s":1.25,"ev":"worker_counters","worker":3,"committed":10,"aborted":2,"acquires":25,"atomics":40,"work":17,"pushes":4,"inspections":12,"chunks":6,"spins":9,"parks":1}|}
    (Obs.Jsonl.to_line (stamp worker_counters));
  check_string "pp_event"
    "worker-counters worker=3 committed=10 aborted=2 acquires=25 atomics=40 work=17 \
     pushes=4 inspections=12 chunks=6 spins=9 parks=1"
    (Fmt.str "%a" Obs.pp_event worker_counters)

let test_jsonl_phase_names () =
  List.iter
    (fun phase ->
      let s = stamp (Obs.Phase_time { round = 1; phase; dt_s = 0.5 }) in
      match Obs.Jsonl.of_line (Obs.Jsonl.to_line s) with
      | Ok { Obs.event = Obs.Phase_time { phase = p; _ }; _ } ->
          check_bool "phase survives" true (p = phase)
      | Ok _ -> Alcotest.fail "wrong event back"
      | Error e -> Alcotest.fail e)
    [ Obs.Inspect; Obs.Select; Obs.Execute ]

let test_jsonl_rejects () =
  let reject label line =
    match Obs.Jsonl.of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted %S" label line
  in
  reject "empty" "";
  reject "not an object" "42";
  reject "unterminated" {|{"at_s":1.0,"ev":"round_begin","round":1,"window":2|};
  reject "trailing garbage" {|{"at_s":1.0,"ev":"round_begin","round":1,"window":2} x|};
  reject "unknown event" {|{"at_s":1.0,"ev":"round_start","round":1,"window":2}|};
  reject "missing ev" {|{"at_s":1.0,"round":1,"window":2}|};
  reject "missing at_s" {|{"ev":"round_begin","round":1,"window":2}|};
  reject "missing field" {|{"at_s":1.0,"ev":"round_begin","round":1}|};
  reject "extra field" {|{"at_s":1.0,"ev":"round_begin","round":1,"window":2,"bogus":3}|};
  reject "duplicate field" {|{"at_s":1.0,"ev":"round_begin","round":1,"round":1,"window":2}|};
  reject "string for int" {|{"at_s":1.0,"ev":"round_begin","round":"1","window":2}|};
  reject "bad phase" {|{"at_s":1.0,"ev":"phase_time","round":1,"phase":"commit","dt_s":0.5}|};
  reject "nested object" {|{"at_s":1.0,"ev":"round_begin","round":{},"window":2}|}

let test_deterministic_classification () =
  let det = List.filter Obs.deterministic exemplars in
  (* Everything except Run_begin, Phase_time, Chunk_sized and
     Worker_counters. *)
  check_int "deterministic subset size" (List.length exemplars - 4) (List.length det);
  check_bool "run_begin excluded" false
    (Obs.deterministic (Obs.Run_begin { policy = "p"; threads = 1; tasks = 1 }));
  check_bool "phase_time excluded" false
    (Obs.deterministic (Obs.Phase_time { round = 0; phase = Obs.Select; dt_s = 0.0 }));
  check_bool "run_end included" true
    (Obs.deterministic (Obs.Run_end { commits = 0; rounds = 0; generations = 0 }))

let test_deterministic_lines_strip_timing () =
  let trace = List.mapi (fun i e -> stamp ~at_s:(float_of_int i) e) exemplars in
  let lines = Obs.deterministic_lines trace in
  (* Timestamps differ between the two traces; the rendering must not. *)
  let trace' = List.map (fun s -> { s with Obs.at_s = s.Obs.at_s +. 100.0 }) trace in
  check_string "timestamp-independent" lines (Obs.deterministic_lines trace');
  check_bool "no timing events rendered" false
    (let lowered = String.lowercase_ascii lines in
     let contains sub =
       let n = String.length lowered and m = String.length sub in
       let rec go i = i + m <= n && (String.sub lowered i m = sub || go (i + 1)) in
       go 0
     in
     contains "phase-time" || contains "worker" || contains "run-begin"
     || contains "chunk")

let test_memory_ring () =
  let mem = Obs.Memory.create ~capacity:4 () in
  let sink = Obs.Memory.sink mem in
  for i = 1 to 6 do
    sink.Obs.emit (stamp (Obs.Round_begin { round = i; window = i }))
  done;
  let rounds =
    List.map
      (function { Obs.event = Obs.Round_begin { round; _ }; _ } -> round | _ -> -1)
      (Obs.Memory.contents mem)
  in
  Alcotest.(check (list int)) "keeps the most recent, oldest first" [ 3; 4; 5; 6 ] rounds;
  check_int "dropped" 2 (Obs.Memory.dropped mem);
  Obs.close sink;
  check_int "close keeps contents" 4 (List.length (Obs.Memory.contents mem))

let test_tee_and_null () =
  let a = Obs.Memory.create () and b = Obs.Memory.create () in
  let t = Obs.Sink.tee (Obs.Memory.sink a) (Obs.Sink.tee Obs.null (Obs.Memory.sink b)) in
  t.Obs.emit (stamp (Obs.Run_end { commits = 1; rounds = 1; generations = 1 }));
  Obs.close t;
  check_int "left arm" 1 (List.length (Obs.Memory.contents a));
  check_int "right arm" 1 (List.length (Obs.Memory.contents b))

let test_file_sink_roundtrip () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Jsonl.file path in
      List.iter (fun e -> sink.Obs.emit (stamp e)) exemplars;
      Obs.close sink;
      Obs.close sink (* idempotent *);
      match Obs.Jsonl.load path with
      | Error e -> Alcotest.fail e
      | Ok events ->
          check_int "all lines back" (List.length exemplars) (List.length events));
  List.iter
    (fun bad ->
      match Obs.Jsonl.load bad with
      | Error e ->
          check_bool ("error names " ^ bad) true (String.starts_with ~prefix:bad e)
      | Ok _ -> Alcotest.fail ("loaded " ^ bad))
    [ "/nonexistent/obs_test.jsonl"; Filename.get_temp_dir_name () ]

let suite =
  [
    Alcotest.test_case "jsonl round-trips every event" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "worker_counters golden strings" `Quick test_worker_counters_golden;
    Alcotest.test_case "jsonl phase names" `Quick test_jsonl_phase_names;
    Alcotest.test_case "jsonl parser rejects bad lines" `Quick test_jsonl_rejects;
    Alcotest.test_case "deterministic classification" `Quick test_deterministic_classification;
    Alcotest.test_case "deterministic lines strip timing" `Quick
      test_deterministic_lines_strip_timing;
    Alcotest.test_case "memory ring capacity" `Quick test_memory_ring;
    Alcotest.test_case "tee and null sinks" `Quick test_tee_and_null;
    Alcotest.test_case "file sink round-trip" `Quick test_file_sink_roundtrip;
  ]
