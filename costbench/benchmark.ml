(* The cost-of-determinism benchmark: det:2 time to solution over the
   serial and nondet:2 times on the same input, for one named workload
   per invocation, plus a per-layer ledger from a separate traced run.

     benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-out FILE] [--spec BENCHMARK.json]
     benchmark.exe --compare BASE.json NEW.json [--spec BENCHMARK.json]
     benchmark.exe --smoke [--spec BENCHMARK.json]

   A measuring run prints every metric by name with its unit, then one
   JSON line {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   Metric names and units are the ones BENCHMARK.json declares.
   Everything runs in this process on one 2-domain Galois.Pool (plus a
   1-domain pool for the det:1 pass, which spawns nothing). *)

type budget = Seconds of float | Reps of int

let now = Workload.now
let threads = Workload.threads

(* Room for a job's events: about 12 per round, plus the run's
   bracketing and per-worker events. *)
let ring_capacity rounds = (12 * rounds) + 16

(* A timing sample repeats its call until it has taken this long and
   reports the mean per call. A serial boruvka solve or a boruvka input
   build takes about a millisecond, and one timer interrupt or
   descheduling moves a sample that short by half. *)
let min_sample_s = 0.02

(* Calls [f] back to back until [min_sample_s] has passed, at least
   once; returns the mean of [secs f] per call and the last result. *)
let repeat ~secs f =
  let c0 = Galois.Clock.now_s () in
  let rec go calls total =
    let r = f () in
    let total = total +. secs r in
    if Galois.Clock.elapsed_s c0 < min_sample_s then go (calls + 1) total
    else (total /. float_of_int calls, r)
  in
  go 1 0.0

(* One run of a workload: the number of checked outputs, how many were
   wrong, and every metric's value by name (the end-to-end ones, or with
   [trace] the per-layer ones). *)
let measure ~build ~seed ~scale ~budget ~trace =
  Galois.Pool.with_pool ~domains:threads @@ fun pool ->
  Galois.Pool.with_pool ~domains:1 @@ fun pool1 ->
  let root = Spans.fresh () and root_start = now () in
  let attempted = ref 0 and failed = ref 0 in
  let count (r : Workload.run) =
    attempted := !attempted + r.checked;
    failed := !failed + r.wrong
  in
  let rep label f =
    let start = now () in
    let (r : Workload.run) = f () in
    let stop = now () in
    count r;
    let id = Spans.record ~parent:root "rep" ~start ~stop in
    ignore (Spans.record ~parent:id ("exec:" ^ label) ~start:r.t0 ~stop:(r.t0 +. r.secs));
    ignore (Spans.record ~parent:id "validate" ~start:(r.t0 +. r.secs) ~stop);
    r
  in
  (* Every sample and every build starts from a collected heap, so it
     pays for its own garbage and not for the previous one's. *)
  let sample label f =
    Gc.full_major ();
    fst (repeat ~secs:(fun (r : Workload.run) -> r.secs) (fun () -> rep label f))
  in
  (* Input builds: five before the run starts (it uses the last one)
     and one in each timed block, so that [setup_s] samples the same
     conditions as the reps instead of one short window. A build sample
     is the mean over [min_sample_s] of back-to-back builds. *)
  let builds = ref [] in
  let timed_build () =
    Gc.full_major ();
    let start = now () in
    let one () =
      let c0 = Galois.Clock.now_s () in
      let (inst : Workload.instance) = build ~seed scale in
      (Galois.Clock.elapsed_s c0, inst)
    in
    let setup_s, (_, inst) = repeat ~secs:fst one in
    builds := (setup_s, inst.graph_build_s) :: !builds;
    ignore (Spans.record ~parent:root "setup" ~start ~stop:(now ()));
    inst
  in
  let inst = List.nth (List.init 5 (fun _ -> timed_build ())) 4 in
  let per = float_of_int inst.per_unit in
  let det_label = Printf.sprintf "det:%d" threads in
  let nondet_label = Printf.sprintf "nondet:%d" threads in
  (* Warm-up: one sample of each path. It also fixes the serial answers
     and the det schedules every later run is checked against. *)
  ignore (sample "serial" (fun () -> inst.serial 0));
  ignore (sample nondet_label (fun () -> inst.nondet ~pool 0));
  ignore (sample det_label (fun () -> inst.det ~pool ~threads 0));
  (* det:1 on one domain: the GC counters then cover the whole run,
     and its schedule must equal det:2's. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let one = inst.det ~pool:pool1 ~threads:1 0 in
  let g1 = Gc.quick_stat () in
  count one;
  let minor_words = g1.minor_words -. g0.minor_words in
  (* Timed blocks: det, nondet, det and serial samples on the same unit,
     so a noisy neighbour slows numerator and denominators alike. The
     block's input build is discarded. A traced run gives the blocks
     half its seconds and the open loop a quarter, so that it takes
     about as long as an untraced one. *)
  let det = ref [] and nondet = ref [] and serial = ref [] in
  let blocks = ref 0 and t_blocks = Galois.Clock.now_s () in
  let more () =
    match budget with
    | Reps n -> !blocks < n
    | Seconds s ->
        let s = if trace then s /. 2.0 else s in
        !blocks < 3 || Galois.Clock.elapsed_s t_blocks < s
  in
  while more () do
    let u = !blocks in
    det := sample det_label (fun () -> inst.det ~pool ~threads u) :: !det;
    nondet := sample nondet_label (fun () -> inst.nondet ~pool u) :: !nondet;
    det := sample det_label (fun () -> inst.det ~pool ~threads u) :: !det;
    for _ = 1 to 4 do
      serial := sample "serial" (fun () -> inst.serial u) :: !serial
    done;
    ignore (timed_build ());
    incr blocks
  done;
  let setup_s = Analysis.Summary.median (List.map fst !builds) in
  let graph_build_s = Analysis.Summary.median (List.map snd !builds) in
  let wall = Analysis.Summary.median !det in
  let values =
    if not trace then
      [
        ("setup_s", setup_s);
        ("det_over_serial", Sample.ratio wall (Analysis.Summary.median !serial));
        ("det_over_nondet", Sample.ratio wall (Analysis.Summary.median !nondet));
        ("alloc_words_per_commit", Sample.ratio minor_words (float_of_int one.commits));
      ]
    else begin
      (* Rings are sized from the rounds the job took untraced; a drop
         means the ledger would be built from a truncated stream, so it
         counts as a failure. *)
      let dropped = ref 0 in
      let ring j =
        let capacity = match inst.rounds j with 0 -> 65_536 | r -> ring_capacity r in
        Obs.Memory.create ~capacity ()
      in
      let contents m =
        let d = Obs.Memory.dropped m in
        if d > 0 then begin
          dropped := !dropped + d;
          incr failed
        end;
        Obs.Memory.contents m
      in
      (* Traced open loop at 60% of the capacity just measured: job j is
         due at start + j / rate whether or not earlier jobs finished,
         and its latency counts from that due time. *)
      let rate = 0.6 /. (wall /. per) in
      let jobs =
        match budget with
        | Reps _ -> 2 * inst.per_unit
        | Seconds s -> max 3 (min 300 (int_of_float (s /. 4.0 *. rate)))
      in
      let ex = inst.executor ~pool in
      let loop = Spans.fresh () and loop_start = now () in
      let due j = loop_start +. 0.005 +. (float_of_int j /. rate) in
      let rings = Hashtbl.create 16 and submitted = Array.make jobs 0.0 in
      let traced = ref [] and busy = ref 0.0 and drains = ref 0 and next = ref 0 in
      while !next < jobs do
        let wait = due !next -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        while !next < jobs && due !next <= now () do
          let j = !next in
          let m = ring j in
          Hashtbl.replace rings j m;
          submitted.(j) <- now ();
          ex.submit ~sink:(Obs.Memory.sink m) j;
          incr next
        done;
        let finished, r = ex.drain () in
        count r;
        busy := !busy +. r.secs;
        incr drains;
        List.iter
          (fun (j, latency) ->
            let summary = Ledger.summarize (contents (Hashtbl.find rings j)) in
            Hashtbl.remove rings j;
            let job = { Ledger.due = due j; submitted = submitted.(j); latency; summary } in
            let id =
              Spans.record ~parent:loop ~request:j "job" ~start:job.due
                ~stop:(job.submitted +. latency)
            in
            ignore
              (Spans.record ~parent:id ~request:j "queue" ~start:job.due ~stop:summary.run_begin);
            ignore
              (Spans.record ~parent:id ~request:j "execute" ~start:summary.run_begin
                 ~stop:summary.run_end);
            traced := job :: !traced)
          finished
      done;
      ignore (Spans.record ~id:loop ~parent:root "open_loop" ~start:loop_start ~stop:(now ()));
      (* A job the executor never answered (a rejected query) failed. *)
      let unanswered = jobs - List.length !traced in
      attempted := !attempted + unanswered;
      failed := !failed + unanswered;
      (* Three traced closed-loop units, against the untraced median. *)
      let traced_units =
        List.init 3 (fun u ->
            let rings = Array.init inst.per_unit (fun k -> ring ((u * inst.per_unit) + k)) in
            Gc.full_major ();
            let r =
              rep (det_label ^ "+trace") (fun () ->
                  inst.det ~sink:(fun k -> Obs.Memory.sink rings.(k)) ~pool ~threads u)
            in
            Array.iter (fun m -> ignore (contents m)) rings;
            r.secs)
      in
      Ledger.metrics ~busy_s:!busy (List.rev !traced)
      @ [
          ("graph.build_s", graph_build_s);
          ("graph.bytes", float_of_int inst.graph_bytes);
          ("graph.succ_read_ns_per_edge", Probes.succ_read_ns_per_edge inst.graph);
          ("pending.compact_ns", Probes.pending_compact_ns ());
          ("lock.claim_max_ns", Probes.lock_claim_max_ns ());
          ("domain_pool.dispatch_us", Probes.dispatch_us pool);
          ("det.wall_s", wall /. per);
          (let _, _, q3 = Sample.quartiles !det in
           ("det.wall_p75_s", q3 /. per));
          ("serial.wall_s", Analysis.Summary.median !serial /. per);
          ("nondet.wall_s", Analysis.Summary.median !nondet /. per);
          ("gc.minor_words", minor_words /. per);
          ("gc.promoted_words", (g1.promoted_words -. g0.promoted_words) /. per);
          ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
          ("job.offered_per_s", rate);
          ( "job.batch_mean",
            Sample.ratio (float_of_int (List.length !traced)) (float_of_int !drains) );
          ("obs.trace_overhead", Sample.ratio (Analysis.Summary.median traced_units) wall -. 1.0);
          ("obs.dropped", float_of_int !dropped);
        ]
    end
  in
  ignore (Spans.record ~id:root "workload" ~start:root_start ~stop:(now ()));
  (!attempted, !failed, values)

(* (name, unit) of each metric of one list of the spec. *)
let declared spec key =
  List.map
    (fun m -> (Json.string_field "name" m, Json.string_field "unit" m))
    (Json.to_list (Json.member key spec))

let table spec ~trace = declared spec (if trace then "per_layer" else "end_to_end")

let print_result ~table (attempted, failed, values) =
  let metrics = List.map (fun (name, unit) -> (name, List.assoc name values, unit)) table in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.6g %s\n" name v unit) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && attempted > 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

(* Every workload at tiny sizes, 3 blocks, both trace modes: the values
   must be exactly the metrics the spec declares, all finite, with no
   failed check and no dropped trace event. *)
let smoke spec =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let workloads =
    List.map (Json.string_field "name") (Json.to_list (Json.member "workloads" spec))
  in
  if workloads <> List.map fst Workload.all then problem "workload names differ from the spec's";
  List.iter
    (fun (name, build) ->
      List.iter
        (fun trace ->
          let attempted, failed, values =
            measure ~build ~seed:2014 ~scale:Workload.Tiny ~budget:(Reps 3) ~trace
          in
          let mode = if trace then "trace 1" else "trace 0" in
          let names l = List.sort compare (List.map fst l) in
          if names values <> names (table spec ~trace) then
            problem "%s %s: metric names differ from the spec's" name mode;
          List.iter
            (fun (n, v) ->
              if not (Float.is_finite v) then problem "%s %s: %s is not finite" name mode n)
            values;
          if failed > 0 || attempted = 0 then
            problem "%s %s: %d of %d checks failed" name mode failed attempted;
          match List.assoc_opt "obs.dropped" values with
          | Some d when d <> 0.0 -> problem "%s %s: %g trace events dropped" name mode d
          | _ -> ())
        [ false; true ])
    Workload.all;
  match List.rev !problems with
  | [] ->
      Printf.printf "benchmark-smoke: %d workloads x 2 trace modes ok\n" (List.length Workload.all);
      0
  | ps ->
      List.iter prerr_endline ps;
      1

let usage () =
  prerr_endline
    "usage: benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \                     [--trace-out FILE]\n\
    \       benchmark.exe --compare BASE.json NEW.json\n\
    \       benchmark.exe --smoke\n\
     every mode also takes --spec FILE (default BENCHMARK.json)";
  exit 2

let () =
  let workload = ref None and seed = ref 2014 and seconds = ref 30.0 and trace = ref false in
  let trace_out = ref None and spec = ref "BENCHMARK.json" in
  let compare = ref None and smoke_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | "--spec" :: f :: rest -> spec := f; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | arg :: _ -> Printf.eprintf "benchmark: unknown or incomplete argument %S\n" arg; usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!compare, !smoke_mode, !workload) with
  | Some (a, b), false, None -> exit (Compare.run ~spec:(Json.of_file !spec) a b)
  | None, true, None -> exit (smoke (Json.of_file !spec))
  | None, false, Some name -> (
      match List.assoc_opt name Workload.all with
      | None ->
          Printf.eprintf "benchmark: unknown workload %S (one of: %s)\n" name
            (String.concat ", " (List.map fst Workload.all));
          exit 2
      | Some build ->
          let table = table (Json.of_file !spec) ~trace:!trace in
          let result =
            measure ~build ~seed:!seed ~scale:Workload.Full ~budget:(Seconds !seconds)
              ~trace:!trace
          in
          Option.iter Spans.write !trace_out;
          print_result ~table result)
  | _ -> usage ()
