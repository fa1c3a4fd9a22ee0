(* Regenerate every table and figure of the paper's evaluation (§5) from
   a collected dataset. Each [figN] function prints the same rows/series
   the paper reports; EXPERIMENTS.md records the paper-vs-measured
   comparison. *)

module Scale = Scale
module Dataset = Dataset
(* re-exports: [figures.ml] is the library's root module *)

module Machine = Simmachine.Machine
module Exec_model = Simmachine.Exec_model
module Coredet_model = Simmachine.Coredet_model

let sched (r : Galois.Run.report) =
  match r.schedule with
  | Some s -> s
  | None -> invalid_arg "Figures: report has no recorded schedule"

type variant = GN | GD | GDnc | PBBS

let variant_name = function GN -> "g-n" | GD -> "g-d" | GDnc -> "g-d/nc" | PBBS -> "pbbs"

(* The recorded runs are small-scale (this container is single-core);
   [amplification] projects each schedule to the paper's input scale
   (~millions of tasks) so that barrier and window costs amortize as
   they do in the paper's measurements. *)
let amplification_target = 2_000_000

let amplification (app : Dataset.app) =
  max 1 (amplification_target / max 1 app.det.stats.Galois.Stats.commits)

(* The data-parallel PBBS mis is different in kind (paper §4.1): model
   it as bulk-synchronous rounds over the committed work. *)
let pbbs_mis_time machine ~threads (app : Dataset.app) rounds =
  let records = Galois.Schedule.committed_tasks (sched app.serial) in
  let task_costs =
    Array.of_list (List.map (fun r -> r.Galois.Schedule.commit_work) records)
  in
  let atomics = List.fold_left (fun a r -> a + r.Galois.Schedule.acquires) 0 records in
  Exec_model.time_kernel ~amplify:(amplification app) machine ~threads ~task_costs
    ~barriers:(2 * rounds) ~atomics

let time data machine ~threads (app : Dataset.app) variant =
  ignore data;
  let amplify = amplification app in
  match variant with
  | GN -> Exec_model.time_schedule ~amplify machine ~threads (sched app.nondet)
  | GD -> Exec_model.time_schedule ~amplify machine ~threads (sched app.det)
  | GDnc -> Exec_model.time_schedule ~amplify machine ~threads (sched app.det_nocont)
  | PBBS -> (
      match app.pbbs with
      | None -> invalid_arg (app.name ^ " has no PBBS variant")
      | Some stats -> (
          if app.name = "mis" then pbbs_mis_time machine ~threads app stats.Detreserve.rounds
          else
            match sched app.det with
            | Galois.Schedule.Rounds rounds ->
                Exec_model.time_rounds_pbbs ~amplify machine ~threads rounds
            | Galois.Schedule.Flat _ -> invalid_arg "det schedule should be rounds"))

(* Memoized timings: the figure set reuses the same (machine, threads,
   app, variant) cells many times and each evaluation replays a
   schedule. *)
type timings = {
  data : Dataset.t;
  memo : (string * int * string * variant, float) Hashtbl.t;
}

let timings data = { data; memo = Hashtbl.create 256 }

let cell t machine ~threads app variant =
  let key = (machine.Machine.name, threads, app.Dataset.name, variant) in
  match Hashtbl.find_opt t.memo key with
  | Some v -> v
  | None ->
      let v = time t.data machine ~threads app variant in
      Hashtbl.add t.memo key v;
      v

let baseline_time machine (app : Dataset.app) =
  match sched app.serial with
  | Galois.Schedule.Flat records ->
      Exec_model.time_serial_baseline ~amplify:(amplification app) machine records
  | Galois.Schedule.Rounds _ -> invalid_arg "serial schedule should be flat"

let speedup t machine ~threads app variant =
  baseline_time machine app /. cell t machine ~threads app variant

let app_variants (app : Dataset.app) =
  if app.pbbs = None then [ GN; GD ] else [ GN; GD; PBBS ]

let max_threads_of machine = Machine.max_threads machine

(* ------------------------------------------------------------------ *)
(* Fig. 4: task rates, abort ratios, rounds at 1 and max threads on
   m4x10. *)

let fig4 t =
  let m = Machine.m4x10 in
  let tmax = max_threads_of m in
  let rows =
    List.concat_map
      (fun (app : Dataset.app) ->
        List.map
          (fun v ->
            let stats =
              match v with
              | GN -> app.nondet.stats
              | GD | GDnc -> app.det.stats
              | PBBS -> app.det.stats
            in
            let commits = stats.Galois.Stats.commits * amplification app in
            let rate threads =
              float_of_int commits /. (cell t m ~threads app v *. 1e6)
            in
            let aborts, rounds =
              match v with
              | GN -> (Galois.Stats.abort_ratio app.nondet.stats, "-")
              | GD | GDnc ->
                  (Galois.Stats.abort_ratio app.det.stats, string_of_int app.det.stats.rounds)
              | PBBS -> (
                  match app.pbbs with
                  | Some s ->
                      let attempts = s.Detreserve.commits + s.Detreserve.retries in
                      ( (if attempts = 0 then 0.0
                         else float_of_int s.Detreserve.retries /. float_of_int attempts),
                        string_of_int s.Detreserve.rounds )
                  | None -> (0.0, "-"))
            in
            [
              app.name;
              variant_name v;
              Analysis.Table.f3 (rate 1);
              Analysis.Table.f3 (rate tmax);
              Analysis.Table.f4 aborts;
              rounds;
            ])
          (app_variants app))
      t.data.apps
  in
  Analysis.Table.make
    ~header:
      [ "app"; "variant"; "tasks/us @1"; Printf.sprintf "tasks/us @%d" tmax; "abort ratio"; "rounds" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5: atomic update rates (adds the PARSEC kernels). *)

let fig5 t =
  let m = Machine.m4x10 in
  let tmax = max_threads_of m in
  let app_rows =
    List.concat_map
      (fun (app : Dataset.app) ->
        List.map
          (fun v ->
            let stats = match v with GN -> app.nondet.stats | _ -> app.det.stats in
            let atomics = stats.Galois.Stats.atomics * amplification app in
            let rate threads = float_of_int atomics /. (cell t m ~threads app v *. 1e6) in
            [
              app.name;
              variant_name v;
              Analysis.Table.f2 (rate 1);
              Analysis.Table.f2 (rate tmax);
            ])
          (app_variants app))
      t.data.apps
  in
  let kernel_rows =
    List.map
      (fun (k : Dataset.kernel) ->
        let p = k.profile in
        let time threads =
          Exec_model.time_kernel m ~threads ~task_costs:p.Apps.Kernel_profile.task_costs
            ~barriers:p.barriers ~atomics:p.atomics
        in
        [
          k.kname;
          "parsec";
          Analysis.Table.f2 (float_of_int p.Apps.Kernel_profile.atomics /. (time 1 *. 1e6));
          Analysis.Table.f2 (float_of_int p.Apps.Kernel_profile.atomics /. (time tmax *. 1e6));
        ])
      t.data.kernels
  in
  Analysis.Table.make
    ~header:[ "app"; "variant"; "atomics/us @1"; Printf.sprintf "atomics/us @%d" tmax ]
    (app_rows @ kernel_rows)

(* ------------------------------------------------------------------ *)
(* Fig. 6: CoreDet slowdowns vs threads (m4x10). *)

let fig6_workloads t =
  let kernels =
    List.map
      (fun (k : Dataset.kernel) ->
        ( k.kname,
          Apps.Kernel_profile.total_work k.profile + 1,
          k.profile.Apps.Kernel_profile.atomics ))
      t.data.kernels
  in
  let apps =
    List.filter_map
      (fun (app : Dataset.app) ->
        if app.name = "pfp" then None
        else
          let k = amplification app in
          Some
            ( app.name,
              k * (app.nondet.stats.Galois.Stats.work_units + app.nondet.stats.acquired + 1),
              k * app.nondet.stats.atomics ))
      t.data.apps
  in
  kernels @ apps

let fig6 t =
  let m = Machine.m4x10 in
  let sweep = [ 1; 2; 4; 8; 16; 32; 40 ] in
  let rows =
    List.map
      (fun (name, work, atomics) ->
        name
        :: List.map
             (fun threads ->
               Analysis.Table.xf (Coredet_model.slowdown m ~threads ~work ~atomics))
             sweep)
      (fig6_workloads t)
  in
  let summary =
    let at_max =
      List.map
        (fun (_, work, atomics) -> Coredet_model.slowdown m ~threads:40 ~work ~atomics)
        (fig6_workloads t)
    in
    [
      "median (min..max) @40";
      Printf.sprintf "%s (%s..%s)"
        (Analysis.Table.xf (Analysis.Summary.median at_max))
        (Analysis.Table.xf (Analysis.Summary.minimum at_max))
        (Analysis.Table.xf (Analysis.Summary.maximum at_max));
      "";
      "";
      "";
      "";
      "";
      "";
    ]
  in
  Analysis.Table.make
    ~header:("coredet slowdown" :: List.map (fun p -> Printf.sprintf "@%d" p) sweep)
    (rows @ [ summary ])

(* ------------------------------------------------------------------ *)
(* Fig. 7: speedups over the best sequential baseline, per machine. *)

let fig7 ?(machine = Machine.m4x10) t =
  let sweep = Machine.thread_sweep machine in
  let rows =
    List.concat_map
      (fun (app : Dataset.app) ->
        List.map
          (fun v ->
            (app.name ^ " " ^ variant_name v)
            :: List.map
                 (fun threads -> Analysis.Table.f2 (speedup t machine ~threads app v))
                 sweep)
          (app_variants app))
      t.data.apps
  in
  Analysis.Table.make
    ~header:
      ((machine.Machine.name ^ " speedup")
      :: List.map (fun p -> Printf.sprintf "@%d" p) sweep)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: sequential baseline times. *)

let fig8 t =
  let rows =
    List.concat_map
      (fun (app : Dataset.app) ->
        List.map
          (fun m -> [ app.name; m.Machine.name; Analysis.Table.f4 (baseline_time m app) ])
          Machine.all)
      t.data.apps
    @ List.concat_map
        (fun (k : Dataset.kernel) ->
          List.map
            (fun m ->
              let p = k.profile in
              let time =
                Exec_model.time_kernel m ~threads:1 ~task_costs:p.Apps.Kernel_profile.task_costs
                  ~barriers:p.barriers ~atomics:p.atomics
              in
              [ k.kname; m.Machine.name; Analysis.Table.f4 time ])
            Machine.all)
        t.data.kernels
  in
  Analysis.Table.make ~header:[ "app"; "machine"; "baseline time (s)" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 9: performance relative to the PBBS variant (t_pbbs / t_var). *)

let relative_to_pbbs t machine ~threads app v =
  cell t machine ~threads app PBBS /. cell t machine ~threads app v

let fig9 t =
  let with_pbbs = List.filter (fun (a : Dataset.app) -> a.pbbs <> None) t.data.apps in
  let rows =
    List.concat_map
      (fun machine ->
        let tmax = max_threads_of machine in
        let sweep = Machine.thread_sweep machine in
        List.map
          (fun v ->
            let all_ratios =
              List.concat_map
                (fun app ->
                  List.map (fun threads -> relative_to_pbbs t machine ~threads app v) sweep)
                with_pbbs
            in
            let at threads =
              List.map (fun app -> relative_to_pbbs t machine ~threads app v) with_pbbs
            in
            [
              machine.Machine.name;
              variant_name v;
              Analysis.Table.f2 (Analysis.Summary.mean all_ratios);
              Analysis.Table.f2 (Analysis.Summary.maximum all_ratios);
              Analysis.Table.f2 (Analysis.Summary.median (at 1));
              Analysis.Table.f2 (Analysis.Summary.median (at tmax));
            ])
          [ GN; GD ])
      Machine.all
  in
  Analysis.Table.make ~header:[ "machine"; "variant"; "mean"; "max"; "I1"; "Imax" ] rows

(* The headline §5.3 medians: g-n vs pbbs, g-d vs pbbs, g-n vs g-d at
   max threads across machines and benchmarks. *)
let summary t =
  let with_pbbs = List.filter (fun (a : Dataset.app) -> a.pbbs <> None) t.data.apps in
  let ratios f =
    List.concat_map
      (fun machine ->
        let threads = max_threads_of machine in
        List.filter_map (fun app -> f machine threads app) with_pbbs)
      Machine.all
  in
  let gn_vs_pbbs =
    ratios (fun m threads app -> Some (relative_to_pbbs t m ~threads app GN))
  in
  let gd_vs_pbbs =
    ratios (fun m threads app -> Some (relative_to_pbbs t m ~threads app GD))
  in
  let gn_vs_gd =
    List.concat_map
      (fun machine ->
        let threads = max_threads_of machine in
        List.map
          (fun (app : Dataset.app) ->
            cell t machine ~threads app GD /. cell t machine ~threads app GN)
          t.data.apps)
      Machine.all
  in
  let gd_vs_pbbs_no_mis =
    List.concat_map
      (fun machine ->
        let threads = max_threads_of machine in
        List.filter_map
          (fun (app : Dataset.app) ->
            if app.name = "mis" || app.pbbs = None then None
            else Some (relative_to_pbbs t machine ~threads app GD))
          t.data.apps)
      Machine.all
  in
  Analysis.Table.make
    ~header:[ "headline result"; "paper"; "measured (median)" ]
    [
      [ "g-n vs pbbs at Imax"; "2.4X"; Analysis.Table.xf (Analysis.Summary.median gn_vs_pbbs) ];
      [ "g-d vs pbbs at Imax"; "0.62X"; Analysis.Table.xf (Analysis.Summary.median gd_vs_pbbs) ];
      [
        "g-d vs pbbs (no mis)";
        "0.70X";
        Analysis.Table.xf (Analysis.Summary.median gd_vs_pbbs_no_mis);
      ];
      [ "g-n vs g-d at Imax"; "4.2X"; Analysis.Table.xf (Analysis.Summary.median gn_vs_gd) ];
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: ablation — deterministic scheduling without the
   continuation optimization, relative to PBBS; plus the median
   improvement the optimization brings. *)

let fig10 t =
  let with_pbbs = List.filter (fun (a : Dataset.app) -> a.pbbs <> None) t.data.apps in
  let m = Machine.m4x10 in
  let tmax = max_threads_of m in
  let rows =
    List.map
      (fun (app : Dataset.app) ->
        let nc = relative_to_pbbs t m ~threads:tmax app GDnc in
        let c = relative_to_pbbs t m ~threads:tmax app GD in
        [
          app.name;
          Analysis.Table.f2 nc;
          Analysis.Table.f2 c;
          Analysis.Table.xf
            (cell t m ~threads:tmax app GDnc /. cell t m ~threads:tmax app GD);
        ])
      with_pbbs
  in
  let improvements =
    List.map
      (fun (app : Dataset.app) ->
        cell t m ~threads:tmax app GDnc /. cell t m ~threads:tmax app GD)
      t.data.apps
  in
  let footer =
    [
      "median improvement";
      "";
      "";
      Analysis.Table.xf (Analysis.Summary.median improvements);
    ]
  in
  Analysis.Table.make
    ~header:[ "app (m4x10, Imax)"; "g-d/nc vs pbbs"; "g-d vs pbbs"; "continuation gain" ]
    (rows @ [ footer ])

(* ------------------------------------------------------------------ *)
(* Fig. 11: DRAM requests by variant (cache-hierarchy replay). *)

let dram ~threads (app : Dataset.app) v =
  let schedule =
    match v with
    | GN -> sched app.nondet
    | GD -> sched app.det
    | GDnc -> sched app.det_nocont
    | PBBS -> sched app.det
  in
  (* Cache sizes are scaled down with the inputs so that, as in the
     paper, the working set exceeds the last-level cache — otherwise
     every variant would only see cold misses. *)
  Cachesim.Hierarchy.dram_accesses
    (Cachesim.Hierarchy.replay ~l1_lines:64 ~l2_lines:256 ~l3_lines:1024 ~threads schedule)

let fig11 t =
  let threads_list = [ 1; 8; 40 ] in
  let rows =
    List.concat_map
      (fun (app : Dataset.app) ->
        List.map
          (fun v ->
            (app.name ^ " " ^ variant_name v)
            :: List.map (fun threads -> string_of_int (dram ~threads app v)) threads_list)
          [ GN; GD ])
      t.data.apps
  in
  Analysis.Table.make
    ~header:("dram requests" :: List.map (fun p -> Printf.sprintf "@%d" p) threads_list)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 12: how well efficiency differences are explained by the memory
   counter: fit eff_gd = B0 + B1 * (dram_gn / dram_gd) * eff_gn over the
   thread sweep and report R^2. *)

let fig12 t =
  let m = Machine.m4x10 in
  let sweep = List.filter (fun p -> p > 1) (Machine.thread_sweep m) in
  let rows =
    List.map
      (fun (app : Dataset.app) ->
        let points =
          List.map
            (fun threads ->
              let eff v = speedup t m ~threads app v /. float_of_int threads in
              let x =
                float_of_int (dram ~threads app GN)
                /. float_of_int (max 1 (dram ~threads app GD))
                *. eff GN
              in
              (x, eff GD))
            sweep
        in
        match Analysis.Regression.fit points with
        | fit ->
            [
              app.name;
              Analysis.Table.f3 fit.Analysis.Regression.b0;
              Analysis.Table.f3 fit.b1;
              Analysis.Table.f3 fit.r2;
              Analysis.Table.i fit.n;
            ]
        | exception Invalid_argument _ -> [ app.name; "-"; "-"; "-"; "-" ])
      t.data.apps
  in
  Analysis.Table.make ~header:[ "app"; "B0"; "B1"; "R^2"; "points" ] rows

(* ------------------------------------------------------------------ *)
(* Ablations of the §3.3 design choices (DESIGN.md §5): locality
   spread, adaptive vs starved windows, static ids. Each runs the
   deterministic scheduler with one knob changed and reports rounds,
   failed selections and simulated time (m4x10, max threads). *)

let ablation t =
  let scale = t.data.scale in
  let m = Machine.m4x10 in
  let tmax = max_threads_of m in
  Galois.Pool.with_pool ~domains:Dataset.run_threads (fun pool ->
      let bfs_graph =
        Graphlib.Generators.kout ~seed:scale.Scale.seed ~n:scale.Scale.bfs_nodes
          ~k:scale.Scale.bfs_degree ()
      in
      let dmr_mesh () =
        Apps.Dt.serial (Geometry.Point.random_unit_square ~seed:(scale.Scale.seed + 3)
                          scale.Scale.dmr_points)
      in
      let run_bfs options =
        let policy = Galois.Policy.det Dataset.run_threads ~options in
        snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Bfs.plan bfs_graph ~source:0))
      in
      let run_dmr options =
        let policy = Galois.Policy.det Dataset.run_threads ~options in
        snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Dmr.plan (dmr_mesh ())))
      in
      let row name (report : Galois.Run.report) =
        let time =
          Exec_model.time_schedule ~amplify:(amplification_target / max 1 report.stats.commits)
            m ~threads:tmax (sched report)
        in
        [
          name;
          Analysis.Table.i report.stats.rounds;
          Analysis.Table.i report.stats.aborts;
          Analysis.Table.f4 time;
        ]
      in
      let base = Galois.Policy.default_det in
      let rows =
        [
          row "bfs: default (spread=16, adaptive)" (run_bfs base);
          row "bfs: no locality spread" (run_bfs { base with spread = 1 });
          row "bfs: starved window (target 2.0)"
            (run_bfs { base with initial_window = Some 256; target_ratio = 2.0 });
          row "bfs: no continuation" (run_bfs { base with continuation = false });
          row "dmr: default" (run_dmr base);
          row "dmr: no locality spread" (run_dmr { base with spread = 1 });
          row "dmr: starved window (target 2.0)"
            (run_dmr { base with initial_window = Some 256; target_ratio = 2.0 });
          row "dmr: no continuation" (run_dmr { base with continuation = false });
        ]
      in
      (* Static-id fast path (pfp): compare epochs/rounds with and
         without it by rerunning pfp without static ids. *)
      let pfp_rows =
        let g, caps, source, sink =
          Graphlib.Generators.flow_network ~seed:(scale.Scale.seed + 4) ~n:scale.Scale.pfp_nodes
            ~k:scale.Scale.pfp_degree ()
        in
        let net = Apps.Flow_network.of_graph g caps ~source ~sink in
        let result =
          Apps.Pfp.galois ~record:true ~policy:(Galois.Policy.det Dataset.run_threads) ~pool net
        in
        match result.Apps.Pfp.schedule with
        | Some schedule ->
            let time =
              Exec_model.time_schedule
                ~amplify:(amplification_target / max 1 result.Apps.Pfp.stats.Galois.Stats.commits)
                m ~threads:tmax schedule
            in
            [
              [
                "pfp: static ids (default)";
                Analysis.Table.i result.Apps.Pfp.stats.rounds;
                Analysis.Table.i result.Apps.Pfp.stats.aborts;
                Analysis.Table.f4 time;
              ];
            ]
        | None -> []
      in
      Analysis.Table.make
        ~header:[ "deterministic-scheduler ablation"; "rounds"; "failed"; "sim time @40 (s)" ]
        (rows @ pfp_rows))

(* ------------------------------------------------------------------ *)
(* Phase breakdown of an observability trace (lib/obs): where a run's
   wall-clock went per scheduler phase, plus round/window/commit-ratio
   structure. Consumes any stamped event stream — an in-memory capture
   or a JSONL trace written by `galois_run --trace` (figures_cli
   --phase-breakdown FILE). *)

let phase_breakdown (events : Obs.stamped list) =
  let inspect = ref 0.0
  and select = ref 0.0
  and execute = ref 0.0
  and inspect_n = ref 0
  and select_n = ref 0
  and execute_n = ref 0
  and rounds = ref 0
  and window_sum = ref 0
  and committed = ref 0
  and defeated = ref 0
  and adaptations = ref 0
  and spins = ref 0
  and parks = ref 0 in
  List.iter
    (fun { Obs.event; _ } ->
      match event with
      | Obs.Phase_time { phase = Obs.Inspect; dt_s; _ } ->
          inspect := !inspect +. dt_s;
          incr inspect_n
      | Obs.Phase_time { phase = Obs.Select; dt_s; _ } ->
          select := !select +. dt_s;
          incr select_n
      | Obs.Phase_time { phase = Obs.Execute; dt_s; _ } ->
          execute := !execute +. dt_s;
          incr execute_n
      | Obs.Round_begin { window; _ } ->
          incr rounds;
          window_sum := !window_sum + window
      | Obs.Select_done { committed = c; defeated = d; _ } ->
          committed := !committed + c;
          defeated := !defeated + d
      | Obs.Window_adapted _ -> incr adaptations
      | Obs.Worker_counters { spins = s; parks = p; _ } ->
          spins := !spins + s;
          parks := !parks + p
      | _ -> ())
    events;
  let wall =
    match events with
    | [] -> 0.0
    | first :: rest ->
        List.fold_left (fun _ (e : Obs.stamped) -> e.at_s) first.Obs.at_s rest
        -. first.Obs.at_s
  in
  let tracked = !inspect +. !select +. !execute in
  let other = Float.max 0.0 (wall -. tracked) in
  let share x =
    if wall <= 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. x /. wall)
  in
  let phase_row name time n =
    [ name; Analysis.Table.f4 time; share time; Analysis.Table.i n ]
  in
  let info_row name value = [ name; "-"; "-"; value ] in
  let attempts = !committed + !defeated in
  Analysis.Table.make
    ~header:[ "phase"; "time (s)"; "share"; "n" ]
    ([
       phase_row "inspect" !inspect !inspect_n;
       phase_row "select+execute" !select !select_n;
     ]
    @ (if !execute_n > 0 then [ phase_row "direct execute" !execute !execute_n ] else [])
    @ [
        [ "other (sort/select/glue)"; Analysis.Table.f4 other; share other; "-" ];
        [ "wall (first to last event)"; Analysis.Table.f4 wall; share wall; "-" ];
        info_row "rounds" (Analysis.Table.i !rounds);
        info_row "mean window"
          (if !rounds = 0 then "-"
           else Analysis.Table.f1 (float_of_int !window_sum /. float_of_int !rounds));
        info_row "commit ratio"
          (if attempts = 0 then "-"
           else Analysis.Table.f3 (float_of_int !committed /. float_of_int attempts));
        info_row "window adaptations" (Analysis.Table.i !adaptations);
        (* Pool sync split (non-deterministic, machine-load-sensitive):
           how many SPMD wakeups the bounded spin served vs. how many
           fell back to parking on the condvar. *)
        info_row "pool spins (fast wakeups)" (Analysis.Table.i !spins);
        info_row "pool parks (condvar waits)" (Analysis.Table.i !parks);
      ])

(* The traced-run figure: one deterministic bfs run with an in-memory
   sink, summarized by [phase_breakdown]. *)
let obs_phases t =
  let scale = t.data.Dataset.scale in
  Galois.Pool.with_pool ~domains:Dataset.run_threads (fun pool ->
      let g =
        Graphlib.Generators.kout ~seed:scale.Scale.seed ~n:scale.Scale.bfs_nodes
          ~k:scale.Scale.bfs_degree ()
      in
      let mem = Obs.Memory.create () in
      let _, _report =
        Galois.Run.solve ~sink:(Obs.Memory.sink mem)
          ~policy:(Galois.Policy.det Dataset.run_threads)
          ~pool (Apps.Bfs.plan g ~source:0)
      in
      phase_breakdown (Obs.Memory.contents mem))

let all_figures t =
  [
    ("fig4", "Task rates, abort ratios and rounds (m4x10)", fun () -> fig4 t);
    ("fig5", "Atomic update rates (m4x10)", fun () -> fig5 t);
    ("fig6", "CoreDet-style deterministic thread scheduling slowdowns", fun () -> fig6 t);
    ("fig7-m4x10", "Speedups over best sequential (m4x10)", fun () -> fig7 ~machine:Machine.m4x10 t);
    ("fig7-m4x6", "Speedups over best sequential (m4x6)", fun () -> fig7 ~machine:Machine.m4x6 t);
    ( "fig7-numa8x4",
      "Speedups over best sequential (numa8x4)",
      fun () -> fig7 ~machine:Machine.numa8x4 t );
    ("fig8", "Sequential baseline times", fun () -> fig8 t);
    ("fig9", "Performance relative to PBBS", fun () -> fig9 t);
    ("fig10", "Continuation-optimization ablation", fun () -> fig10 t);
    ("fig11", "DRAM requests (cache simulation)", fun () -> fig11 t);
    ("fig12", "Efficiency vs memory-counter model fit", fun () -> fig12 t);
    ("summary", "Headline medians (paper §5.3)", fun () -> summary t);
    ("ablation", "Design-choice ablations (§3.3 optimizations)", fun () -> ablation t);
    ("obs-phases", "Per-phase time breakdown of a traced deterministic bfs run", fun () ->
      obs_phases t);
  ]

let print_figure ?(oc = Fmt.stdout) t name =
  match List.find_opt (fun (n, _, _) -> n = name) (all_figures t) with
  | None -> Error (Printf.sprintf "unknown figure %S" name)
  | Some (n, title, f) ->
      Fmt.pf oc "@.== %s: %s ==@." n title;
      Analysis.Table.pp oc (f ());
      Ok ()

let print_all ?(oc = Fmt.stdout) t =
  List.iter
    (fun (n, title, f) ->
      Fmt.pf oc "@.== %s: %s ==@." n title;
      Analysis.Table.pp oc (f ()))
    (all_figures t)
