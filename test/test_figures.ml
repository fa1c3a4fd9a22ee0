(* End-to-end check of the figure harness at tiny scale: every figure
   renders, with the structurally expected rows, and key shape
   properties of the reproduction hold. *)

let data = lazy (Figures.Dataset.collect Figures.Scale.tiny)

let timings () = Figures.timings (Lazy.force data)

let test_dataset_complete () =
  let d = Lazy.force data in
  Alcotest.(check int) "five applications" 5 (List.length d.Figures.Dataset.apps);
  Alcotest.(check int) "three kernels" 3 (List.length d.kernels);
  List.iter
    (fun (app : Figures.Dataset.app) ->
      Alcotest.(check bool) (app.name ^ " has schedules") true
        (app.serial.schedule <> None && app.nondet.schedule <> None && app.det.schedule <> None))
    d.Figures.Dataset.apps

let test_all_figures_render () =
  let t = timings () in
  List.iter
    (fun (name, _, f) ->
      match f () with
      | _table -> ()
      | exception e ->
          Alcotest.failf "figure %s raised %s" name (Printexc.to_string e))
    (Figures.all_figures t)

let test_headline_shape () =
  (* The qualitative result of the paper must hold: non-deterministic
     beats handwritten deterministic beats generic deterministic, at max
     threads on m4x10 (medians across benchmarks). *)
  let t = timings () in
  let d = Lazy.force data in
  let m = Figures.Machine.m4x10 in
  List.iter
    (fun (app : Figures.Dataset.app) ->
      let tn = Figures.cell t m ~threads:40 app Figures.GN in
      let td = Figures.cell t m ~threads:40 app Figures.GD in
      if not (tn < td) then Alcotest.failf "%s: nondet (%g) not faster than det (%g)" app.name tn td)
    d.Figures.Dataset.apps

let test_det_slower_at_one_thread_than_serial () =
  let t = timings () in
  let d = Lazy.force data in
  let m = Figures.Machine.m4x10 in
  List.iter
    (fun (app : Figures.Dataset.app) ->
      let speedup1 = Figures.speedup t m ~threads:1 app Figures.GD in
      if speedup1 >= 1.0 then
        Alcotest.failf "%s: deterministic execution at 1 thread beats the sequential baseline"
          app.name)
    d.Figures.Dataset.apps

let test_coredet_contrast_in_fig6 () =
  let t = timings () in
  let workloads = Figures.fig6_workloads t in
  let slow name =
    let _, work, atomics = List.find (fun (n, _, _) -> n = name) workloads in
    Figures.Coredet_model.slowdown Figures.Machine.m4x10 ~threads:40 ~work ~atomics
  in
  Alcotest.(check bool) "blackscholes mild" true (slow "blackscholes" < 5.0);
  Alcotest.(check bool) "bfs heavy" true (slow "bfs" > 5.0);
  Alcotest.(check bool) "dmr heavy" true (slow "dmr" > 5.0)

let test_print_figure_unknown () =
  let t = timings () in
  match Figures.print_figure t "fig99" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown figure accepted"

let suite =
  [
    Alcotest.test_case "dataset is complete" `Slow test_dataset_complete;
    Alcotest.test_case "all figures render" `Slow test_all_figures_render;
    Alcotest.test_case "headline shape: g-n < g-d in time" `Slow test_headline_shape;
    Alcotest.test_case "det pays overhead at one thread" `Slow
      test_det_slower_at_one_thread_than_serial;
    Alcotest.test_case "coredet contrast" `Slow test_coredet_contrast_in_fig6;
    Alcotest.test_case "unknown figure rejected" `Slow test_print_figure_unknown;
  ]
