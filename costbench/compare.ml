(* [--compare BASE NEW]: judge every (workload, end-to-end metric) pair
   of two result sets by the bounds in BENCHMARK.json.

   - unresolved: either side's spread (IQR over median) is wider than
     the bound, unless every NEW run beats every BASE run;
   - worse: NEW's median is worse than BASE's by more than the bound;
   - better: NEW's median is better by more than BASE's spread and NEW
     wins at least 9 in 10 of the runs paired in order (ties count for
     neither side);
   - same: otherwise.

   A result set is what collect.py writes: {"runs": [{"workload": W,
   "seed": S, "result": <the benchmark's last output line>}, ...]}. *)

(* The metric's value in every run of [workload] that reports it. *)
let values set ~workload ~metric =
  List.filter_map
    (fun run ->
      if Json.string_field "workload" run <> workload then None
      else
        let metrics = Json.member "metrics" (Json.member "result" run) in
        try Some (Json.to_float (Json.member "value" (Json.member metric metrics)))
        with Json.Error _ -> None)
    (Json.to_list (Json.member "runs" set))

let verdict ~lower ~bound base fresh =
  let beats a b = if lower then a < b else a > b in
  let mb = Analysis.Summary.median base and mf = Analysis.Summary.median fresh in
  let worse_by = (if lower then mf -. mb else mb -. mf) /. Float.abs mb in
  let every_run_better = List.for_all (fun f -> List.for_all (beats f) base) fresh in
  let rec pairs a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []
  in
  let paired = pairs fresh base in
  let wins = List.length (List.filter (fun (f, b) -> beats f b) paired) in
  if Float.max (Sample.spread base) (Sample.spread fresh) > bound then
    if every_run_better then "better" else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by > Sample.spread base && 10 * wins >= 9 * List.length paired then "better"
  else "same"

let run ~spec base_path fresh_path =
  let base = Json.of_file base_path and fresh = Json.of_file fresh_path in
  let name = Json.string_field "name" in
  let workloads = List.map name (Json.to_list (Json.member "workloads" spec)) in
  let metrics = Json.to_list (Json.member "end_to_end" spec) in
  Printf.printf "%-16s %-24s %12s %7s %12s %7s %8s %7s  %s\n" "workload" "metric" "base" "spread"
    "new" "spread" "change" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let metric = name m in
          let lower = Json.string_field "better" m = "lower" in
          let bound = Json.to_float (Json.member "bound" m) in
          match (values base ~workload ~metric, values fresh ~workload ~metric) with
          | [], _ | _, [] ->
              Printf.printf "%-16s %-24s %s\n" workload metric "missing"
          | b, f ->
              let v = verdict ~lower ~bound b f in
              if v = "worse" then incr worse;
              let mb = Analysis.Summary.median b and mf = Analysis.Summary.median f in
              Printf.printf "%-16s %-24s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %6.1f%%  %s\n"
                workload metric mb (100.0 *. Sample.spread b) mf (100.0 *. Sample.spread f)
                (100.0 *. (mf -. mb) /. Float.abs mb) (100.0 *. bound) v)
        metrics)
    workloads;
  if !worse > 0 then 1 else 0
