(* [Run.report] under its older name. costbench/workload.ml names
   [Galois.Runtime.report], and the benchmark's sources stay unchanged
   so that its results compare across commits; this re-export keeps it
   building. Everything else uses [Galois.Run]. *)

type report = Run.report = {
  stats : Stats.t;
  schedule : Schedule.t option;
  trace : Obs.stamped list option;
  audit : Audit.report option;
}
