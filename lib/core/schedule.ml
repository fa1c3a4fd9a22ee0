(* Recorded execution structure.

   When recording is enabled, schedulers keep, for every executed task,
   its abstract cost (mark operations + user-reported work) and the ids
   of the locations it touched. The machine simulator (lib/simmachine)
   replays these records under machine cost models to regenerate the
   paper's scaling figures, and the cache simulator (lib/cachesim)
   replays the location streams for the locality study (Fig. 11). *)

type task_record = {
  acquires : int;  (* neighborhood size = number of mark operations *)
  inspect_work : int;  (* work units before the failsafe point (0 for flat) *)
  commit_work : int;  (* work units of the commit / full execution *)
  committed : bool;  (* false: failed selection or aborted attempt *)
  locks : int array;  (* location ids touched, in acquisition order *)
}

type t =
  | Rounds of task_record array list
      (* Deterministic execution: one array per round, in round order;
         each array lists the inspected window with commit outcomes. *)
  | Flat of task_record list
      (* Non-deterministic / serial execution: attempts in completion
         order (aborted attempts marked uncommitted). *)

let tasks = function
  | Rounds l -> List.concat_map Array.to_list l
  | Flat l -> l

let committed_tasks t = List.filter (fun r -> r.committed) (tasks t)

(* Structural digest of a recorded schedule: folds round boundaries and
   every task record's shape. Raw location ids are excluded (they come
   from a process-global counter, so two runs of the same program would
   disagree on them); the neighborhood sizes are already in [acquires].
   Two recordings with equal digests have the same round structure,
   costs and commit decisions. *)
let digest t =
  let fold_record d r =
    let d = Trace_digest.fold_int d r.acquires in
    let d = Trace_digest.fold_int d r.inspect_work in
    let d = Trace_digest.fold_int d r.commit_work in
    Trace_digest.fold_bool d r.committed
  in
  match t with
  | Rounds l ->
      List.fold_left
        (fun d round ->
          Array.fold_left fold_record (Trace_digest.fold_int d (Array.length round)) round)
        (Trace_digest.fold_bool Trace_digest.seed true)
        l
  | Flat l ->
      List.fold_left fold_record (Trace_digest.fold_bool Trace_digest.seed false) l
