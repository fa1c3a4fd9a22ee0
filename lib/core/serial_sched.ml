(* In-order sequential execution.

   Trivially deterministic; serves as the semantic reference that both
   parallel schedulers are tested against, and as the single-thread
   baseline of the evaluation. Observability events are emitted once at
   the end: there are no rounds, so the whole run is one Execute
   phase, timed only when a sink is attached. *)

let run ?(record = false) ?(sink = Obs.null) ~operator items =
  let stats = Obs.counters 0 in
  let ctx = Context.create () in
  Context.set_stats ctx stats;
  let queue = Queue.create () in
  Array.iter (fun x -> Queue.add x queue) items;
  let records = ref [] in
  (* One lock epoch for the whole run; no pool, so spins/parks stay 0. *)
  let stamp = Lock.new_epoch () in
  let tracing = not (Obs.Sink.is_null sink) in
  let t0 = if tracing then Clock.now_s () else 0.0 in
  while not (Queue.is_empty queue) do
    let item = Queue.pop queue in
    Context.reset ctx ~phase:Direct ~task_id:1 ~stamp ~saved:None;
    operator ctx item;
    (* No concurrency: Conflict cannot be raised, every task commits. *)
    let neighborhood = Context.neighborhood_count ctx in
    stats.atomics <- stats.atomics + neighborhood;
    if record then
      records :=
        {
          Schedule.acquires = neighborhood;
          inspect_work = 0;
          commit_work = Context.work_units ctx;
          committed = true;
          locks = Array.map Lock.id (Context.neighborhood_array ctx);
        }
        :: !records;
    Context.release_all ctx;
    List.iter (fun c -> Queue.add c queue) (Context.pushed_list ctx);
    stats.pushes <- stats.pushes + Context.pushed_count ctx;
    stats.work <- stats.work + Context.work_units ctx;
    stats.committed <- stats.committed + 1
  done;
  if tracing then begin
    let dt_s = Clock.elapsed_s t0 in
    sink.Obs.emit (Clock.stamp (Obs.Phase_time { round = 0; phase = Obs.Execute; dt_s }));
    sink.Obs.emit (Clock.stamp (Stats.counters_event stats))
  end;
  let stats = Stats.merge ~threads:1 ~rounds:0 ~generations:0 [| stats |] in
  let schedule = if record then Some (Schedule.Flat (List.rev !records)) else None in
  (stats, schedule)
