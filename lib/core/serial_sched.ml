(* In-order sequential execution.

   Trivially deterministic; serves as the semantic reference that both
   parallel schedulers are tested against, and as the single-thread
   baseline of the evaluation. Observability events are emitted once at
   the end: there are no rounds, so the whole run is one Execute
   phase. *)

let run ?(record = false) ?(sink = Obs.null) ~operator items =
  let stats = Stats.make_worker () in
  let ctx = Context.create () in
  Context.set_stats ctx stats;
  let queue = Queue.create () in
  Array.iter (fun x -> Queue.add x queue) items;
  let records = ref [] in
  (* One lock epoch for the whole run; no pool, so spins/parks stay 0. *)
  let stamp = Lock.new_epoch () in
  let t0 = Clock.now_s () in
  while not (Queue.is_empty queue) do
    let item = Queue.pop queue in
    Context.reset ctx ~phase:Direct ~task_id:1 ~stamp ~saved:None;
    operator ctx item;
    (* No concurrency: Conflict cannot be raised, every task commits. *)
    let neighborhood = Context.neighborhood_count ctx in
    stats.atomic_updates <- stats.atomic_updates + neighborhood;
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
  let time_s = Clock.elapsed_s t0 in
  (* detlint: allow wall-clock — Obs.at_s is an absolute wall-clock timestamp; durations use Clock *)
  let emit event = sink.Obs.emit { Obs.at_s = Unix.gettimeofday (); event } in
  emit (Obs.Phase_time { round = 0; phase = Obs.Execute; dt_s = time_s });
  emit (Stats.counters_event 0 stats);
  let stats =
    Stats.merge ~threads:1 ~rounds:0 ~generations:0 ~time_s
      ~phases:(Stats.breakdown ~inspect_s:0.0 ~select_s:time_s ~time_s)
      [| stats |]
  in
  let schedule = if record then Some (Schedule.Flat (List.rev !records)) else None in
  (stats, schedule)
