(* Non-deterministic speculative scheduler (Fig. 1b).

   Each worker repeatedly takes an arbitrary task from the shared pool
   and executes it in [Direct] mode: acquisitions claim mark words
   exclusively, and losing any location raises [Conflict], upon which the
   worker rolls back (releases its marks — cheap, because cautious tasks
   have written nothing before the failsafe point) and requeues the task.

   Worker w uses task id w+1: ids need only be distinct among
   concurrently executing tasks (§2.1), and a worker runs one task at a
   time, releasing all marks in between. *)

let run ?(record = false) ?(sink = Obs.null) ?threads ~pool ~operator items =
  (* The policy's thread count rules; a larger shared pool just leaves
     the extra workers idle. *)
  let threads =
    match threads with
    | None -> Parallel.Domain_pool.size pool
    | Some t -> min t (Parallel.Domain_pool.size pool)
  in
  let workers = Array.init threads (fun _ -> Stats.make_worker ()) in
  let records = Array.make threads [] in
  let ws = Workset.create items in
  (* One lock epoch for the whole run: the speculative scheduler really
     releases its marks (rollback needs to), so staleness is not used,
     but stamped claims keep the fast path shared with the DIG rounds. *)
  let stamp = Lock.new_epoch () in
  let sync0 = Parallel.Domain_pool.sync_counters pool in
  let t0 = Clock.now_s () in
  Parallel.Domain_pool.run pool (fun w ->
      if w >= threads then ()
      else
      let stats = workers.(w) in
      let ctx = Context.create () in
      Context.set_stats ctx stats;
      let record_attempt ~committed =
        if record then
          records.(w) <-
            {
              Schedule.acquires = Context.neighborhood_count ctx;
              inspect_work = 0;
              commit_work = Context.work_units ctx;
              committed;
              locks = Array.map Lock.id (Context.neighborhood_array ctx);
            }
            :: records.(w)
      in
      (* Bounded exponential backoff after repeated conflicts: without
         it, a worker spinning against a long-running task burns its
         time slice re-aborting (classic speculative end-game, e.g.
         Boruvka's final components). *)
      let consecutive_aborts = ref 0 in
      let backoff () =
        incr consecutive_aborts;
        if !consecutive_aborts > 4 then
          Unix.sleepf (Float.min 0.001 (1e-6 *. float_of_int (1 lsl min 16 !consecutive_aborts)))
      in
      let rec loop () =
        match Workset.take ws with
        | None -> ()
        | Some item ->
            Context.reset ctx ~phase:Direct ~task_id:(w + 1) ~stamp ~saved:None;
            (match operator ctx item with
            | () ->
                consecutive_aborts := 0;
                (* Committed: release marks, publish created tasks. *)
                stats.atomic_updates <- stats.atomic_updates + Context.neighborhood_count ctx;
                record_attempt ~committed:true;
                Context.release_all ctx;
                Workset.push_new ws (Context.pushed_list ctx);
                stats.pushes <- stats.pushes + Context.pushed_count ctx;
                stats.work <- stats.work + Context.work_units ctx;
                stats.committed <- stats.committed + 1;
                Workset.complete ws
            | exception Context.Conflict ->
                (* Rollback: cautious tasks made no writes yet, so
                   releasing the marks undoes everything. *)
                stats.atomic_updates <- stats.atomic_updates + Context.neighborhood_count ctx;
                record_attempt ~committed:false;
                Context.release_all ctx;
                stats.aborted <- stats.aborted + 1;
                Workset.requeue ws item;
                backoff ());
            loop ()
      in
      loop ());
  let time_s = Clock.elapsed_s t0 in
  Stats.book_sync workers ~before:sync0 ~after:(Parallel.Domain_pool.sync_counters pool);
  (* detlint: allow wall-clock — Obs.at_s is an absolute wall-clock timestamp; durations use Clock *)
  let emit event = sink.Obs.emit { Obs.at_s = Unix.gettimeofday (); event } in
  emit (Obs.Phase_time { round = 0; phase = Obs.Execute; dt_s = time_s });
  Array.iteri (fun w st -> emit (Stats.counters_event w st)) workers;
  let stats =
    Stats.merge ~threads ~rounds:0 ~generations:0 ~time_s
      ~phases:(Stats.breakdown ~inspect_s:0.0 ~select_s:time_s ~time_s)
      workers
  in
  let schedule =
    if record then
      Some (Schedule.Flat (List.concat_map (fun l -> List.rev l) (Array.to_list records)))
    else None
  in
  (stats, schedule)
