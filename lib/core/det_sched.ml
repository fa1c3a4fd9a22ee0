(* Deterministic interference-graph (DIG) scheduling — Fig. 2 and Fig. 3
   of the paper, with all three §3.3 optimizations.

   Execution proceeds in generations (one per deterministic sort of the
   [todo] set) and rounds within a generation. Each round:

     inspect        run a deterministically chosen window of tasks up to
                    their failsafe points, marking neighborhoods with
                    [writeMarksMax]. The final mark of a location is the
                    max id among touching tasks regardless of timing, so
                    the implicitly built interference graph — and the
                    selected independent set — are deterministic.

     selectAndExec  a task commits iff its defeat flag is clear, which is
                    provably equivalent to "all its marks still carry its
                    id" (the flag is set either by the task that displaced
                    our mark, or by ourselves when we observe a higher
                    mark; marks only grow within a round). Committed
                    tasks run their write phase; failed tasks keep their
                    place ahead of untried tasks, preserving id order.

   Determinism argument, in code terms: the window contents are a prefix
   of a deterministically ordered sequence; the marks after inspect are a
   max-fold over a deterministic set; the selected set is therefore
   unique; committed tasks have pairwise-disjoint neighborhoods, so their
   write phases commute; and children ids come from a lexicographic
   (parent id, birth index) sort, independent of which worker ran what.
   The window size for the next round depends only on the (deterministic)
   commit count — the paper's parameterless adaptive windowing.

   Steady-state rounds are allocation-free and release-free: the pending
   set is an in-place [Pending] deque over the generation array (window =
   index range, descending compaction), the defeat table is a flat array
   indexed by [id - generation base] (generation ids are dense) with
   round stamps instead of per-round clearing, tasks reuse their
   neighborhood / child arrays across retries via the [Context] scratch
   buffers, children accumulate in flat per-worker [Child_buffer]s
   instead of consed lists, and every round claims marks under a fresh
   [Lock] epoch — marks surviving the previous round are stale by
   construction, so the former end-of-select [Lock.release] pass (one CAS
   per held lock per task per round) is gone entirely. The schedule
   itself is bit-for-bit the one the original list-based implementation
   produced — test/test_digest_fixture.ml pins it. *)

type ('item, 'state) task = {
  item : 'item;
  id : int;
  (* Defeat flag (§3.3). Written concurrently during inspect, but only
     ever from [true] to [false] (an idempotent immediate), so the plain
     racy write is benign; the pool barrier publishes it before the
     commit phase reads it. *)
  mutable alive : bool;
  (* First [n_locks] entries are this round's neighborhood, in
     acquisition order; capacity is reused across retries. *)
  mutable neighborhood : Lock.t array;
  mutable n_locks : int;
  mutable saved : 'state option;
  mutable pure : bool;  (* inspect finished without reaching a failsafe *)
  mutable pure_children : 'item array;  (* first [n_pure_children], push order *)
  mutable n_pure_children : int;
  mutable task_work : int;  (* inspect-phase (prefix) work units *)
  mutable commit_work : int;  (* commit-phase work units *)
}

let make_task id item =
  {
    item;
    id;
    alive = true;
    neighborhood = [||];
    n_locks = 0;
    saved = None;
    pure = false;
    pure_children = [||];
    n_pure_children = 0;
    task_work = 0;
    commit_work = 0;
  }

(* §3.3 locality spread: deal a sequence into [spread] strided piles so
   that tasks adjacent in iteration order (likely to share neighborhoods)
   land in different rounds. A fixed constant permutation — deterministic
   and machine-independent. *)
let spread_permute spread arr =
  let n = Array.length arr in
  if spread <= 1 || n <= spread then arr
  else begin
    let out = Array.make n arr.(0) in
    let idx = ref 0 in
    for pile = 0 to spread - 1 do
      let i = ref pile in
      while !i < n do
        out.(!idx) <- arr.(!i);
        incr idx;
        i := !i + spread
      done
    done;
    out
  end

(* The parameterless window controller (§3.1): growth on a good round,
   proportional shrink (with a floor) on a bad one. Exposed for the
   property tests; must stay bit-identical to the original inline
   computation — the adapted sizes feed the round-trace digest. *)
let adapt_window ~target_ratio ~window ~committed ~w_use =
  let ratio = float_of_int committed /. float_of_int w_use in
  if ratio >= target_ratio then min (window * 2) (1 lsl 22)
  else max 32 (int_of_float (float_of_int window *. ratio /. target_ratio) + 1)

(* Deterministic id assignment (§3.2). Children are sorted by
   (parent id, birth index) — unique per child, so the order is total
   and independent of which worker buffered what. Ids are the sorted
   ranks offset by a counter that grows monotonically across
   generations. With [static_id], ids come from the application's fixed
   task universe instead (§3.3, third optimization) and duplicates
   collapse to a single task. Either way the assigned ids are dense in
   [base, base + count) — the defeat table below indexes on exactly
   that.

   Returns tasks in id order; the caller applies the spread permutation
   (unordered generations) or the bucket layout (soft-priority
   generations) on top. *)
let form_generation ~static_id ~next_id (todo : 'item Child_buffer.t) =
  let n = Child_buffer.length todo in
  if n = 0 then [||]
  else
    match static_id with
    | Some key_of ->
        let arr =
          Array.init n (fun i ->
              let item = Child_buffer.item todo i in
              (key_of item, item))
        in
        Array.sort (fun (a, _) (b, _) -> compare a b) arr;
        let tasks = ref [] and count = ref 0 in
        Array.iteri
          (fun i (key, item) ->
            let duplicate = i > 0 && fst arr.(i - 1) = key in
            if not duplicate then begin
              incr count;
              tasks := item :: !tasks
            end)
          arr;
        let base = !next_id in
        next_id := base + !count;
        let out = Array.of_list (List.rev !tasks) in
        Array.mapi (fun i item -> make_task (base + i) item) out
    | None ->
        let idx = Array.init n (fun i -> i) in
        Array.sort
          (fun i j ->
            let p1 = Child_buffer.parent todo i and p2 = Child_buffer.parent todo j in
            if p1 <> p2 then compare (p1 : int) p2
            else
              compare
                (Child_buffer.birth todo i : int)
                (Child_buffer.birth todo j))
          idx;
        let base = !next_id in
        next_id := base + n;
        Array.mapi (fun r i -> make_task (base + r) (Child_buffer.item todo i)) idx

(* Delta-stepping bucket index with floor semantics, so negative
   priorities order correctly below zero instead of folding onto
   bucket 0. *)
let bucket_of ~delta p = if p >= 0 then p / delta else -(((-p) + delta - 1) / delta)

(* Per-generation automatic delta: spread the priority span over ~64
   buckets. A pure function of the generation's priorities, so [auto]
   is as deterministic as an explicit delta. *)
let auto_delta prios =
  let pmin = ref prios.(0) and pmax = ref prios.(0) in
  Array.iter
    (fun p ->
      if p < !pmin then pmin := p;
      if p > !pmax then pmax := p)
    prios;
  max 1 (((!pmax - !pmin) / 64) + 1)

(* Lay an id-ordered generation out as contiguous delta-stepping bucket
   runs: stable-sort by bucket (ties by position, i.e. id), group equal
   buckets, and spread-permute each run on its own — windows never
   straddle a bucket, so the permutation must not either. Returns the
   reordered tasks, the [(bucket, size)] run table and the delta used. *)
let bucketize ~mode ~spread ~priority generation =
  let n = Array.length generation in
  let prios = Array.map (fun t -> priority t.item) generation in
  let delta =
    match mode with
    | Policy.Prio_delta d -> d
    | Policy.Prio_auto -> auto_delta prios
    | Policy.Prio_off -> invalid_arg "Det_sched.bucketize: prio=off"
  in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let bi = bucket_of ~delta prios.(i) and bj = bucket_of ~delta prios.(j) in
      if bi <> bj then compare bi bj else compare i j)
    idx;
  let out = Array.map (fun i -> generation.(i)) idx in
  let runs = ref [] in
  let start = ref 0 in
  for i = 1 to n do
    if i = n || bucket_of ~delta prios.(idx.(i)) <> bucket_of ~delta prios.(idx.(!start))
    then begin
      let len = i - !start in
      runs := (bucket_of ~delta prios.(idx.(!start)), len) :: !runs;
      Array.blit (spread_permute spread (Array.sub out !start len)) 0 out !start len;
      start := i
    end
  done;
  (out, Array.of_list (List.rev !runs), delta)

(* Guided chunk size for dynamic parallel iteration: aim for several
   grabs per worker (cheap load balancing against uneven task costs)
   without letting tiny windows degenerate into per-index contention on
   the shared counter. *)
let chunk_for ~threads n = max 4 (min 1024 (n / (threads * 8)))

(* Chunked dynamic parallel iteration over [0, n). Assignment of indices
   to workers is timing-dependent; nothing the workers compute depends on
   it. Each grab bumps the grabbing worker's [chunks] counter. *)
let par_iter pool ~threads ~workers n f =
  let counter = Atomic.make 0 in
  let chunk = chunk_for ~threads n in
  Parallel.Domain_pool.run pool (fun w ->
      if w >= threads then ()
      else
      let continue_ = ref true in
      while !continue_ do
        let start = Atomic.fetch_and_add counter chunk in
        if start >= n then continue_ := false
        else begin
          workers.(w).Stats.chunks <- workers.(w).Stats.chunks + 1;
          for i = start to min (start + chunk) n - 1 do
            f w i
          done
        end
      done)

(* Round-boundary scheduler state (checkpoint/replay). Everything the
   main loop needs to restart at the exact round the boundary was taken
   after: the monotonic counters, the adaptive window, the digest
   prefix, the pending deque contents (in deque order — the spread
   permutation means this is *not* id order) and the child buffer of
   the current generation (children accumulate across rounds, so a
   mid-generation boundary must carry them). The six [b_*] counters are
   the deterministic subset of the worker counters, carried
   cumulatively; timing-dependent counters (atomics, chunks, spins,
   parks) and wall-clock restart from zero on resume. *)
type 'item boundary = {
  b_rounds : int;
  b_generations : int;
  b_next_id : int;
  b_gen_base : int;
  b_window : int;  (* the *next* round's window (already adapted) *)
  b_delta : int;
      (* bucket width of the current soft-priority generation; 0 when
         the generation is unordered (prio=off) or fully drained. Resume
         recomputes each pending task's bucket from its priority and
         this delta, so the run table does not need to be serialized. *)
  b_digest : Trace_digest.t;
  b_pending_ids : int array;  (* task ids, in pending-deque order *)
  b_pending_items : 'item array;
  b_todo_parents : int array;
  b_todo_births : int array;
  b_todo_items : 'item array;
  b_commits : int;
  b_aborts : int;
  b_acquired : int;
  b_work : int;
  b_created : int;
  b_inspected : int;
}

let run ?(record = false) ?(sink = Obs.null) ?audit ?checkpoint ?resume ?stop_after
    ?threads ?priority ~pool ~options ~static_id ~operator items =
  let { Policy.target_ratio; initial_window; spread; continuation; validate;
        priority = prio_mode } =
    options
  in
  (* Soft-priority mode without an application priority function still
     works: every task lands in bucket 0 (a single run per generation). *)
  let prio_of = match priority with Some f -> f | None -> fun _ -> 0 in
  (match checkpoint with
  | Some (every, _) when every < 1 ->
      invalid_arg "Det_sched.run: checkpoint cadence must be >= 1"
  | _ -> ());
  (match stop_after with
  | Some r when r < 1 -> invalid_arg "Det_sched.run: stop_after round must be >= 1"
  | _ -> ());
  (* All events are emitted from the sequential glue between parallel
     phases, so sinks never see concurrent calls. Every event field
     except the [Phase_time]/[Chunk_sized]/[Worker_counters] ones is
     deterministic — detcheck compares the rendered deterministic stream
     byte-for-byte across thread counts. *)
  let tracing = sink != Obs.null in
  (* detlint: allow wall-clock — Obs.at_s is an absolute wall-clock timestamp; durations use Clock *)
  let emit event = sink.Obs.emit { Obs.at_s = Unix.gettimeofday (); event } in
  let inspect_s = ref 0.0 and select_s = ref 0.0 in
  (* The policy's thread count rules; extra pool workers stay idle. *)
  let threads =
    match threads with
    | None -> Parallel.Domain_pool.size pool
    | Some t -> min t (Parallel.Domain_pool.size pool)
  in
  let workers = Array.init threads (fun _ -> Stats.make_worker ()) in
  let contexts =
    Array.init threads (fun w ->
        let ctx = Context.create () in
        Context.set_stats ctx workers.(w);
        (match audit with
        | None -> ()
        | Some a -> Context.set_tape ctx (Some (Audit.tape a w)));
        ctx)
  in
  let sync0 = Parallel.Domain_pool.sync_counters pool in
  let rounds = ref 0 and generations = ref 0 in
  let next_id = ref 1 in
  (* Defeat table: generation ids are dense in [gen_base, gen_base +
     count), so [id - gen_base] indexes a flat array. Slots are stamped
     with the round that registered them instead of being cleared —
     [rounds] only grows, so a stale stamp can never match. Reads during
     inspect race only with other reads; registration happens in the
     sequential window setup. *)
  let gen_base = ref 1 in
  let slot_task = ref ([||] : ('item, 'state) task array) in
  let slot_round = ref ([||] : int array) in
  let defeat id =
    let s = id - !gen_base in
    if s >= 0 && s < Array.length !slot_round && !slot_round.(s) = !rounds then
      !slot_task.(s).alive <- false
    else
      (* Each round marks under its own fresh lock epoch, so a displaced
         id must belong to the current window. *)
      assert false
  in
  let round_records = ref [] in
  (* Round-trace digest: every quantity folded below is deterministic by
     the argument in the header comment, so the digest is a pure function
     of the input and the scheduling options — any dependence on thread
     count or timing shows up as a digest mismatch. Task ids (not items)
     are folded: ids already encode the deterministic creation order.
     Lock/location ids are deliberately excluded — they come from a
     process-global counter and would differ between two runs in the same
     process. *)
  let digest = ref Trace_digest.seed in
  (* Per-worker flat buffers of (parent id, birth index, item) triples,
     drained into [todo] by the sequential glue each round. *)
  let child_buffers = Array.init threads (fun _ -> Child_buffer.create ()) in
  let todo = Child_buffer.create () in
  let pending = Pending.create () in
  let window = ref 0 in
  (* Bucket width of the current generation (0 = unordered) and the
     number of soft-priority runs opened so far. Opening a run folds its
     bucket index and size into the digest — the bucket layout is a pure
     function of (ids, priorities, delta), so this keeps the digest a
     schedule commitment under [prio] too. *)
  let cur_delta = ref 0 in
  let buckets_opened = ref 0 in
  let open_run () =
    match Pending.current_run pending with
    | None -> ()
    | Some (bucket, size) ->
        incr buckets_opened;
        digest := Trace_digest.fold_int !digest bucket;
        digest := Trace_digest.fold_int !digest size;
        if tracing then
          emit (Obs.Bucket_opened { generation = !generations; bucket; size })
  in
  (* Cumulative deterministic counters carried over from the run a
     resume boundary was captured in. *)
  let carry_commits = ref 0
  and carry_aborts = ref 0
  and carry_acquired = ref 0
  and carry_work = ref 0
  and carry_created = ref 0
  and carry_inspected = ref 0 in
  (match resume with
  | None -> Array.iteri (fun i item -> Child_buffer.push todo ~parent:0 ~birth:i item) items
  | Some b ->
      if b.b_gen_base > b.b_next_id || b.b_rounds < 0 || b.b_window < 0 then
        invalid_arg "Det_sched.run: inconsistent resume boundary";
      if Array.length b.b_pending_ids <> Array.length b.b_pending_items then
        invalid_arg "Det_sched.run: resume boundary id/item arrays disagree";
      rounds := b.b_rounds;
      generations := b.b_generations;
      next_id := b.b_next_id;
      gen_base := b.b_gen_base;
      window := b.b_window;
      digest := b.b_digest;
      carry_commits := b.b_commits;
      carry_aborts := b.b_aborts;
      carry_acquired := b.b_acquired;
      carry_work := b.b_work;
      carry_created := b.b_created;
      carry_inspected := b.b_inspected;
      Array.iteri
        (fun i item ->
          Child_buffer.push todo ~parent:b.b_todo_parents.(i) ~birth:b.b_todo_births.(i)
            item)
        b.b_todo_items;
      let n = Array.length b.b_pending_items in
      if n > 0 then begin
        Array.iter
          (fun id ->
            if id < !gen_base || id >= !next_id then
              invalid_arg "Det_sched.run: resume boundary pending id out of generation")
          b.b_pending_ids;
        (* Rebuild the current generation's pending suffix in captured
           deque order (spread-permuted, not id order). *)
        let generation =
          Array.init n (fun i -> make_task b.b_pending_ids.(i) b.b_pending_items.(i))
        in
        if b.b_delta > 0 then begin
          (* Soft-priority generation: the captured deque order is
             run-contiguous (windows never straddle runs), so grouping
             consecutive equal buckets reconstructs the run table. The
             current run was already opened (and digest-folded) before
             the boundary, so it is not re-opened here. *)
          let bucket i = bucket_of ~delta:b.b_delta (prio_of generation.(i).item) in
          let runs = ref [] in
          let start = ref 0 in
          for i = 1 to n do
            if i = n || bucket i <> bucket !start then begin
              runs := (bucket !start, i - !start) :: !runs;
              start := i
            end
          done;
          Pending.load_runs pending generation (Array.of_list (List.rev !runs));
          cur_delta := b.b_delta
        end
        else Pending.load pending generation;
        let need = !next_id - !gen_base in
        if need > Array.length !slot_round then begin
          slot_task := Array.make need generation.(0);
          slot_round := Array.make need 0
        end
      end;
      if tracing then
        emit (Obs.Resumed { round = b.b_rounds; digest = Trace_digest.to_hex b.b_digest }));
  (* Capture the state a resume needs to replay round [!rounds + 1]
     onward. Called from the sequential glue only, after compaction and
     window adaptation — [!window] is the next round's window. *)
  let capture () =
    let np = Pending.length pending in
    let nt = Child_buffer.length todo in
    let sum carry f = Array.fold_left (fun a w -> a + f w) carry workers in
    {
      b_rounds = !rounds;
      b_generations = !generations;
      b_next_id = !next_id;
      b_gen_base = !gen_base;
      b_window = !window;
      b_delta = (if np = 0 then 0 else !cur_delta);
      b_digest = !digest;
      b_pending_ids = Array.init np (fun i -> (Pending.get pending i).id);
      b_pending_items = Array.init np (fun i -> (Pending.get pending i).item);
      b_todo_parents = Array.init nt (Child_buffer.parent todo);
      b_todo_births = Array.init nt (Child_buffer.birth todo);
      b_todo_items = Array.init nt (Child_buffer.item todo);
      b_commits = sum !carry_commits (fun w -> w.Stats.committed);
      b_aborts = sum !carry_aborts (fun w -> w.Stats.aborted);
      b_acquired = sum !carry_acquired (fun w -> w.Stats.acquires);
      b_work = sum !carry_work (fun w -> w.Stats.work);
      b_created = sum !carry_created (fun w -> w.Stats.pushes);
      b_inspected = sum !carry_inspected (fun w -> w.Stats.inspections);
    }
  in
  let stop = ref false in
  let t0 = Clock.now_s () in
  (* One iteration per round. A generation boundary is just a round
     whose pending deque starts empty: the prologue then forms the next
     generation, exactly as the former nested loops did — the digest
     fold and event sequence of an uninterrupted run are bit-identical
     (test/test_digest_fixture.ml pins them). The flat shape is what
     lets a resume re-enter mid-generation. *)
  while (not !stop) && (Pending.length pending > 0 || Child_buffer.length todo > 0) do
    if Pending.length pending = 0 then begin
      incr generations;
      let generation = form_generation ~static_id ~next_id todo in
      Child_buffer.clear todo;
      let gen_len = Array.length generation in
      gen_base := !next_id - gen_len;
      if gen_len > Array.length !slot_round && gen_len > 0 then begin
        slot_task := Array.make gen_len generation.(0);
        slot_round := Array.make gen_len 0
      end;
      (match prio_mode with
      | Policy.Prio_off ->
          cur_delta := 0;
          Pending.load pending (spread_permute spread generation)
      | _ when gen_len = 0 ->
          cur_delta := 0;
          Pending.load pending generation
      | mode ->
          let laid_out, runs, delta = bucketize ~mode ~spread ~priority:prio_of generation in
          cur_delta := delta;
          Pending.load_runs pending laid_out runs);
      digest := Trace_digest.fold_int !digest gen_len;
      if !cur_delta > 0 then digest := Trace_digest.fold_int !digest !cur_delta;
      if tracing then
        emit (Obs.Generation_begin { generation = !generations; tasks = gen_len });
      (* The first run of a soft-priority generation opens (and is
         digest-folded) as part of generation formation; later runs open
         as their predecessors drain. *)
      open_run ();
      if !window = 0 then
        window :=
          (match initial_window with Some w -> max 1 w | None -> max 32 ((gen_len + 7) / 8))
    end;
    incr rounds;
    (* A fresh lock epoch per round: every mark the previous round
       left behind is stale — free by construction — for this round's
       claims, which is what lets selectAndExec skip releasing. *)
    let stamp = Lock.new_epoch () in
    (* --- calculateWindow / getWindowOfTasks ---------------------
       Under soft-priority scheduling the window is additionally capped
       at the current bucket run: rounds never mix buckets. *)
    let w_use = min !window (Pending.window_avail pending) in
    for i = 0 to w_use - 1 do
      let t = Pending.get pending i in
      t.alive <- true;
      t.pure <- false;
      t.n_pure_children <- 0;
      t.saved <- None;
      t.commit_work <- 0;
      let s = t.id - !gen_base in
      !slot_task.(s) <- t;
      !slot_round.(s) <- !rounds
    done;
    if tracing then begin
      emit (Obs.Round_begin { round = !rounds; window = w_use });
      emit
        (Obs.Chunk_sized
           { round = !rounds; tasks = w_use; chunk = chunk_for ~threads w_use })
    end;
    (* --- inspect ------------------------------------------------- *)
    let t_inspect = Clock.now_s () in
    par_iter pool ~threads ~workers w_use (fun w i ->
        let ctx = contexts.(w) in
        let t = Pending.get pending i in
        Context.reset ctx ~phase:Inspect ~task_id:t.id ~stamp ~saved:None;
        Context.set_on_defeat ctx defeat;
        workers.(w).inspections <- workers.(w).inspections + 1;
        (match operator ctx t.item with
        | () ->
            (* No failsafe point reached: a read-only task. Its whole
               execution — including pushes — happened now; commit just
               publishes the children if selected. *)
            t.pure <- true;
            t.pure_children <- Context.pushed_into ctx t.pure_children;
            t.n_pure_children <- Context.pushed_count ctx
        | exception Context.Failsafe_reached -> ());
        t.neighborhood <- Context.neighborhood_into ctx t.neighborhood;
        t.n_locks <- Context.neighborhood_count ctx;
        t.task_work <- Context.work_units ctx;
        if continuation then t.saved <- Context.saved ctx);
    let dt_inspect = Clock.elapsed_s t_inspect in
    inspect_s := !inspect_s +. dt_inspect;
    if tracing then begin
      let marked = ref 0 and saved = ref 0 in
      for i = 0 to w_use - 1 do
        let t = Pending.get pending i in
        marked := !marked + t.n_locks;
        if Option.is_some t.saved then incr saved
      done;
      emit
        (Obs.Inspect_done
           { round = !rounds; marked = !marked; saved_continuations = !saved });
      emit
        (Obs.Phase_time { round = !rounds; phase = Obs.Inspect; dt_s = dt_inspect })
    end;
    (* --- selectAndExec --------------------------------------------
       Surviving marks are NOT released: the next round's fresh epoch
       makes them stale wholesale, deleting one CAS per held lock per
       task per round from the former mark-clearing pass. *)
    let t_select = Clock.now_s () in
    par_iter pool ~threads ~workers w_use (fun w i ->
        let stats = workers.(w) in
        let ctx = contexts.(w) in
        let buf = child_buffers.(w) in
        let t = Pending.get pending i in
        let selected = t.alive in
        if validate then begin
          let marks_ok = ref true in
          for k = 0 to t.n_locks - 1 do
            if not (Lock.holds t.neighborhood.(k) ~stamp t.id) then
              marks_ok := false
          done;
          if selected <> !marks_ok then
            failwith "Det_sched: defeat flags disagree with neighborhood marks"
        end;
        if selected then begin
          if t.pure then begin
            for k = 0 to t.n_pure_children - 1 do
              Child_buffer.push buf ~parent:t.id ~birth:k t.pure_children.(k)
            done;
            stats.pushes <- stats.pushes + t.n_pure_children;
            stats.work <- stats.work + t.task_work
          end
          else begin
            Context.reset ctx ~phase:Commit ~task_id:t.id ~stamp ~saved:t.saved;
            operator ctx t.item;
            stats.work <- stats.work + Context.work_units ctx;
            t.commit_work <- Context.work_units ctx;
            let n = Context.pushed_count ctx in
            for k = 0 to n - 1 do
              Child_buffer.push buf ~parent:t.id ~birth:k (Context.pushed_get ctx k)
            done;
            stats.pushes <- stats.pushes + n
          end;
          stats.committed <- stats.committed + 1
        end
        else stats.aborted <- stats.aborted + 1);
    let dt_select = Clock.elapsed_s t_select in
    select_s := !select_s +. dt_select;
    (* --- sequential glue between rounds ---------------------------
       [alive] still says which tasks were selected: defeat flags only
       change during inspect. *)
    let n_committed = ref 0 in
    digest := Trace_digest.fold_int !digest w_use;
    for i = 0 to w_use - 1 do
      let t = Pending.get pending i in
      if t.alive then begin
        incr n_committed;
        digest := Trace_digest.fold_int !digest t.id
      end
    done;
    digest := Trace_digest.fold_int !digest !n_committed;
    (* Dynamic determinism audit: drain the access tapes and check
       cautiousness / containment / round-level races against the
       committed set, before the pending deque is compacted. *)
    (match audit with
    | None -> ()
    | Some a ->
        let ids = Array.make !n_committed 0 in
        let k = ref 0 in
        for i = 0 to w_use - 1 do
          let t = Pending.get pending i in
          if t.alive then begin
            ids.(!k) <- t.id;
            incr k
          end
        done;
        Array.sort compare ids;
        let fresh = Audit.end_round a ~round:!rounds ~inspected:w_use ~committed:ids in
        if tracing then
          List.iter
            (fun (f : Audit.finding) ->
              emit
                (Obs.Audit_finding
                   { round = f.Audit.round; rule = Audit.rule_name f.Audit.rule;
                     task = f.Audit.task; other = f.Audit.other; lid = f.Audit.lid }))
            fresh);
    let round_pushes = ref 0 in
    for w = 0 to threads - 1 do
      round_pushes := !round_pushes + Child_buffer.length child_buffers.(w);
      Child_buffer.transfer ~into:todo child_buffers.(w)
    done;
    if tracing then begin
      emit
        (Obs.Select_done
           { round = !rounds; committed = !n_committed;
             defeated = w_use - !n_committed });
      emit (Obs.Phase_time { round = !rounds; phase = Obs.Select; dt_s = dt_select });
      let exec_work = ref 0 in
      for i = 0 to w_use - 1 do
        let t = Pending.get pending i in
        if t.alive then
          exec_work := !exec_work + (if t.pure then t.task_work else t.commit_work)
      done;
      emit
        (Obs.Execute_done
           { round = !rounds; work = !exec_work; pushes = !round_pushes })
    end;
    if record then begin
      let round_rec =
        Array.init w_use (fun i ->
            let t = Pending.get pending i in
            {
              Schedule.acquires = t.n_locks;
              inspect_work = t.task_work;
              commit_work = t.commit_work;
              committed = t.alive;
              locks = Array.init t.n_locks (fun k -> Lock.id t.neighborhood.(k));
            })
      in
      round_records := round_rec :: !round_records
    end;
    (* Failed tasks precede the untried remainder: they came from the
       window prefix, so the in-place compaction keeps the pending
       sequence in id order. *)
    let dropped =
      Pending.compact pending ~w_use ~keep:(fun i ->
          not (Pending.get pending i).alive)
    in
    assert (dropped = !n_committed);
    (* Soft-priority run accounting: when the commits drained the
       current bucket run, open the next one — so every round boundary
       with pending tasks already has its run open, which is what lets a
       checkpoint carry just [b_delta]. *)
    (match Pending.note_dropped pending dropped with
    | None -> ()
    | Some bucket ->
        if tracing then emit (Obs.Bucket_drained { round = !rounds; bucket });
        open_run ());
    let old_w = !window in
    window := adapt_window ~target_ratio ~window:old_w ~committed:!n_committed ~w_use;
    if tracing && !window <> old_w then
      emit
        (Obs.Window_adapted
           { old_w; new_w = !window;
             ratio = float_of_int !n_committed /. float_of_int w_use });
    (* --- round boundary: checkpoint / replay stop ----------------- *)
    (match checkpoint with
    | Some (every, f) when !rounds mod every = 0 ->
        if tracing then
          emit
            (Obs.Checkpoint_taken
               { round = !rounds; digest = Trace_digest.to_hex !digest });
        f (capture ())
    | _ -> ());
    match stop_after with Some r when !rounds >= r -> stop := true | _ -> ()
  done;
  let time_s = Clock.elapsed_s t0 in
  Stats.book_sync workers ~before:sync0 ~after:(Parallel.Domain_pool.sync_counters pool);
  if tracing then Array.iteri (fun w st -> emit (Stats.counters_event w st)) workers;
  let stats =
    Stats.merge ~digest:!digest ~threads ~rounds:!rounds ~generations:!generations
      ~buckets:!buckets_opened ~time_s
      ~phases:(Stats.breakdown ~inspect_s:!inspect_s ~select_s:!select_s ~time_s)
      workers
  in
  (* Fold in the deterministic counters from before the resume boundary,
     so a resumed run reports run-so-far totals; rounds, generations and
     the digest are already cumulative through the seeded refs. All
     carries are zero on a fresh run. *)
  let stats =
    {
      stats with
      Stats.commits = stats.Stats.commits + !carry_commits;
      aborts = stats.Stats.aborts + !carry_aborts;
      acquired = stats.Stats.acquired + !carry_acquired;
      work_units = stats.Stats.work_units + !carry_work;
      created = stats.Stats.created + !carry_created;
      inspected = stats.Stats.inspected + !carry_inspected;
    }
  in
  let schedule = if record then Some (Schedule.Rounds (List.rev !round_records)) else None in
  (stats, schedule)
