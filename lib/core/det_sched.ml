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
   write phases commute; and a child's id is its rank in (parent id,
   birth index) order, independent of which worker ran what. That rank
   is a counting sort, not a comparison sort: parents are the previous
   generation's dense ids and each pushes births 0..k-1, so the rank is
   the number of children of lower-id parents plus the birth index.
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
   produced — test/test_digest_fixture.ml pins it.

   Code shape: a run's mutable [state] and fixed [env] are two records
   that [form], [round] and [finish] work over. A resume [boundary] is
   the projection of the state that [capture] takes and [of_boundary]
   loads back, seven cumulative counters included: buckets and the six
   deterministic worker counters, carried as one [Stats.worker]. *)

type ('item, 'state) task = {
  item : 'item;
  id : int;
  (* Defeat flag (§3.3). Written concurrently during inspect, but only
     ever from [true] to [false] (an idempotent immediate), so the plain
     racy write is benign; the pool barrier publishes it before the
     commit phase reads it. *)
  mutable alive : bool;
  (* [n_locks] counts this round's acquisitions. Only runs that record
     or validate fill [neighborhood]: then its first [n_locks] entries
     are the neighborhood, in acquisition order, with capacity reused
     across retries. *)
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
   and machine-independent. [spread_index spread n i] is its closed form,
   the slot of position [i] of [n]: pile [i mod spread], entry
   [i / spread], behind [pile] earlier piles of which the first
   [n mod spread] hold one extra entry. For [n <= spread] it is the
   identity. *)
let spread_index spread n i =
  if spread <= 1 then i
  else
    let pile = i mod spread in
    (pile * (n / spread)) + Int.min pile (n mod spread) + (i / spread)

let spread_permute spread arr =
  let n = Array.length arr in
  if spread <= 1 || n <= spread then arr
  else begin
    let out = Array.make n arr.(0) in
    Array.iteri (fun i x -> out.(spread_index spread n i) <- x) arr;
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

(* Deterministic id assignment (§3.2): the todo index of every new
   task, in id order. A child's rank in (parent id, birth index) order
   is a counting sort over the parent range — the previous generation's
   ids, or 0 for the initial items — plus its birth index, which equals
   the lexicographic sort because each parent commits once and pushes
   births 0..k-1. Each birth must stay below its parent's child count
   and take a fresh rank, which together force exactly 0..k-1; anything
   else raises. With [static_id], ids come from the application's fixed
   task universe instead (§3.3, third optimization): its keys are sorted
   and duplicates collapse to a single task. Either way the ids [base +
   rank] are dense in [base, base + count) — the defeat table indexes on
   exactly that. [todo] is never empty: a generation is only formed from
   pending children. *)
let id_order ~static_id todo =
  let n = Child_buffer.length todo in
  match static_id with
  | Some key_of ->
      let keys = Array.init n (fun i : int -> key_of (Child_buffer.item todo i)) in
      let order = Array.init n Fun.id in
      Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) order;
      (* Collapse duplicates in place: the kept prefix [0, count) never
         overtakes the read position. *)
      let count = ref 0 in
      Array.iter
        (fun i ->
          if !count = 0 || not (Int.equal keys.(order.(!count - 1)) keys.(i)) then begin
            order.(!count) <- i;
            incr count
          end)
        order;
      Array.sub order 0 !count
  | None ->
      let lo = ref max_int and hi = ref min_int in
      for i = 0 to n - 1 do
        let p = Child_buffer.parent todo i in
        lo := Int.min !lo p;
        hi := Int.max !hi p
      done;
      let lo = !lo in
      (* Parent [p]'s children take ranks [start.(p - lo), start.(p - lo + 1)). *)
      let start = Array.make (!hi - lo + 2) 0 in
      for i = 0 to n - 1 do
        let s = Child_buffer.parent todo i - lo + 1 in
        start.(s) <- start.(s) + 1
      done;
      for s = 1 to Array.length start - 1 do
        start.(s) <- start.(s) + start.(s - 1)
      done;
      let order = Array.make n (-1) in
      for i = 0 to n - 1 do
        let s = Child_buffer.parent todo i - lo and birth = Child_buffer.birth todo i in
        let r = start.(s) + birth in
        if birth < 0 || r >= start.(s + 1) || order.(r) >= 0 then
          invalid_arg "Det_sched.run: a parent's child births must be 0..k-1";
        order.(r) <- i
      done;
      order

(* Delta-stepping bucket index with floor semantics, so negative
   priorities order correctly below zero instead of folding onto
   bucket 0. *)
let bucket_of ~delta p = if p >= 0 then p / delta else -(((-p) + delta - 1) / delta)

(* Per-generation automatic delta: spread the priority span over ~64
   buckets. A pure function of the generation's priorities, so [auto]
   is as deterministic as an explicit delta. *)
let auto_delta ~pmin ~pmax = max 1 (((pmax - pmin) / 64) + 1)

(* The [(bucket, size)] run table of a run-contiguous sequence: group
   the consecutive equal values of [bucket 0 .. bucket (n - 1)], n > 0. *)
let group_runs n (bucket : int -> int) =
  let runs = ref [] and start = ref 0 in
  for i = 1 to n do
    if i = n || not (Int.equal (bucket i) (bucket !start)) then begin
      runs := (bucket !start, i - !start) :: !runs;
      start := i
    end
  done;
  Array.of_list (List.rev !runs)

(* Positions [0, n) stably ordered by [key], each key an unsigned offset
   of at most [span]: an LSD radix sort of counting-sort passes whose
   digit covers max(n, 128) values (capped at 2^20). One pass — a plain
   counting sort — covers every span that fits a digit, so under
   [prio=auto] (at most 65 buckets) it is always one pass; only a wide
   explicit delta's span needs more, and never a span-sized array. *)
let counting_order key span =
  let n = Array.length key in
  let rec width b = if 1 lsl b >= n || b >= 20 then b else width (b + 1) in
  let bits = width 7 in
  let mask = (1 lsl bits) - 1 in
  let size = if span land lnot mask = 0 then span + 1 else mask + 1 in
  let count = Array.make (size + 1) 0 in
  let rec pass src shift =
    Array.fill count 0 (size + 1) 0;
    Array.iter
      (fun i ->
        let d = ((key.(i) lsr shift) land mask) + 1 in
        count.(d) <- count.(d) + 1)
      src;
    for d = 1 to size do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    let dst = Array.make n 0 in
    Array.iter
      (fun i ->
        let d = (key.(i) lsr shift) land mask in
        dst.(count.(d)) <- i;
        count.(d) <- count.(d) + 1)
      src;
    let shift = shift + bits in
    if shift < Sys.int_size && span lsr shift <> 0 then pass dst shift else dst
  in
  pass (Array.init n Fun.id) 0

(* Generation formation: order the todo children by id, then write each
   new task — [make id item] — once, straight into its pending-deque
   slot. Unordered ([prio=off]) that slot is the spread permutation of
   its rank. Under soft priority the generation is laid out as
   contiguous delta-stepping bucket runs: a stable counting sort by
   bucket keeps id order within a bucket, and each run is spread on its
   own — windows never straddle a bucket, so the permutation must not
   either. Returns the slots, the [(bucket, size)] run table (empty when
   unordered) and the delta used (0 when unordered). *)
let form_generation ~make ~static_id ~spread ~priority ~prio_of ~base todo =
  let order = id_order ~static_id todo in
  let m = Array.length order in
  let item r = Child_buffer.item todo order.(r) in
  let first = make base (item 0) in
  let slots = Array.make m first in
  let place slot r = slots.(slot) <- (if r = 0 then first else make (base + r) (item r)) in
  match priority with
  | Policy.Prio_off ->
      for r = 0 to m - 1 do
        place (spread_index spread m r) r
      done;
      (slots, [||], 0)
  | Policy.Prio_delta _ | Policy.Prio_auto ->
      let prios = Array.init m (fun r -> prio_of (item r)) in
      let pmin = Array.fold_left Int.min prios.(0) prios
      and pmax = Array.fold_left Int.max prios.(0) prios in
      let delta =
        match priority with Policy.Prio_delta d -> d | _ -> auto_delta ~pmin ~pmax
      in
      (* Bucket keys as offsets from the lowest bucket ([bucket_of] is
         monotone); the wrapped difference is exact read unsigned. *)
      let bmin = bucket_of ~delta pmin in
      let key = Array.map (fun p -> bucket_of ~delta p - bmin) prios in
      let by_bucket = counting_order key (bucket_of ~delta pmax - bmin) in
      let runs = group_runs m (fun j -> key.(by_bucket.(j)) + bmin) in
      let start = ref 0 in
      Array.iter
        (fun (_, len) ->
          for k = 0 to len - 1 do
            place (!start + spread_index spread len k) by_bucket.(!start + k)
          done;
          start := !start + len)
        runs;
      (slots, runs, delta)

let generation_layout ~static_id ~spread ~priority ~prio_of ~base todo =
  form_generation ~make:(fun id item -> (id, item)) ~static_id ~spread ~priority ~prio_of ~base
    todo

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

(* Round-boundary scheduler state (checkpoint/replay); see the interface. *)
type 'item boundary = {
  b_rounds : int;
  b_generations : int;
  b_buckets : int;
  b_next_id : int;
  b_gen_base : int;
  b_window : int;
  b_delta : int;
  b_digest : Trace_digest.t;
  b_pending_ids : int array;
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

(* Everything one run mutates between rounds. *)
type ('item, 'state) state = {
  mutable rounds : int;
  mutable generations : int;
  mutable buckets : int;  (* soft-priority runs opened so far *)
  mutable next_id : int;
  (* Defeat table: generation ids are dense in [gen_base, gen_base +
     count), so [id - gen_base] indexes a flat array. Slots are stamped
     with the round that registered them instead of being cleared —
     [rounds] only grows, so a stale stamp can never match. Reads during
     inspect race only with other reads; registration happens in the
     sequential window setup. *)
  mutable gen_base : int;
  mutable slot_task : ('item, 'state) task array;
  mutable slot_round : int array;
  mutable window : int;  (* the next round's window; 0 before the first generation *)
  mutable delta : int;  (* bucket width of the current generation; 0 = unordered *)
  (* Round-trace digest: every quantity folded is deterministic by the
     argument in the header comment, so the digest is a pure function of
     the input and the scheduling options — any dependence on thread
     count or timing shows up as a digest mismatch. Task ids (not items)
     are folded: ids already encode the deterministic creation order.
     Lock/location ids are deliberately excluded — they come from a
     process-global counter and would differ between two runs in the
     same process. *)
  mutable digest : Trace_digest.t;
  pending : ('item, 'state) task Pending.t;
  todo : 'item Child_buffer.t;  (* children of the current generation *)
  carry : Stats.worker;
      (* deterministic counters from before a resume boundary; zero on a
         fresh run, summed with the real workers in [capture]/[finish] *)
  mutable inspect_s : float;
  mutable select_s : float;
  mutable records : Schedule.task_record array list;  (* newest round first *)
}

(* What stays fixed for one run. *)
type ('item, 'state) env = {
  threads : int;
  pool : Parallel.Domain_pool.t;
  workers : Stats.worker array;
  contexts : ('item, 'state) Context.t array;
  (* Per-worker flat buffers of (parent id, birth index, item) triples,
     drained into [todo] by the sequential glue each round. *)
  child_buffers : 'item Child_buffer.t array;
  operator : ('item, 'state) Context.t -> 'item -> unit;
  options : Policy.det_options;
  static_id : ('item -> int) option;
  prio_of : 'item -> int;
  defeat : int -> unit;
  (* All events are emitted from the sequential glue between parallel
     phases, so sinks never see concurrent calls. Every event field
     except the [Phase_time]/[Chunk_sized]/[Worker_counters] ones is
     deterministic — detcheck compares the rendered deterministic stream
     byte-for-byte across thread counts. *)
  tracing : bool;
  emit : Obs.event -> unit;
  audit : Audit.t option;
  record : bool;
  checkpoint : (int * ('item boundary -> unit)) option;
  sync0 : (int * int) array;  (* pool sync counters at run start *)
}

let empty_state () =
  { rounds = 0; generations = 0; buckets = 0; next_id = 1; gen_base = 1; slot_task = [||];
    slot_round = [||]; window = 0; delta = 0; digest = Trace_digest.seed;
    pending = Pending.create (); todo = Child_buffer.create (); carry = Stats.make_worker ();
    inspect_s = 0.0; select_s = 0.0; records = [] }

(* Each round marks under its own fresh lock epoch, so a displaced id
   must belong to the current window. *)
let defeat st id =
  let s = id - st.gen_base in
  if s >= 0 && s < Array.length st.slot_round && st.slot_round.(s) = st.rounds then
    st.slot_task.(s).alive <- false
  else assert false

let ensure_slots st need generation =
  if need > Array.length st.slot_round then begin
    st.slot_task <- Array.make need generation.(0);
    st.slot_round <- Array.make need 0
  end

(* Everything is validated before anything is loaded. The todo checks
   keep a malformed boundary from reaching formation, where an
   out-of-generation parent would size the counting sort. *)
let of_boundary env st b =
  if b.b_gen_base > b.b_next_id || b.b_rounds < 0 || b.b_window < 0 then
    invalid_arg "Det_sched.run: inconsistent resume boundary";
  if Array.length b.b_pending_ids <> Array.length b.b_pending_items then
    invalid_arg "Det_sched.run: resume boundary id/item arrays disagree";
  let in_generation id = id >= b.b_gen_base && id < b.b_next_id in
  if not (Array.for_all in_generation b.b_pending_ids) then
    invalid_arg "Det_sched.run: resume boundary pending id out of generation";
  let nt = Array.length b.b_todo_items in
  if Array.length b.b_todo_parents <> nt || Array.length b.b_todo_births <> nt then
    invalid_arg "Det_sched.run: resume boundary todo columns disagree";
  if not (Array.for_all in_generation b.b_todo_parents) then
    invalid_arg "Det_sched.run: resume boundary todo parent out of generation";
  let todo = Child_buffer.create () in
  Array.iteri
    (fun i item ->
      Child_buffer.push todo ~parent:b.b_todo_parents.(i) ~birth:b.b_todo_births.(i) item)
    b.b_todo_items;
  (* Raises unless each parent's births are exactly 0..k-1. *)
  if nt > 0 then ignore (id_order ~static_id:None todo);
  st.rounds <- b.b_rounds;
  st.generations <- b.b_generations;
  st.buckets <- b.b_buckets;
  st.next_id <- b.b_next_id;
  st.gen_base <- b.b_gen_base;
  st.window <- b.b_window;
  st.digest <- b.b_digest;
  let c = st.carry in
  c.committed <- b.b_commits;
  c.aborted <- b.b_aborts;
  c.acquires <- b.b_acquired;
  c.work <- b.b_work;
  c.pushes <- b.b_created;
  c.inspections <- b.b_inspected;
  Child_buffer.transfer ~into:st.todo todo;
  let n = Array.length b.b_pending_items in
  if n > 0 then begin
    (* Rebuild the current generation's pending suffix in captured
       deque order (spread-permuted, not id order). *)
    let generation =
      Array.init n (fun i -> make_task b.b_pending_ids.(i) b.b_pending_items.(i))
    in
    if b.b_delta > 0 then begin
      (* Soft-priority generation: the captured deque order is
         run-contiguous (windows never straddle runs), so grouping
         consecutive equal buckets reconstructs the run table. The
         current run was already opened (and digest-folded) before the
         boundary, so it is not re-opened here. *)
      let bucket i = bucket_of ~delta:b.b_delta (env.prio_of generation.(i).item) in
      Pending.load_runs st.pending generation (group_runs n bucket);
      st.delta <- b.b_delta
    end
    else Pending.load st.pending generation;
    ensure_slots st (b.b_next_id - b.b_gen_base) generation
  end;
  if env.tracing then
    env.emit (Obs.Resumed { round = b.b_rounds; digest = Trace_digest.to_hex b.b_digest })

(* The state a resume needs to replay round [rounds + 1] onward. Called
   from the sequential glue only, after compaction and window adaptation
   — [st.window] is the next round's window. *)
let capture env st =
  let np = Pending.length st.pending and nt = Child_buffer.length st.todo in
  let sum f = Array.fold_left (fun a w -> a + f w) (f st.carry) env.workers in
  {
    b_rounds = st.rounds;
    b_generations = st.generations;
    b_buckets = st.buckets;
    b_next_id = st.next_id;
    b_gen_base = st.gen_base;
    b_window = st.window;
    b_delta = (if np = 0 then 0 else st.delta);
    b_digest = st.digest;
    b_pending_ids = Array.init np (fun i -> (Pending.get st.pending i).id);
    b_pending_items = Array.init np (fun i -> (Pending.get st.pending i).item);
    b_todo_parents = Array.init nt (Child_buffer.parent st.todo);
    b_todo_births = Array.init nt (Child_buffer.birth st.todo);
    b_todo_items = Array.init nt (Child_buffer.item st.todo);
    b_commits = sum (fun w -> w.Stats.committed);
    b_aborts = sum (fun w -> w.Stats.aborted);
    b_acquired = sum (fun w -> w.Stats.acquires);
    b_work = sum (fun w -> w.Stats.work);
    b_created = sum (fun w -> w.Stats.pushes);
    b_inspected = sum (fun w -> w.Stats.inspections);
  }

(* Opening a soft-priority run folds its bucket index and size into the
   digest — the bucket layout is a pure function of (ids, priorities,
   delta), so this keeps the digest a schedule commitment under [prio]
   too. *)
let open_run env st =
  match Pending.current_run st.pending with
  | None -> ()
  | Some (bucket, size) ->
      st.buckets <- st.buckets + 1;
      st.digest <- Trace_digest.fold_int (Trace_digest.fold_int st.digest bucket) size;
      if env.tracing then
        env.emit (Obs.Bucket_opened { generation = st.generations; bucket; size })

(* Generation formation: rank the pending children into a new
   generation laid out in pending-deque order (spread permutation, or
   bucket runs under soft priority) and fold it into the digest. *)
let form env st =
  st.generations <- st.generations + 1;
  let { Policy.spread; initial_window; priority; _ } = env.options in
  let generation, runs, delta =
    form_generation ~make:make_task ~static_id:env.static_id ~spread ~priority
      ~prio_of:env.prio_of ~base:st.next_id st.todo
  in
  Child_buffer.clear st.todo;
  let gen_len = Array.length generation in
  st.gen_base <- st.next_id;
  st.next_id <- st.next_id + gen_len;
  ensure_slots st gen_len generation;
  st.delta <- delta;
  if delta = 0 then Pending.load st.pending generation
  else Pending.load_runs st.pending generation runs;
  st.digest <- Trace_digest.fold_int st.digest gen_len;
  if st.delta > 0 then st.digest <- Trace_digest.fold_int st.digest st.delta;
  if env.tracing then
    env.emit (Obs.Generation_begin { generation = st.generations; tasks = gen_len });
  (* The first run of a soft-priority generation opens (and is
     digest-folded) as part of generation formation; later runs open as
     their predecessors drain. *)
  open_run env st;
  if st.window = 0 then
    st.window <-
      (match initial_window with Some w -> max 1 w | None -> max 32 ((gen_len + 7) / 8))

let inspect env st ~stamp ~w_use =
  let t_inspect = Clock.now_s () in
  par_iter env.pool ~threads:env.threads ~workers:env.workers w_use (fun w i ->
      let ctx = env.contexts.(w) in
      let t = Pending.get st.pending i in
      Context.reset ctx ~phase:Inspect ~task_id:t.id ~stamp ~saved:None;
      Context.set_on_defeat ctx env.defeat;
      env.workers.(w).inspections <- env.workers.(w).inspections + 1;
      (match env.operator ctx t.item with
      | () ->
          (* No failsafe point reached: a read-only task. Its whole
             execution — including pushes — happened now; commit just
             publishes the children if selected. *)
          t.pure <- true;
          t.pure_children <- Context.pushed_into ctx t.pure_children;
          t.n_pure_children <- Context.pushed_count ctx
      | exception Context.Failsafe_reached -> ());
      if Context.keeps_inspected ctx then
        t.neighborhood <- Context.neighborhood_into ctx t.neighborhood;
      t.n_locks <- Context.neighborhood_count ctx;
      t.task_work <- Context.work_units ctx;
      if env.options.continuation then t.saved <- Context.saved ctx);
  let dt_inspect = Clock.elapsed_s t_inspect in
  st.inspect_s <- st.inspect_s +. dt_inspect;
  if env.tracing then begin
    let marked = ref 0 and saved = ref 0 in
    for i = 0 to w_use - 1 do
      let t = Pending.get st.pending i in
      marked := !marked + t.n_locks;
      if Option.is_some t.saved then incr saved
    done;
    env.emit
      (Obs.Inspect_done { round = st.rounds; marked = !marked; saved_continuations = !saved });
    env.emit (Obs.Phase_time { round = st.rounds; phase = Obs.Inspect; dt_s = dt_inspect })
  end

(* --- selectAndExec --------------------------------------------------
   Surviving marks are NOT released: the next round's fresh epoch makes
   them stale wholesale, deleting one CAS per held lock per task per
   round from the former mark-clearing pass. *)
let select_and_exec env st ~stamp ~w_use =
  par_iter env.pool ~threads:env.threads ~workers:env.workers w_use (fun w i ->
      let stats = env.workers.(w) in
      let ctx = env.contexts.(w) in
      let buf = env.child_buffers.(w) in
      let t = Pending.get st.pending i in
      let selected = t.alive in
      if env.options.Policy.validate then begin
        let marks_ok = ref true in
        for k = 0 to t.n_locks - 1 do
          if not (Lock.holds t.neighborhood.(k) ~stamp t.id) then marks_ok := false
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
          env.operator ctx t.item;
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
      else stats.aborted <- stats.aborted + 1)

(* Dynamic determinism audit: drain the access tapes and check
   cautiousness / containment / round-level races against the committed
   set (the first [n] entries of [ids]). *)
let audit_round env st a ~w_use ~ids ~n =
  let ids = Array.sub ids 0 n in
  Array.sort compare ids;
  let fresh = Audit.end_round a ~round:st.rounds ~inspected:w_use ~committed:ids in
  if env.tracing then
    List.iter
      (fun (f : Audit.finding) ->
        env.emit
          (Obs.Audit_finding
             { round = f.Audit.round; rule = Audit.rule_name f.Audit.rule;
               task = f.Audit.task; other = f.Audit.other; lid = f.Audit.lid }))
      fresh

let record_round st ~w_use =
  let record t =
    { Schedule.acquires = t.n_locks; inspect_work = t.task_work; commit_work = t.commit_work;
      committed = t.alive; locks = Array.init t.n_locks (fun k -> Lock.id t.neighborhood.(k)) }
  in
  st.records <- Array.init w_use (fun i -> record (Pending.get st.pending i)) :: st.records

(* One round: window setup, inspect, selectAndExec, then the sequential
   glue — digest fold, audit, child transfer, compaction, run accounting,
   window adaptation and the checkpoint. *)
let round env st =
  st.rounds <- st.rounds + 1;
  (* A fresh lock epoch per round: every mark the previous round left
     behind is stale — free by construction — for this round's claims,
     which is what lets selectAndExec skip releasing. *)
  let stamp = Lock.new_epoch () in
  (* --- calculateWindow / getWindowOfTasks ---------------------------
     Under soft-priority scheduling the window is additionally capped at
     the current bucket run: rounds never mix buckets. *)
  let w_use = min st.window (Pending.window_avail st.pending) in
  for i = 0 to w_use - 1 do
    let t = Pending.get st.pending i in
    t.alive <- true;
    t.pure <- false;
    t.n_pure_children <- 0;
    t.saved <- None;
    t.commit_work <- 0;
    let s = t.id - st.gen_base in
    st.slot_task.(s) <- t;
    st.slot_round.(s) <- st.rounds
  done;
  if env.tracing then begin
    env.emit (Obs.Round_begin { round = st.rounds; window = w_use });
    env.emit
      (Obs.Chunk_sized
         { round = st.rounds; tasks = w_use; chunk = chunk_for ~threads:env.threads w_use })
  end;
  inspect env st ~stamp ~w_use;
  let t_select = Clock.now_s () in
  select_and_exec env st ~stamp ~w_use;
  let dt_select = Clock.elapsed_s t_select in
  st.select_s <- st.select_s +. dt_select;
  (* --- sequential glue between rounds -------------------------------
     [alive] still says which tasks were selected: defeat flags only
     change during inspect. One pass folds the committed ids into the
     digest and collects the audit's ids and the executed work. *)
  let ids = if Option.is_some env.audit then Array.make w_use 0 else [||] in
  let n_committed = ref 0 and exec_work = ref 0 in
  st.digest <- Trace_digest.fold_int st.digest w_use;
  for i = 0 to w_use - 1 do
    let t = Pending.get st.pending i in
    if t.alive then begin
      st.digest <- Trace_digest.fold_int st.digest t.id;
      if Array.length ids > 0 then ids.(!n_committed) <- t.id;
      incr n_committed;
      exec_work := !exec_work + if t.pure then t.task_work else t.commit_work
    end
  done;
  let n_committed = !n_committed in
  st.digest <- Trace_digest.fold_int st.digest n_committed;
  (match env.audit with
  | Some a -> audit_round env st a ~w_use ~ids ~n:n_committed
  | None -> ());
  let round_pushes = ref 0 in
  for w = 0 to env.threads - 1 do
    round_pushes := !round_pushes + Child_buffer.length env.child_buffers.(w);
    Child_buffer.transfer ~into:st.todo env.child_buffers.(w)
  done;
  if env.tracing then begin
    env.emit
      (Obs.Select_done
         { round = st.rounds; committed = n_committed; defeated = w_use - n_committed });
    env.emit (Obs.Phase_time { round = st.rounds; phase = Obs.Select; dt_s = dt_select });
    env.emit
      (Obs.Execute_done { round = st.rounds; work = !exec_work; pushes = !round_pushes })
  end;
  if env.record then record_round st ~w_use;
  (* Failed tasks precede the untried remainder: they came from the
     window prefix, so the in-place compaction keeps the pending
     sequence in id order. *)
  let dropped =
    Pending.compact st.pending ~w_use ~keep:(fun i -> not (Pending.get st.pending i).alive)
  in
  assert (dropped = n_committed);
  (* Soft-priority run accounting: when the commits drained the current
     bucket run, open the next one — so every round boundary with
     pending tasks already has its run open, which is what lets a
     checkpoint carry just [b_delta]. *)
  (match Pending.note_dropped st.pending dropped with
  | None -> ()
  | Some bucket ->
      if env.tracing then env.emit (Obs.Bucket_drained { round = st.rounds; bucket });
      open_run env st);
  let old_w = st.window in
  st.window <-
    adapt_window ~target_ratio:env.options.Policy.target_ratio ~window:old_w
      ~committed:n_committed ~w_use;
  if env.tracing && st.window <> old_w then
    env.emit
      (Obs.Window_adapted
         { old_w; new_w = st.window;
           ratio = float_of_int n_committed /. float_of_int w_use });
  (* --- round boundary: checkpoint ----------------------------------- *)
  match env.checkpoint with
  | Some (every, f) when st.rounds mod every = 0 ->
      if env.tracing then
        env.emit
          (Obs.Checkpoint_taken { round = st.rounds; digest = Trace_digest.to_hex st.digest });
      f (capture env st)
  | _ -> ()

(* The run's [Stats.t]: the real workers plus the counters carried over
   a resume boundary; rounds, generations, buckets and the digest are
   already cumulative in the state. *)
let finish env st ~t0 =
  let time_s = Clock.elapsed_s t0 in
  Stats.book_sync env.workers ~before:env.sync0
    ~after:(Parallel.Domain_pool.sync_counters env.pool);
  if env.tracing then Array.iteri (fun w c -> env.emit (Stats.counters_event w c)) env.workers;
  let stats =
    Stats.merge ~digest:st.digest ~threads:env.threads ~rounds:st.rounds
      ~generations:st.generations ~buckets:st.buckets ~time_s
      ~phases:(Stats.breakdown ~inspect_s:st.inspect_s ~select_s:st.select_s ~time_s)
      (Array.append [| st.carry |] env.workers)
  in
  (stats, if env.record then Some (Schedule.Rounds (List.rev st.records)) else None)

let run ?(record = false) ?(sink = Obs.null) ?audit ?checkpoint ?resume ?stop_after
    ?threads ?priority ~pool ~options ~static_id ~operator items =
  (match checkpoint with
  | Some (every, _) when every < 1 ->
      invalid_arg "Det_sched.run: checkpoint cadence must be >= 1"
  | _ -> ());
  (match stop_after with
  | Some r when r < 1 -> invalid_arg "Det_sched.run: stop_after round must be >= 1"
  | _ -> ());
  (* The policy's thread count rules; extra pool workers stay idle. *)
  let threads = min (Option.value threads ~default:max_int) (Parallel.Domain_pool.size pool) in
  let workers = Array.init threads (fun _ -> Stats.make_worker ()) in
  let contexts =
    Array.init threads (fun w ->
        let ctx = Context.create () in
        Context.set_stats ctx workers.(w);
        (* Only schedule records and validation read inspected
           neighborhoods; other runs just count them. *)
        Context.set_keep_inspected ctx (record || options.Policy.validate);
        Option.iter (fun a -> Context.set_tape ctx (Some (Audit.tape a w))) audit;
        ctx)
  in
  let st = empty_state () in
  let env =
    { threads; pool; workers; contexts; operator; options; static_id; audit; record; checkpoint;
      child_buffers = Array.init threads (fun _ -> Child_buffer.create ());
      (* Soft-priority mode without an application priority function
         still works: every task lands in bucket 0 (one run per
         generation). *)
      prio_of = Option.value priority ~default:(fun _ -> 0);
      defeat = defeat st;
      tracing = sink != Obs.null;
      (* detlint: allow wall-clock — Obs.at_s is an absolute wall-clock timestamp; durations use Clock *)
      emit = (fun event -> sink.Obs.emit { Obs.at_s = Unix.gettimeofday (); event });
      sync0 = Parallel.Domain_pool.sync_counters pool }
  in
  (match resume with
  | None -> Array.iteri (fun i item -> Child_buffer.push st.todo ~parent:0 ~birth:i item) items
  | Some b -> of_boundary env st b);
  let t0 = Clock.now_s () in
  (* One iteration per round. A generation boundary is just a round
     whose pending deque starts empty: [form] then lays out the next
     generation first, so an uninterrupted run and a resumed one take
     the same path and a resume can re-enter mid-generation. *)
  let stopped = ref false in
  while
    (not !stopped) && (Pending.length st.pending > 0 || Child_buffer.length st.todo > 0)
  do
    if Pending.length st.pending = 0 then form env st;
    round env st;
    match stop_after with Some r when st.rounds >= r -> stopped := true | _ -> ()
  done;
  finish env st ~t0
