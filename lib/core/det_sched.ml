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

   A task is its id. The only per-task data indexed by generation slot
   ([id - generation base]; generation ids are dense) are the items,
   written once at formation, and each slot's window position, written
   by the window setup. Everything a task holds for one round lives in
   [columns] indexed by window position, reused across rounds and
   generations, so steady-state rounds allocate nothing per task: the
   pending set is an in-place [Pending] deque of slots (window = index
   range, descending compaction, no write barrier), defeat flags are
   round stamps instead of per-round clearing, pure children and
   neighborhoods reuse their arrays through the [Context] scratch
   buffers, children stay in flat per-worker [Child_buffer]s until the
   next generation is ranked straight out of them, the committed ids
   are folded into the digest once per round, and every round claims
   marks under a fresh [Lock] epoch — marks surviving the previous round
   are stale by construction, so the former end-of-select
   [Lock.release] pass (one CAS per held lock per task per round) is
   gone entirely. The schedule itself is bit-for-bit the one the
   original list-based implementation produced —
   test/test_digest_fixture.ml pins it.

   Code shape: a run's mutable [state] and fixed [env] are two records
   that [form], [round] and [finish] work over. A resume [boundary] is
   the projection of the state that [capture] takes and [of_boundary]
   loads back, cumulative counters included: buckets and the worker
   counters [Obs.det_counters] lists, carried as one [Stats.worker]. *)

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
   proportional shrink on a bad one. The shrink has no constant floor:
   [window * ratio / target + 1] is at least [committed] when the round
   filled its window and [target <= 1], so the floor is whatever the
   round just committed — a hot spot that commits two tasks a round
   stops re-inspecting thirty doomed ones. Exposed for the property
   tests; the adapted sizes feed the round-trace digest. *)
let adapt_window ~target_ratio ~window ~committed ~w_use =
  if w_use < 1 || committed < 0 || committed > w_use || window < w_use then
    invalid_arg "Det_sched.adapt_window: need 0 <= committed <= w_use, 1 <= w_use <= window";
  let ratio = float_of_int committed /. float_of_int w_use in
  if ratio >= target_ratio then min (window * 2) (1 lsl 22)
  else int_of_float (float_of_int window *. ratio /. target_ratio) + 1

let child_count bufs = Array.fold_left (fun a b -> a + Child_buffer.length b) 0 bufs

(* An item to size arrays with; [bufs] holds at least one child. *)
let some_child bufs =
  match Array.find_opt (fun b -> Child_buffer.length b > 0) bufs with
  | Some b -> Child_buffer.item b 0
  | None -> invalid_arg "Det_sched: no children to rank"

(* Deterministic id assignment (§3.2): [rank_children bufs f] calls [f r
   buf i] for entry [i] of every buffer [buf] in [bufs], with [r] its
   rank in (parent id, birth index) order — which worker buffered a
   child, and where, never matters. The rank is a counting sort over
   the parent range — the previous generation's ids, or 0 for the
   initial items — plus the birth index, which equals the lexicographic
   sort because each parent commits once and pushes births 0..k-1. Each
   birth must stay below its parent's child count and take a fresh
   rank, which together force exactly 0..k-1; anything else raises. The
   ranks are dense in [0, child_count bufs). *)
let iter_children bufs f =
  Array.iter (fun buf -> for i = 0 to Child_buffer.length buf - 1 do f buf i done) bufs

let rank_children bufs f =
  let n = child_count bufs in
  if n > 0 then begin
    let lo = ref max_int and hi = ref min_int in
    iter_children bufs (fun buf i ->
        let p = Child_buffer.parent buf i in
        lo := Int.min !lo p;
        hi := Int.max !hi p);
    let lo = !lo in
    (* Parent [p]'s children take ranks [start.(p - lo), start.(p - lo + 1)). *)
    let start = Array.make (!hi - lo + 2) 0 in
    iter_children bufs (fun buf i ->
        let s = Child_buffer.parent buf i - lo + 1 in
        start.(s) <- start.(s) + 1);
    for s = 1 to Array.length start - 1 do
      start.(s) <- start.(s) + start.(s - 1)
    done;
    let taken = Bytes.make n '\000' in
    iter_children bufs (fun buf i ->
        let s = Child_buffer.parent buf i - lo and birth = Child_buffer.birth buf i in
        let r = start.(s) + birth in
        if birth < 0 || r >= start.(s + 1) || Bytes.get taken r <> '\000' then
          invalid_arg "Det_sched.run: a parent's child births must be 0..k-1";
        Bytes.set taken r '\001';
        f r buf i)
  end

(* A generation's items in id order: rank [r] becomes the task of id
   [gen_base + r]. Ranked by [rank_children], or with [static_id] by the
   application's fixed task universe (§3.3, third optimization): its
   keys are sorted and duplicates collapse to a single task. [bufs] is
   never empty of children: a generation is only formed from pending
   ones. *)
let rank_items ~static_id bufs =
  match static_id with
  | Some key_of ->
      let all =
        Array.concat
          (Array.to_list
             (Array.map (fun b -> Array.init (Child_buffer.length b) (Child_buffer.item b)) bufs))
      in
      let keys = Array.map (fun item : int -> key_of item) all in
      let order = Array.init (Array.length all) Fun.id in
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
      Array.init !count (fun r -> all.(order.(r)))
  | None ->
      let items = Array.make (child_count bufs) (some_child bufs) in
      rank_children bufs (fun r buf i -> items.(r) <- Child_buffer.item buf i);
      items

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

(* Generation formation: rank the buffered children into the
   generation's items, then write each slot once, straight into its
   place in the pending deque. Unordered ([prio=off]) that place is the
   spread permutation of its rank. Under soft priority the generation
   is laid out as contiguous delta-stepping bucket runs: a stable
   counting sort by bucket keeps id order within a bucket, and each run
   is spread on its own — windows never straddle a bucket, so the
   permutation must not either. Returns the items, the deque of slots,
   the [(bucket, size)] run table (empty when unordered) and the delta
   used (0 when unordered). *)
let form_generation ~static_id ~spread ~priority ~prio_of bufs =
  let items = rank_items ~static_id bufs in
  let m = Array.length items in
  let slots = Array.make m 0 in
  match priority with
  | Policy.Prio_off ->
      for r = 0 to m - 1 do
        slots.(spread_index spread m r) <- r
      done;
      (items, slots, [||], 0)
  | Policy.Prio_delta _ | Policy.Prio_auto ->
      let prios = Array.map prio_of items in
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
            slots.(!start + spread_index spread len k) <- by_bucket.(!start + k)
          done;
          start := !start + len)
        runs;
      (items, slots, runs, delta)

let generation_layout ~static_id ~spread ~priority ~prio_of ~base bufs =
  let items, slots, runs, delta = form_generation ~static_id ~spread ~priority ~prio_of bufs in
  (Array.map (fun s -> (base + s, items.(s))) slots, runs, delta)

(* The failure of the lower pending slot, as (slot, exn, backtrace). *)
let lower_failure a b =
  match (a, b) with Some (s, _, _), Some (s', _, _) when s' < s -> b | None, _ -> b | _ -> a

(* Worker [w]'s share of a phase: grab chunks off [next] until the
   window runs out, keeping the lowest-slot failure it met in
   [failed.(w)]. *)
let drain ~workers ~pending ~failed ~next ~chunk n f w =
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add next chunk in
    if start >= n then continue_ := false
    else begin
      workers.(w).Obs.chunks <- workers.(w).Obs.chunks + 1;
      for i = start to min (start + chunk) n - 1 do
        try f w i
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          failed.(w) <- lower_failure failed.(w) (Some (Pending.get pending i, exn, bt))
      done
    end
  done

(* Chunked dynamic parallel iteration over the window positions
   [0, n). Assignment of positions to workers is timing-dependent;
   nothing the workers compute depends on it. Each grab bumps the
   grabbing worker's [chunks] counter. A phase no second worker could
   take a chunk of (one thread, or a window of at most one chunk) runs
   inline on the caller without the pool's dispatch and join: one worker
   would run every task either way.

   An operator exception does not cut the phase short. Every other task
   still runs, and the exception of the raising task with the lowest id
   (the lowest [pending] slot) is re-raised afterwards. Which tasks of a
   phase raise is deterministic, so a failing run fails the same way at
   every thread count, inline or dispatched. *)
let par_iter pool ~threads ~workers ~pending n f =
  let chunk = Parallel.Domain_pool.guided_chunk ~workers:threads n in
  let next = Atomic.make 0 and failed = Array.make threads None in
  if threads = 1 || n <= chunk then drain ~workers ~pending ~failed ~next ~chunk n f 0
  else
    Parallel.Domain_pool.run pool (fun w ->
        if w < threads then drain ~workers ~pending ~failed ~next ~chunk n f w);
  match Array.fold_left lower_failure None failed with
  | None -> ()
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt

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
  b_counters : Stats.worker;
}

(* One round's per-task state, indexed by window position: entry [i]
   belongs to the task at position [i] of the pending deque. Sized to
   the largest window so far and reused across rounds and generations.
   The inspecting worker resets its own entry, except [defeated]: the
   defeat flag (§3.3) is the round the task was last defeated in, a
   stamp no round has to clear. It is written concurrently during
   inspect, by the task itself or by whoever displaced its mark, but
   only ever with the current round number (an idempotent immediate),
   so the plain racy write is benign; the pool barrier publishes it
   before the commit phase reads it. *)
type ('item, 'state) columns = {
  defeated : int array;
  pure : bool array;  (* inspect finished without reaching a failsafe *)
  children : 'item array array;  (* a pure task's first [n_children] pushes *)
  n_children : int array;
  n_locks : int array;  (* this round's acquisitions *)
  inspect_work : int array;  (* inspect-phase (prefix) work units *)
  commit_work : int array;  (* commit-phase work units *)
  saved : 'state option array;  (* continuation, when enabled *)
  (* Filled only by runs that record or validate: the first [n_locks]
     entries are the neighborhood, in acquisition order. *)
  neighborhoods : Lock.t array array;
  ids : int array;  (* the glue's committed ids, in window order *)
}

let make_columns w =
  { defeated = Array.make w 0; pure = Array.make w false; children = Array.make w [||];
    n_children = Array.make w 0; n_locks = Array.make w 0; inspect_work = Array.make w 0;
    commit_work = Array.make w 0; saved = Array.make w None; neighborhoods = Array.make w [||];
    ids = Array.make w 0 }

(* Everything one run mutates between rounds. *)
type ('item, 'state) state = {
  mutable rounds : int;
  mutable generations : int;
  mutable buckets : int;  (* soft-priority runs opened so far *)
  mutable next_id : int;
  (* The generation's ids are dense in [gen_base, gen_base + count), so
     slot [id - gen_base] indexes [items] (written once by [form]) and
     [reg] (the slot's window position, written by the window setup and
     read by [defeat]). *)
  mutable gen_base : int;
  mutable items : 'item array;
  mutable reg : int array;
  pending : Pending.t;  (* slots, in deque order *)
  mutable w_use : int;  (* the current round's window *)
  mutable cols : ('item, 'state) columns;
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
  carry : Stats.worker;
      (* deterministic counters from before a resume boundary; zero on a
         fresh run, summed with the real workers in [capture]/[finish] *)
  mutable records : Schedule.task_record array list;  (* newest round first *)
}

(* What stays fixed for one run. *)
type ('item, 'state) env = {
  threads : int;
  pool : Parallel.Domain_pool.t;
  workers : Stats.worker array;
  contexts : ('item, 'state) Context.t array;
  (* Per-worker flat buffers of (parent id, birth index, item) triples:
     every child of the current generation (plus, before the first
     generation, the initial items in buffer 0) until [form] ranks them
     into the next one. *)
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
  sync0 : (int * int) array;  (* pool sync counters at run start; unread at one thread *)
}

let empty_state () =
  { rounds = 0; generations = 0; buckets = 0; next_id = 1; gen_base = 1; items = [||];
    reg = [||]; pending = Pending.create (); w_use = 0; cols = make_columns 0; window = 0;
    delta = 0; digest = Trace_digest.seed; carry = Obs.counters 0; records = [] }

(* Flag task [id] defeated in this round. Each round marks under its own
   fresh lock epoch, so a displaced id belongs to the current window:
   its slot's registration names a window position, and the deque entry
   there must be that very slot. The cross-check makes registrations
   left by earlier rounds or generations harmless, so none is cleared
   and the window setup writes one int per task. Reads during inspect
   race only with other reads. *)
let defeat st id =
  let s = id - st.gen_base in
  let i = if s >= 0 && s < Array.length st.reg then st.reg.(s) else -1 in
  if i >= 0 && i < st.w_use && Pending.get st.pending i = s then
    st.cols.defeated.(i) <- st.rounds
  else failwith "Det_sched: a defeated task is not in the current window"

(* Everything is validated before anything is loaded. The todo checks
   keep a malformed boundary from reaching formation, where an
   out-of-generation parent would size the counting sort. *)
let of_boundary env st b =
  (* Pending tasks need a window: with no constant floor in
     [adapt_window], an empty round could not recover from window 0. *)
  if
    b.b_gen_base > b.b_next_id || b.b_rounds < 0 || b.b_window < 0
    || (b.b_window = 0 && Array.length b.b_pending_ids > 0)
  then invalid_arg "Det_sched.run: inconsistent resume boundary";
  if Array.length b.b_pending_ids <> Array.length b.b_pending_items then
    invalid_arg "Det_sched.run: resume boundary id/item arrays disagree";
  let in_generation id = id >= b.b_gen_base && id < b.b_next_id in
  if not (Array.for_all in_generation b.b_pending_ids) then
    invalid_arg "Det_sched.run: resume boundary pending id out of generation";
  let gen_len = b.b_next_id - b.b_gen_base in
  let slots = Array.map (fun id -> id - b.b_gen_base) b.b_pending_ids in
  let seen = Bytes.make gen_len '\000' in
  Array.iter
    (fun s ->
      if Bytes.get seen s <> '\000' then
        invalid_arg "Det_sched.run: resume boundary pending id repeated";
      Bytes.set seen s '\001')
    slots;
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
  rank_children [| todo |] (fun _ _ _ -> ());
  st.rounds <- b.b_rounds;
  st.generations <- b.b_generations;
  st.buckets <- b.b_buckets;
  st.next_id <- b.b_next_id;
  st.gen_base <- b.b_gen_base;
  st.window <- b.b_window;
  st.digest <- b.b_digest;
  List.iter (fun f -> f.Obs.set st.carry (f.Obs.get b.b_counters)) Obs.det_counters;
  env.child_buffers.(0) <- todo;
  let n = Array.length slots in
  if n > 0 then begin
    (* Rebuild the current generation's pending suffix in captured
       deque order (spread-permuted, not id order); the committed slots
       keep a filler item nothing reads. *)
    st.items <- Array.make gen_len b.b_pending_items.(0);
    Array.iteri (fun i s -> st.items.(s) <- b.b_pending_items.(i)) slots;
    st.reg <- Array.make gen_len (-1);
    if b.b_delta > 0 then begin
      (* Soft-priority generation: the captured deque order is
         run-contiguous (windows never straddle runs), so grouping
         consecutive equal buckets reconstructs the run table. The
         current run was already opened (and digest-folded) before the
         boundary, so it is not re-opened here. *)
      let bucket i = bucket_of ~delta:b.b_delta (env.prio_of b.b_pending_items.(i)) in
      Pending.load_runs st.pending slots (group_runs n bucket);
      st.delta <- b.b_delta
    end
    else Pending.load st.pending slots
  end;
  if env.tracing then
    env.emit (Obs.Resumed { round = b.b_rounds; digest = Trace_digest.to_hex b.b_digest })

(* The state a resume needs to replay round [rounds + 1] onward. Called
   from the sequential glue only, after compaction and window adaptation
   — [st.window] is the next round's window. The todo is written in
   (parent id, birth index) rank order, so the boundary — and its
   encoded bytes — do not depend on which worker buffered which child. *)
let capture env st =
  let np = Pending.length st.pending and nt = child_count env.child_buffers in
  let parents = Array.make nt 0 and births = Array.make nt 0 in
  let items = if nt = 0 then [||] else Array.make nt (some_child env.child_buffers) in
  rank_children env.child_buffers (fun r buf i ->
      parents.(r) <- Child_buffer.parent buf i;
      births.(r) <- Child_buffer.birth buf i;
      items.(r) <- Child_buffer.item buf i);
  {
    b_rounds = st.rounds;
    b_generations = st.generations;
    b_buckets = st.buckets;
    b_next_id = st.next_id;
    b_gen_base = st.gen_base;
    b_window = st.window;
    b_delta = (if np = 0 then 0 else st.delta);
    b_digest = st.digest;
    b_pending_ids = Array.init np (fun i -> st.gen_base + Pending.get st.pending i);
    b_pending_items = Array.init np (fun i -> st.items.(Pending.get st.pending i));
    b_todo_parents = parents;
    b_todo_births = births;
    b_todo_items = items;
    b_counters =
      Obs.sum_counters ~fields:Obs.det_counters (Array.append [| st.carry |] env.workers);
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

(* Generation formation: rank the buffered children into a new
   generation laid out in pending-deque order (spread permutation, or
   bucket runs under soft priority) and fold it into the digest. *)
let form env st =
  st.generations <- st.generations + 1;
  let { Policy.spread; initial_window; priority; _ } = env.options in
  let items, slots, runs, delta =
    form_generation ~static_id:env.static_id ~spread ~priority ~prio_of:env.prio_of
      env.child_buffers
  in
  Array.iter Child_buffer.clear env.child_buffers;
  let gen_len = Array.length items in
  st.items <- items;
  if Array.length st.reg < gen_len then st.reg <- Array.make gen_len (-1);
  st.gen_base <- st.next_id;
  st.next_id <- st.next_id + gen_len;
  st.delta <- delta;
  if delta = 0 then Pending.load st.pending slots else Pending.load_runs st.pending slots runs;
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

(* Inspect window position [i] on worker [w]: run the task up to its
   failsafe point, resetting the position's column entries. *)
let inspect_task env st ~stamp w i =
  let c = st.cols and ctx = env.contexts.(w) in
  let s = Pending.get st.pending i in
  Context.reset ctx ~phase:Inspect ~task_id:(st.gen_base + s) ~stamp ~saved:None;
  Context.set_on_defeat ctx env.defeat;
  env.workers.(w).inspections <- env.workers.(w).inspections + 1;
  (match env.operator ctx st.items.(s) with
  | () ->
      (* No failsafe point reached: a read-only task. Its whole
         execution — including pushes — happened now; commit just
         publishes the children if selected. *)
      c.pure.(i) <- true;
      c.children.(i) <- Context.pushed_into ctx c.children.(i);
      c.n_children.(i) <- Context.pushed_count ctx
  | exception Context.Failsafe_reached -> c.pure.(i) <- false);
  if Context.keeps_inspected ctx then
    c.neighborhoods.(i) <- Context.neighborhood_into ctx c.neighborhoods.(i);
  c.n_locks.(i) <- Context.neighborhood_count ctx;
  c.inspect_work.(i) <- Context.work_units ctx;
  c.commit_work.(i) <- 0;
  if env.options.continuation then c.saved.(i) <- Context.saved ctx

let inspect env st ~stamp ~w_use =
  let t_inspect = if env.tracing then Clock.now_s () else 0.0 in
  par_iter env.pool ~threads:env.threads ~workers:env.workers ~pending:st.pending w_use
    (inspect_task env st ~stamp);
  if env.tracing then begin
    let dt_s = Clock.elapsed_s t_inspect in
    let c = st.cols and marked = ref 0 and saved = ref 0 in
    for i = 0 to w_use - 1 do
      marked := !marked + c.n_locks.(i);
      if Option.is_some c.saved.(i) then incr saved
    done;
    env.emit
      (Obs.Inspect_done { round = st.rounds; marked = !marked; saved_continuations = !saved });
    env.emit (Obs.Phase_time { round = st.rounds; phase = Obs.Inspect; dt_s })
  end

(* --- selectAndExec --------------------------------------------------
   Surviving marks are NOT released: the next round's fresh epoch makes
   them stale wholesale, deleting one CAS per held lock per task per
   round from the former mark-clearing pass. *)
let select_task env st ~stamp w i =
  let c = st.cols and stats = env.workers.(w) and ctx = env.contexts.(w) in
  let buf = env.child_buffers.(w) in
  let s = Pending.get st.pending i in
  let id = st.gen_base + s in
  let selected = c.defeated.(i) <> st.rounds in
  if env.options.Policy.validate then begin
    let marks_ok = ref true in
    for k = 0 to c.n_locks.(i) - 1 do
      if not (Lock.holds c.neighborhoods.(i).(k) ~stamp id) then marks_ok := false
    done;
    if selected <> !marks_ok then
      failwith "Det_sched: defeat flags disagree with neighborhood marks"
  end;
  if selected then begin
    if c.pure.(i) then begin
      let children = c.children.(i) and n = c.n_children.(i) in
      for k = 0 to n - 1 do
        Child_buffer.push buf ~parent:id ~birth:k children.(k)
      done;
      stats.pushes <- stats.pushes + n;
      stats.work <- stats.work + c.inspect_work.(i)
    end
    else begin
      Context.reset ctx ~phase:Commit ~task_id:id ~stamp ~saved:c.saved.(i);
      env.operator ctx st.items.(s);
      stats.work <- stats.work + Context.work_units ctx;
      c.commit_work.(i) <- Context.work_units ctx;
      let n = Context.pushed_count ctx in
      for k = 0 to n - 1 do
        Child_buffer.push buf ~parent:id ~birth:k (Context.pushed_get ctx k)
      done;
      stats.pushes <- stats.pushes + n
    end;
    stats.committed <- stats.committed + 1
  end
  else stats.aborted <- stats.aborted + 1

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
               task = f.Audit.task; other = f.Audit.other }))
      fresh

let record_round st ~w_use =
  let c = st.cols in
  let record i =
    { Schedule.acquires = c.n_locks.(i); inspect_work = c.inspect_work.(i);
      commit_work = c.commit_work.(i); committed = c.defeated.(i) <> st.rounds;
      locks = Array.init c.n_locks.(i) (fun k -> Lock.id c.neighborhoods.(i).(k)) }
  in
  st.records <- Array.init w_use record :: st.records

(* One round: window setup, inspect, selectAndExec, then the sequential
   glue — digest fold, audit, compaction, run accounting, window
   adaptation and the checkpoint. *)
let round env st =
  st.rounds <- st.rounds + 1;
  (* A fresh lock epoch per round: every mark the previous round left
     behind is stale — free by construction — for this round's claims,
     which is what lets selectAndExec skip releasing. *)
  let stamp = Lock.new_epoch () in
  (* --- calculateWindow / getWindowOfTasks ---------------------------
     Under soft-priority scheduling the window is additionally capped at
     the current bucket run: rounds never mix buckets. The setup only
     registers each slot's window position; the inspecting workers reset
     the rest of the window's columns. *)
  let w_use = min st.window (Pending.window_avail st.pending) in
  if w_use > Array.length st.cols.defeated then st.cols <- make_columns w_use;
  st.w_use <- w_use;
  for i = 0 to w_use - 1 do
    st.reg.(Pending.get st.pending i) <- i
  done;
  let pushed_before = child_count env.child_buffers in
  if env.tracing then begin
    env.emit (Obs.Round_begin { round = st.rounds; window = w_use });
    env.emit
      (Obs.Chunk_sized
         { round = st.rounds; tasks = w_use;
           chunk = Parallel.Domain_pool.guided_chunk ~workers:env.threads w_use })
  end;
  inspect env st ~stamp ~w_use;
  let t_select = if env.tracing then Clock.now_s () else 0.0 in
  par_iter env.pool ~threads:env.threads ~workers:env.workers ~pending:st.pending w_use
    (select_task env st ~stamp);
  let dt_select = if env.tracing then Clock.elapsed_s t_select else 0.0 in
  (* --- sequential glue between rounds -------------------------------
     [defeated] still says which tasks were selected: defeat flags only
     change during inspect. One pass collects the committed ids and the
     executed work; the ids are then folded into the digest at once. *)
  let c = st.cols in
  let n_committed = ref 0 and exec_work = ref 0 in
  for i = 0 to w_use - 1 do
    if c.defeated.(i) <> st.rounds then begin
      c.ids.(!n_committed) <- st.gen_base + Pending.get st.pending i;
      incr n_committed;
      exec_work := !exec_work + if c.pure.(i) then c.inspect_work.(i) else c.commit_work.(i)
    end
  done;
  let n_committed = !n_committed in
  st.digest <-
    Trace_digest.fold_int
      (Trace_digest.fold_ints (Trace_digest.fold_int st.digest w_use) c.ids n_committed)
      n_committed;
  (match env.audit with
  | Some a -> audit_round env st a ~w_use ~ids:c.ids ~n:n_committed
  | None -> ());
  if env.tracing then begin
    env.emit
      (Obs.Select_done
         { round = st.rounds; committed = n_committed; defeated = w_use - n_committed });
    env.emit (Obs.Phase_time { round = st.rounds; phase = Obs.Select; dt_s = dt_select });
    env.emit
      (Obs.Execute_done
         { round = st.rounds; work = !exec_work;
           pushes = child_count env.child_buffers - pushed_before })
  end;
  if env.record then record_round st ~w_use;
  (* Failed tasks precede the untried remainder: they came from the
     window prefix, so the in-place compaction keeps the pending
     sequence in id order. *)
  let dropped = Pending.compact st.pending ~w_use ~keep:(fun i -> c.defeated.(i) = st.rounds) in
  if dropped <> n_committed then
    failwith "Det_sched: compaction dropped a task count other than the commit count";
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
let finish env st =
  (* A one-thread run never dispatches, so the pool's waits in the
     meantime belong to someone else: the caller's joins, or the run
     whose worker this run occupies. *)
  if env.threads > 1 then
    Stats.book_sync env.workers ~before:env.sync0
      ~after:(Parallel.Domain_pool.sync_counters env.pool);
  if env.tracing then Array.iter (fun c -> env.emit (Stats.counters_event c)) env.workers;
  let stats =
    Stats.merge ~digest:st.digest ~threads:env.threads ~rounds:st.rounds
      ~generations:st.generations ~buckets:st.buckets
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
  let workers = Array.init threads Obs.counters in
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
      tracing = not (Obs.Sink.is_null sink);
      emit = (fun event -> sink.Obs.emit (Clock.stamp event));
      sync0 = (if threads > 1 then Parallel.Domain_pool.sync_counters pool else [||]) }
  in
  (match resume with
  | None ->
      Array.iteri
        (fun i item -> Child_buffer.push env.child_buffers.(0) ~parent:0 ~birth:i item)
        items
  | Some b -> of_boundary env st b);
  (* One iteration per round. A generation boundary is just a round
     whose pending deque starts empty: [form] then lays out the next
     generation first, so an uninterrupted run and a resumed one take
     the same path and a resume can re-enter mid-generation. *)
  let stopped = ref false in
  while
    (not !stopped) && (Pending.length st.pending > 0 || child_count env.child_buffers > 0)
  do
    if Pending.length st.pending = 0 then form env st;
    round env st;
    match stop_after with Some r when st.rounds >= r -> stopped := true | _ -> ()
  done;
  finish env st
