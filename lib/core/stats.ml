(* Execution statistics.

   Workers own private counter records (no sharing, no false-sharing
   hazards beyond allocation placement); the runtime merges them after
   the parallel phase. These counters feed the paper's Figures 4 and 5
   (task rates, abort ratios, rounds, atomic update rates). *)

type worker = {
  mutable committed : int;  (* tasks that executed to completion *)
  mutable aborted : int;  (* conflict aborts / failed round selections *)
  mutable acquires : int;  (* neighborhood mark operations *)
  mutable atomic_updates : int;  (* CAS-class operations on shared words *)
  mutable work : int;  (* abstract work units reported by operators *)
  mutable pushes : int;  (* tasks created *)
  mutable inspections : int;  (* deterministic-scheduler inspect executions *)
  mutable chunks : int;  (* chunk grabs in dynamic parallel iteration *)
  mutable spins : int;  (* pool wakeups served by the spin fast path *)
  mutable parks : int;  (* pool waits that fell back to the condvar *)
}

let make_worker () =
  {
    committed = 0;
    aborted = 0;
    acquires = 0;
    atomic_updates = 0;
    work = 0;
    pushes = 0;
    inspections = 0;
    chunks = 0;
    spins = 0;
    parks = 0;
  }

(* Book the pool's spin/park counts accrued between two
   [Domain_pool.sync_counters] snapshots to the workers the run used
   (extra idle pool workers go unreported). *)
let book_sync workers ~before ~after =
  Array.iteri
    (fun w st ->
      let s0, p0 = before.(w) and s1, p1 = after.(w) in
      st.spins <- s1 - s0;
      st.parks <- p1 - p0)
    workers

let counters_event w st =
  Obs.Worker_counters
    {
      worker = w;
      committed = st.committed;
      aborted = st.aborted;
      acquires = st.acquires;
      atomics = st.atomic_updates;
      work = st.work;
      pushes = st.pushes;
      inspections = st.inspections;
      chunks = st.chunks;
      spins = st.spins;
      parks = st.parks;
    }

(* Wall-clock breakdown of a run across scheduler phases. For the DIG
   scheduler [inspect_s]/[select_s] accumulate the two parallel phases
   and [other_s] is everything else (generation sort, sequential round
   glue, window adaptation); serial and speculative runs book all their
   time under [select_s] (execution). The three fields always sum to
   [time_s]. *)
type phase_times = { inspect_s : float; select_s : float; other_s : float }

let no_phases = { inspect_s = 0.0; select_s = 0.0; other_s = 0.0 }

let breakdown ~inspect_s ~select_s ~time_s =
  let inspect_s = Float.max 0.0 inspect_s
  and select_s = Float.max 0.0 select_s in
  { inspect_s; select_s; other_s = Float.max 0.0 (time_s -. inspect_s -. select_s) }

let phase_total p = p.inspect_s +. p.select_s +. p.other_s

type t = {
  threads : int;
  commits : int;
  aborts : int;
  acquired : int;
  atomics : int;
  work_units : int;
  created : int;
  inspected : int;
  spins : int;  (* pool-synchronization wakeups served by spinning *)
  parks : int;  (* pool-synchronization waits that parked on a condvar *)
  rounds : int;  (* deterministic scheduler rounds (0 for nondet/serial) *)
  generations : int;  (* sort generations of the deterministic scheduler *)
  buckets : int;
      (* soft-priority buckets opened by the deterministic scheduler
         (0 when prio=off or for nondet/serial) *)
  digest : Trace_digest.t;
      (* Round-trace digest of the deterministic scheduler
         ([Trace_digest.absent] for nondet/serial): an FNV-1a fold of
         every round's window size, commit count and committed task ids.
         Two deterministic runs took the same schedule iff their digests
         agree — the O(1) comparison the determinism audit relies on. *)
  time_s : float;  (* wall-clock of the parallel section *)
  phases : phase_times;  (* where [time_s] went, per scheduler phase *)
}

let merge ?(digest = Trace_digest.absent) ?phases ?(buckets = 0) ~threads ~rounds
    ~generations ~time_s workers =
  let commits = ref 0
  and aborts = ref 0
  and acquired = ref 0
  and atomics = ref 0
  and work_units = ref 0
  and created = ref 0
  and inspected = ref 0
  and spins = ref 0
  and parks = ref 0 in
  Array.iter
    (fun w ->
      commits := !commits + w.committed;
      aborts := !aborts + w.aborted;
      acquired := !acquired + w.acquires;
      atomics := !atomics + w.atomic_updates;
      work_units := !work_units + w.work;
      created := !created + w.pushes;
      inspected := !inspected + w.inspections;
      spins := !spins + w.spins;
      parks := !parks + w.parks)
    workers;
  {
    threads;
    commits = !commits;
    aborts = !aborts;
    acquired = !acquired;
    atomics = !atomics;
    work_units = !work_units;
    created = !created;
    inspected = !inspected;
    spins = !spins;
    parks = !parks;
    rounds;
    generations;
    buckets;
    digest;
    time_s;
    phases =
      (match phases with
      | Some p -> p
      | None -> breakdown ~inspect_s:0.0 ~select_s:0.0 ~time_s);
  }

(* Combine reports of consecutive executions (e.g. the epochs of
   preflow-push) into one summary. *)
let add a b =
  {
    threads = max a.threads b.threads;
    commits = a.commits + b.commits;
    aborts = a.aborts + b.aborts;
    acquired = a.acquired + b.acquired;
    atomics = a.atomics + b.atomics;
    work_units = a.work_units + b.work_units;
    created = a.created + b.created;
    inspected = a.inspected + b.inspected;
    spins = a.spins + b.spins;
    parks = a.parks + b.parks;
    rounds = a.rounds + b.rounds;
    generations = a.generations + b.generations;
    buckets = a.buckets + b.buckets;
    digest = Trace_digest.combine a.digest b.digest;
    time_s = a.time_s +. b.time_s;
    phases =
      {
        inspect_s = a.phases.inspect_s +. b.phases.inspect_s;
        select_s = a.phases.select_s +. b.phases.select_s;
        other_s = a.phases.other_s +. b.phases.other_s;
      };
  }

let zero threads =
  {
    threads;
    commits = 0;
    aborts = 0;
    acquired = 0;
    atomics = 0;
    work_units = 0;
    created = 0;
    inspected = 0;
    spins = 0;
    parks = 0;
    rounds = 0;
    generations = 0;
    buckets = 0;
    digest = Trace_digest.absent;
    time_s = 0.0;
    phases = no_phases;
  }

let abort_ratio t =
  let attempts = t.commits + t.aborts in
  if attempts = 0 then 0.0 else float_of_int t.aborts /. float_of_int attempts

let commits_per_us t = if t.time_s <= 0.0 then 0.0 else float_of_int t.commits /. (t.time_s *. 1e6)

let atomics_per_us t = if t.time_s <= 0.0 then 0.0 else float_of_int t.atomics /. (t.time_s *. 1e6)

let pp_phases ppf p =
  Fmt.pf ppf "phases inspect=%.4fs select=%.4fs other=%.4fs" p.inspect_s
    p.select_s p.other_s

(* The digest line only means something for deterministic runs; for
   serial/nondet ([Trace_digest.absent]) show the phase breakdown
   without a misleading "digest=-". *)
let pp_digest ppf d =
  if not (Trace_digest.is_absent d) then Fmt.pf ppf " digest=%a" Trace_digest.pp d

(* Bucket count only appears under soft-priority scheduling; suppress
   the column for the (common) unordered runs. *)
let pp_buckets ppf b = if b > 0 then Fmt.pf ppf " buckets=%d" b

let pp ppf t =
  Fmt.pf ppf
    "@[<v>threads=%d commits=%d aborts=%d (ratio %.4f)@ acquires=%d atomics=%d work=%d created=%d@ \
     inspections=%d rounds=%d generations=%d%a spins=%d parks=%d%a time=%.4fs@ %a@]"
    t.threads t.commits t.aborts (abort_ratio t) t.acquired t.atomics t.work_units t.created
    t.inspected t.rounds t.generations pp_buckets t.buckets t.spins t.parks pp_digest
    t.digest t.time_s pp_phases t.phases
