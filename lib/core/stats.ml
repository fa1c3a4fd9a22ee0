(* Execution statistics.

   Workers own private counter records (no sharing, no false-sharing
   hazards beyond allocation placement); the runtime merges them after
   the parallel phase. These counters feed the paper's Figures 4 and 5
   (task rates, abort ratios, rounds, atomic update rates).

   A report holds counts and the digest only: no clock reading. Wall
   and phase times are timing, not schedule, and travel on one channel,
   the [Obs.Phase_time] events a traced run emits; a caller that wants
   a run's wall time measures around the call. *)

type worker = Obs.counters

(* Book the pool's spin/park counts accrued between two
   [Domain_pool.sync_counters] snapshots to the workers the run used
   (extra idle pool workers go unreported). *)
let book_sync workers ~before ~after =
  Array.iteri
    (fun w (st : worker) ->
      let s0, p0 = before.(w) and s1, p1 = after.(w) in
      st.spins <- s1 - s0;
      st.parks <- p1 - p0)
    workers

(* A copy, so the event cannot change under a sink that keeps it. *)
let counters_event (c : worker) = Obs.Worker_counters { c with worker = c.worker }

type t = {
  threads : int;
  commits : int;
  aborts : int;
  acquired : int;
  atomics : int;
  work_units : int;
  created : int;
  inspected : int;
  chunks : int;  (* dynamic chunk grabs of the DIG parallel phases *)
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
}

let merge ?(digest = Trace_digest.absent) ?(buckets = 0) ~threads ~rounds ~generations
    workers =
  let c = Obs.sum_counters workers in
  {
    threads;
    commits = c.committed;
    aborts = c.aborted;
    acquired = c.acquires;
    atomics = c.atomics;
    work_units = c.work;
    created = c.pushes;
    inspected = c.inspections;
    chunks = c.chunks;
    spins = c.spins;
    parks = c.parks;
    rounds;
    generations;
    buckets;
    digest;
  }

(* The inverse of [merge]'s projection: [t]'s counters as one record. *)
let totals t : worker =
  { (Obs.counters 0) with committed = t.commits; aborted = t.aborts; acquires = t.acquired;
    atomics = t.atomics; work = t.work_units; pushes = t.created; inspections = t.inspected;
    chunks = t.chunks; spins = t.spins; parks = t.parks }

(* Combine reports of consecutive executions (e.g. the epochs of
   preflow-push) into one summary. *)
let add a b =
  merge
    ~digest:(Trace_digest.combine a.digest b.digest)
    ~buckets:(a.buckets + b.buckets) ~threads:(max a.threads b.threads)
    ~rounds:(a.rounds + b.rounds) ~generations:(a.generations + b.generations)
    [| totals a; totals b |]

let zero threads = merge ~threads ~rounds:0 ~generations:0 [||]

let abort_ratio t =
  let attempts = t.commits + t.aborts in
  if attempts = 0 then 0.0 else float_of_int t.aborts /. float_of_int attempts

(* The digest only means something for deterministic runs; for
   serial/nondet ([Trace_digest.absent]) omit it rather than print a
   misleading "digest=-". *)
let pp_digest ppf d =
  if not (Trace_digest.is_absent d) then Fmt.pf ppf " digest=%a" Trace_digest.pp d

(* Bucket count only appears under soft-priority scheduling; suppress
   the column for the (common) unordered runs. *)
let pp_buckets ppf b = if b > 0 then Fmt.pf ppf " buckets=%d" b

let pp ppf t =
  Fmt.pf ppf
    "@[<v>threads=%d commits=%d aborts=%d (ratio %.4f)@ acquires=%d atomics=%d work=%d created=%d@ \
     inspections=%d rounds=%d generations=%d%a spins=%d parks=%d%a@]"
    t.threads t.commits t.aborts (abort_ratio t) t.acquired t.atomics t.work_units t.created
    t.inspected t.rounds t.generations pp_buckets t.buckets t.spins t.parks pp_digest
    t.digest
