(* The operator execution context (paper §2, §3.2).

   Application operators receive a context and use it to acquire abstract
   locations, declare the failsafe point, create new tasks and stash
   continuation state. The same operator code runs under all three
   execution phases; the phase changes only what [acquire] and
   [failsafe] do:

   - [Direct]    non-deterministic or serial execution (Fig. 1b):
                 acquire = exclusive claim, conflict raises.
   - [Inspect]   deterministic inspection (Fig. 2 line 14): acquire =
                 writeMarksMax; the failsafe point aborts the prefix.
   - [Commit]    deterministic select-and-execute (Fig. 3): acquire =
                 verify the mark still carries our id.

   A context is per-worker scratch state, reused across every task the
   worker runs: the neighborhood and push buffers are growable arrays
   whose capacity survives [reset], so a warmed-up context executes
   tasks without allocating. (The buffers keep references to the last
   task's locks/items until overwritten — bounded by one task's
   footprint, and the scheduler holds those objects anyway.)

   An [Inspect]-phase acquisition always counts the location, but
   stores it only when [keep_inspected] is set: the DIG scheduler reads
   inspected neighborhoods only to record schedules or validate the
   defeat flags, so plain runs skip the store and the copy out. *)

exception Conflict
(* Raised to the scheduler when a task loses a location. *)

exception Not_cautious
(* The operator acquired a location after its failsafe point, violating
   the cautiousness contract (§2). *)

exception Failsafe_reached
(* Internal: terminates inspect-phase execution at the failsafe point. *)

type phase = Direct | Inspect | Commit

type ('item, 'state) t = {
  mutable phase : phase;
  mutable task_id : int;
  mutable stamp : int;  (* Lock epoch all claims run under *)
  mutable stats : Stats.worker;
  mutable neighborhood : Lock.t array;  (* first [neighborhood_size] valid *)
  mutable neighborhood_size : int;  (* acquisitions, stored or not *)
  mutable keep_inspected : bool;  (* store Inspect-phase acquisitions *)
  mutable past_failsafe : bool;
  mutable saved : 'state option;
  mutable pushed : 'item array;  (* first [pushed_count] valid, push order *)
  mutable pushed_count : int;
  mutable work_units : int;
  mutable on_defeat : int -> unit;
  (* Audit recorder tape, set once per run by the DIG scheduler when
     auditing is on. [None] (the default) keeps acquire/touch at one
     predictable branch — no recorder allocation on the hot path. *)
  mutable tape : Audit.tape option;
}

let no_defeat (_ : int) = ()

let create () =
  {
    phase = Direct;
    task_id = 1;
    stamp = 0;  (* claims before the first [reset] are a usage error *)
    stats = Obs.counters 0;
    neighborhood = [||];
    neighborhood_size = 0;
    keep_inspected = true;
    past_failsafe = false;
    saved = None;
    pushed = [||];
    pushed_count = 0;
    work_units = 0;
    on_defeat = no_defeat;
    tape = None;
  }

let reset t ~phase ~task_id ~stamp ~saved =
  t.phase <- phase;
  t.task_id <- task_id;
  t.stamp <- stamp;
  t.neighborhood_size <- 0;
  t.past_failsafe <- false;
  t.saved <- saved;
  t.pushed_count <- 0;
  t.work_units <- 0;
  t.on_defeat <- no_defeat

(* Append to the neighborhood scratch, doubling capacity as needed; the
   appended lock doubles as the [Array.make] filler so an empty buffer
   needs no dummy element. *)
let add_lock t lock =
  let n = t.neighborhood_size in
  if n = Array.length t.neighborhood then begin
    let fresh = Array.make (max 8 (2 * n)) lock in
    Array.blit t.neighborhood 0 fresh 0 n;
    t.neighborhood <- fresh
  end;
  t.neighborhood.(n) <- lock;
  t.neighborhood_size <- n + 1

let acquire t lock =
  if t.past_failsafe then raise Not_cautious;
  t.stats.acquires <- t.stats.acquires + 1;
  match t.phase with
  | Direct ->
      t.stats.atomics <- t.stats.atomics + 1;
      if Lock.try_claim lock ~stamp:t.stamp t.task_id then add_lock t lock
      else raise Conflict
  | Inspect ->
      t.stats.atomics <- t.stats.atomics + 1;
      (match t.tape with
      | None -> ()
      | Some tape ->
          (* The commit phase re-verifies the same prefix; recording
             only here keeps one event per acquisition per round. *)
          Audit.record tape ~task:t.task_id ~lid:(Lock.id lock) ~kind:Audit.Acquire
            ~pre:true);
      if t.keep_inspected then add_lock t lock
      else t.neighborhood_size <- t.neighborhood_size + 1;
      let displaced = Lock.claim_max lock ~stamp:t.stamp t.task_id in
      if displaced = Lock.lost then
        (* A higher-priority task already holds the mark, so it cannot
           know about us: flag ourselves instead (§3.3 protocol). *)
        t.on_defeat t.task_id
      else if displaced <> 0 then t.on_defeat displaced
  | Commit ->
      (* The inspect phase of this very round acquired the same prefix,
         so the mark must still be ours; anything else is a scheduler
         invariant violation. *)
      if not (Lock.holds lock ~stamp:t.stamp t.task_id) then raise Conflict

(* Integrate a location created by this task (e.g. a new mesh triangle).
   Under speculative execution the fresh lock is claimed immediately so
   concurrent tasks cannot touch the new object before we finish; it is
   released with the rest of the neighborhood. Deterministic commits need
   nothing: other committed tasks have disjoint, already-fixed
   neighborhoods, and later rounds start after the marks clear. *)
let register_new t lock =
  match t.phase with
  | Direct ->
      t.stats.atomics <- t.stats.atomics + 1;
      (* Strictly fresh: a stale mark from an earlier epoch proves some
         other task saw this location, so it must not pass either. *)
      if not (Lock.claim_fresh lock ~stamp:t.stamp t.task_id) then
        invalid_arg "Context.register_new: lock is not fresh";
      add_lock t lock
  | Inspect ->
      (* Object creation is a write; writes may not precede the failsafe
         point. *)
      raise Not_cautious
  | Commit -> (
      match t.tape with
      | None -> ()
      | Some tape ->
          (* A freshly created location belongs to this task's
             neighborhood: record it as acquired so commit-phase
             touches on it pass the containment check. *)
          Audit.record tape ~task:t.task_id ~lid:(Lock.id lock) ~kind:Audit.Acquire
            ~pre:false)

let failsafe t =
  if not t.past_failsafe then begin
    t.past_failsafe <- true;
    match t.phase with Inspect -> raise Failsafe_reached | Direct | Commit -> ()
  end

let push t item =
  let n = t.pushed_count in
  if n = Array.length t.pushed then begin
    let fresh = Array.make (max 8 (2 * n)) item in
    Array.blit t.pushed 0 fresh 0 n;
    t.pushed <- fresh
  end;
  t.pushed.(n) <- item;
  t.pushed_count <- n + 1

let save t state = t.saved <- Some state

let saved t = t.saved

let work t units = t.work_units <- t.work_units + units

(* Declare a shared-state access for the dynamic audit (a no-op beyond
   one branch when auditing is off). The declaration does not
   synchronize anything — it feeds the per-round containment /
   cautiousness / race checks in [Audit]. *)
let touch ?(write = true) t lock =
  match t.tape with
  | None -> ()
  | Some tape ->
      Audit.record tape ~task:t.task_id ~lid:(Lock.id lock)
        ~kind:(if write then Audit.Write else Audit.Read)
        ~pre:(not t.past_failsafe)

let phase t = t.phase

let task_id t = t.task_id

let stamp t = t.stamp

(* Internal accessors for schedulers. *)

(* How many neighborhood entries are stored: all of them, unless this
   is an inspection that only counted. *)
let stored t =
  if t.phase = Inspect && not t.keep_inspected then 0 else t.neighborhood_size

let neighborhood_array t = Array.init (stored t) (fun i -> t.neighborhood.(i))

(* Copy the neighborhood into [prev] when it fits, else into a fresh
   array: a retried task hands its previous round's array back in and
   steady-state rounds stop allocating. Slots beyond the count are
   stale; callers must use [neighborhood_count], not the array
   length. *)
let neighborhood_into t prev =
  let n = stored t in
  if n = 0 then prev
  else begin
    let dst =
      if Array.length prev >= n then prev
      else Array.make (max 8 n) t.neighborhood.(0)
    in
    Array.blit t.neighborhood 0 dst 0 n;
    dst
  end

let neighborhood_count t = t.neighborhood_size

let pushed_get t i =
  if i < 0 || i >= t.pushed_count then invalid_arg "Context.pushed_get";
  t.pushed.(i)

let pushed_list t = List.init t.pushed_count (fun i -> t.pushed.(i))

(* Same contract as [neighborhood_into], for the push buffer. *)
let pushed_into t prev =
  let n = t.pushed_count in
  if n = 0 then prev
  else begin
    let dst =
      if Array.length prev >= n then prev else Array.make (max 8 n) t.pushed.(0)
    in
    Array.blit t.pushed 0 dst 0 n;
    dst
  end

let pushed_count t = t.pushed_count
let work_units t = t.work_units
let reached_failsafe t = t.past_failsafe
let set_on_defeat t f = t.on_defeat <- f
let set_stats t stats = t.stats <- stats
let set_tape t tape = t.tape <- tape
let set_keep_inspected t keep = t.keep_inspected <- keep
let keeps_inspected t = t.keep_inspected

let release_all t =
  for i = 0 to t.neighborhood_size - 1 do
    Lock.release t.neighborhood.(i) ~stamp:t.stamp t.task_id
  done
