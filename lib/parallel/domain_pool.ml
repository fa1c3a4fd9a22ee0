(* A fixed pool of domains executing SPMD jobs.

   Dispatch and join use a spin-then-park protocol: waiters spin a
   bounded number of [Domain.cpu_relax] iterations on an atomic word
   (the job generation, or the remaining-worker count) and only then
   fall back to the original mutex/condvar slow path. The fast path
   turns the SPMD dispatches of a scheduler round (up to two) from four mutex
   round-trips per worker into a couple of atomic reads when cores are
   available, while the park fallback keeps the pool well-behaved when
   domains outnumber cores (the common case in the reproduction
   container).

   Lost-wakeup freedom, in terms of OCaml's SC atomics: a waiter
   increments its parked counter (under the mutex) and re-checks the
   waited-on word *after* the increment, while the signaler updates the
   word first and reads the parked counter afterwards, broadcasting
   under the mutex. If the signaler reads parked = 0, the waiter's
   increment — and hence its re-check — came after the word update in
   the SC total order, so the re-check sees the update and never waits.
   If the signaler reads parked > 0 it broadcasts while holding the
   mutex, which the waiter holds from before its re-check until
   [Condition.wait] atomically releases it, so the broadcast cannot fall
   between the re-check and the wait.

   The caller participates as worker 0, so a pool of size [n] spawns
   [n - 1] domains. *)

type job = int -> unit

(* Per-worker synchronization counters (one record per worker, so no
   cross-worker write sharing): [spins] counts wakeups served entirely
   by the spin fast path, [parks] waits that fell back to the condvar.
   Slot 0 belongs to the caller's join waits. *)
type counters = { mutable spins : int; mutable parks : int }

type t = {
  size : int;
  spin : int;  (* cpu_relax budget before parking *)
  mutex : Mutex.t;
  job_ready : Condition.t;
  job_done : Condition.t;
  mutable job : job;  (* plain write, published by the [generation] bump *)
  generation : int Atomic.t;
  remaining : int Atomic.t;
  parked : int Atomic.t;  (* workers parked on [job_ready] *)
  joiner_parked : int Atomic.t;  (* callers parked on [job_done] *)
  stop : bool Atomic.t;
  mutable failure : exn option;  (* mutex-protected writes *)
  counters : counters array;
  mutable domains : unit Domain.t list;
}

let default_spin = 512

(* Spinning only pays when the signaling and the waiting domain can run
   simultaneously. When the participants outnumber the machine's cores,
   every relax iteration steals the one core the signaler needs, so the
   oversubscription-safe default is to park immediately. *)
let adaptive_spin ~participants =
  if participants <= Domain.recommended_domain_count () then default_spin else 0

let record_failure t exn =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.mutex

(* Wake any parked workers after updating the waited-on word. Reading
   the parked counter after the (SC) word update makes the 0 case safe;
   broadcasting under the mutex makes the > 0 case safe (see header). *)
let wake t parked_counter cond =
  if Atomic.get parked_counter > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast cond;
    Mutex.unlock t.mutex
  end

(* Spin-then-park until [ready ()]. [ready] must read only SC atomics.
   Returns [true] when the fast path sufficed. *)
let await t c ~parked_counter ~cond ready =
  let rec spin k =
    if ready () then begin
      c.spins <- c.spins + 1;
      true
    end
    else if k > 0 then begin
      Domain.cpu_relax ();
      spin (k - 1)
    end
    else begin
      Mutex.lock t.mutex;
      Atomic.incr parked_counter;
      while not (ready ()) do
        Condition.wait cond t.mutex
      done;
      Atomic.decr parked_counter;
      Mutex.unlock t.mutex;
      c.parks <- c.parks + 1;
      false
    end
  in
  ignore (spin t.spin : bool)

let worker_loop t index =
  let c = t.counters.(index) in
  let seen = ref 0 in
  let running = ref true in
  while !running do
    await t c ~parked_counter:t.parked ~cond:t.job_ready (fun () ->
        Atomic.get t.generation <> !seen || Atomic.get t.stop);
    if Atomic.get t.stop then running := false
    else begin
      seen := Atomic.get t.generation;
      (* The atomic generation read orders this plain [job] load after
         the caller's plain store (release/acquire through the SC
         bump). *)
      let job = t.job in
      (try job index with exn -> record_failure t exn);
      if Atomic.fetch_and_add t.remaining (-1) = 1 then
        wake t t.joiner_parked t.job_done
    end
  done

let create ?spin size =
  if size <= 0 then invalid_arg "Domain_pool.create: size must be positive";
  let spin =
    match spin with Some s -> s | None -> adaptive_spin ~participants:size
  in
  if spin < 0 then invalid_arg "Domain_pool.create: spin must be >= 0";
  let t =
    {
      size;
      spin;
      mutex = Mutex.create ();
      job_ready = Condition.create ();
      job_done = Condition.create ();
      job = ignore;
      generation = Atomic.make 0;
      remaining = Atomic.make 0;
      parked = Atomic.make 0;
      joiner_parked = Atomic.make 0;
      stop = Atomic.make false;
      failure = None;
      counters = Array.init size (fun _ -> { spins = 0; parks = 0 });
      domains = [];
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.size

let sync_counters t = Array.map (fun c -> (c.spins, c.parks)) t.counters

let run t job =
  if Atomic.get t.stop then invalid_arg "Domain_pool.run: pool is shut down";
  t.failure <- None;
  t.job <- job;
  Atomic.set t.remaining (t.size - 1);
  Atomic.incr t.generation;
  wake t t.parked t.job_ready;
  (try job 0 with exn -> record_failure t exn);
  if t.size > 1 then
    await t t.counters.(0) ~parked_counter:t.joiner_parked ~cond:t.job_done
      (fun () -> Atomic.get t.remaining = 0);
  (* [remaining] reaching 0 orders every worker's [record_failure]
     before this plain read. *)
  let failure = t.failure in
  t.job <- ignore;
  match failure with None -> () | Some exn -> raise exn

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    wake t t.parked t.job_ready;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?spin size f =
  let t = create ?spin size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Guided chunk size: aim for several grabs per worker (cheap load
   balancing against uneven task costs) without letting small ranges
   degenerate into per-index contention on the shared counter. *)
let guided_chunk ~workers n = max 4 (min 1024 (n / (workers * 8)))

let parallel_for ?chunk t lo hi body =
  if hi > lo then begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> guided_chunk ~workers:t.size (hi - lo)
    in
    let next = Atomic.make lo in
    run t (fun _worker ->
        let continue_ = ref true in
        while !continue_ do
          let start = Atomic.fetch_and_add next chunk in
          if start >= hi then continue_ := false
          else
            for i = start to min (start + chunk) hi - 1 do
              body i
            done
        done)
  end

let parallel_for_workers t lo hi body =
  if hi > lo then
    run t (fun worker ->
        (* Contiguous static split: worker w gets one slice, preserving
           spatial locality of the index range. *)
        let n = hi - lo in
        let per = n / t.size and rem = n mod t.size in
        let start = lo + (worker * per) + min worker rem in
        let len = per + if worker < rem then 1 else 0 in
        if len > 0 then body worker start (start + len))
