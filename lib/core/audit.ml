(* Dynamic determinism audit: a shadow access recorder for the DIG
   scheduler (the runtime half of the detlint/audit pair).

   The paper's determinism guarantee rests on an *unchecked* contract:
   operators must be cautious and must acquire every abstract location
   they touch (§2, §3.3). [Context.Not_cautious] only catches late
   acquires; nothing catches a write to a location that was never
   acquired at all. When auditing is on, every worker context carries a
   [tape] — a flat, growable int buffer of (task id, location id,
   flags) triples — into which [Context.acquire] and the operator-facing
   [Context.touch] record the task's footprint. The scheduler drains the
   tapes in its sequential end-of-round glue and checks three
   properties against the committed set:

   - {e cautiousness}: no shared write before the failsafe point, even
     to an acquired location (checked for every inspected task — a
     defeated task's pre-failsafe write already mutated the world);
   - {e containment}: every location a committed task touched is in its
     acquired neighborhood;
   - {e race}: no two distinct committed tasks of the same round
     overlap on a location with at least one writer. Acquires count as
     writers (exclusive intent), so this doubles as an independent
     check of the scheduler's disjoint-neighborhood invariant — it
     needs no operator instrumentation to be non-vacuous.

   Recording is allocation-free on the hot path (amortized tape growth
   only); when auditing is off the context's tape is [None] and the
   only cost is one branch per acquire/touch. All checking runs in the
   sequential glue, so tapes are strictly per-worker and need no
   synchronization.

   Findings are deterministic: per-task event sets are deduplicated and
   sorted by (location id, flags), tasks and locations are visited in
   ascending id order, so the finding sequence is a pure function of
   the schedule (which is itself deterministic) and the location ids,
   which follow the order in which the process created its locations. *)

type kind = Acquire | Read | Write

type rule = Containment | Cautiousness | Race

let rule_name = function
  | Containment -> "containment"
  | Cautiousness -> "cautiousness"
  | Race -> "race"

type finding = {
  rule : rule;
  round : int;
  task : int;
  other : int;  (* race partner (lower id), 0 otherwise *)
  lid : int;
}

let pp_finding ppf f =
  if f.rule = Race then
    Fmt.pf ppf "round %d: race on location %d between tasks %d and %d" f.round f.lid
      f.other f.task
  else
    Fmt.pf ppf "round %d: %s violation by task %d at location %d" f.round
      (rule_name f.rule) f.task f.lid

type report = {
  findings : finding list;
  rounds : int;
  tasks : int;
  dropped : int;
}

let empty_report = { findings = []; rounds = 0; tasks = 0; dropped = 0 }

let merge_reports a b =
  {
    findings = a.findings @ b.findings;
    rounds = a.rounds + b.rounds;
    tasks = a.tasks + b.tasks;
    dropped = a.dropped + b.dropped;
  }

let clean r = r.findings = [] && r.dropped = 0

(* Per-worker event tape: triples of (task, lid, flags) flattened into
   one int array. Bits 0-1 of flags encode the kind, bit 2 marks a
   pre-failsafe access. *)

type tape = { mutable buf : int array; mutable len : int }

let flags_of ~kind ~pre =
  (match kind with Acquire -> 0 | Read -> 1 | Write -> 2)
  lor (if pre then 4 else 0)

let kind_of_flags flags =
  match flags land 3 with 0 -> Acquire | 1 -> Read | _ -> Write

let pre_of_flags flags = flags land 4 <> 0

let record tape ~task ~lid ~kind ~pre =
  let n = tape.len in
  if n + 3 > Array.length tape.buf then begin
    let fresh = Array.make (max 256 (2 * Array.length tape.buf)) 0 in
    Array.blit tape.buf 0 fresh 0 n;
    tape.buf <- fresh
  end;
  tape.buf.(n) <- task;
  tape.buf.(n + 1) <- lid;
  tape.buf.(n + 2) <- flags_of ~kind ~pre;
  tape.len <- n + 3

type t = {
  mutable tapes : tape array;
  mutable findings_rev : finding list;
  mutable n_findings : int;
  mutable dropped : int;
  mutable rounds : int;
  mutable tasks : int;
}

(* Findings retained per run; the excess is counted in [dropped]. *)
let limit = 10_000

let create () =
  {
    tapes = [||];
    findings_rev = [];
    n_findings = 0;
    dropped = 0;
    rounds = 0;
    tasks = 0;
  }

(* The scheduler asks for one tape per worker slot in its sequential
   setup; the registry grows to fit. *)
let tape t w =
  if w < 0 then invalid_arg "Audit.tape: negative worker index";
  let n = Array.length t.tapes in
  if w >= n then begin
    let fresh = Array.init (w + 1) (fun _ -> { buf = [||]; len = 0 }) in
    Array.blit t.tapes 0 fresh 0 n;
    t.tapes <- fresh
  end;
  t.tapes.(w)

(* ------------------------------------------------------------------ *)
(* End-of-round checking                                               *)
(* ------------------------------------------------------------------ *)

(* Per-task canonical footprint, rebuilt each round from the tapes.
   Iteration never goes through Hashtbl.iter/fold (bucket order is
   exactly the nondeterminism this library polices): explicit order
   lists carry the visit order, tables only answer membership. *)
type task_rec = {
  acquired : (int, unit) Hashtbl.t;
  seen : (int, unit) Hashtbl.t;  (* dedup key: (lid lsl 3) lor flags *)
  mutable events_rev : (int * int) list;  (* (lid, flags) *)
}

type lid_rec = { mutable writers : int list; mutable readers : int list }

let end_round t ~round ~inspected ~committed =
  t.rounds <- t.rounds + 1;
  t.tasks <- t.tasks + inspected;
  let by_task : (int, task_rec) Hashtbl.t = Hashtbl.create 64 in
  let task_ids = ref [] in
  let rec_of id =
    match Hashtbl.find_opt by_task id with
    | Some r -> r
    | None ->
        let r =
          { acquired = Hashtbl.create 8; seen = Hashtbl.create 8; events_rev = [] }
        in
        Hashtbl.add by_task id r;
        task_ids := id :: !task_ids;
        r
  in
  Array.iter
    (fun tape ->
      let i = ref 0 in
      while !i < tape.len do
        let task = tape.buf.(!i)
        and lid = tape.buf.(!i + 1)
        and flags = tape.buf.(!i + 2) in
        let r = rec_of task in
        if flags land 3 = 0 then
          (if not (Hashtbl.mem r.acquired lid) then Hashtbl.add r.acquired lid ());
        let key = (lid lsl 3) lor flags in
        if not (Hashtbl.mem r.seen key) then begin
          Hashtbl.add r.seen key ();
          r.events_rev <- (lid, flags) :: r.events_rev
        end;
        i := !i + 3
      done;
      tape.len <- 0)
    t.tapes;
  let fresh_rev = ref [] in
  let n_fresh = ref 0 in
  let emit rule ~task ~other ~lid =
    if t.n_findings + !n_fresh >= limit then t.dropped <- t.dropped + 1
    else begin
      fresh_rev := { rule; round; task; other; lid } :: !fresh_rev;
      incr n_fresh
    end
  in
  let sorted_events r =
    List.sort compare (List.rev r.events_rev)
  in
  (* Cautiousness: any pre-failsafe write, by any inspected task. *)
  List.iter
    (fun id ->
      let r = Hashtbl.find by_task id in
      List.iter
        (fun (lid, flags) ->
          if kind_of_flags flags = Write && pre_of_flags flags then
            emit Cautiousness ~task:id ~other:0 ~lid)
        (sorted_events r))
    (List.sort compare !task_ids);
  (* Containment and race concern committed tasks only. *)
  let lid_tbl : (int, lid_rec) Hashtbl.t = Hashtbl.create 64 in
  let lid_order = ref [] in
  let lid_rec_of lid =
    match Hashtbl.find_opt lid_tbl lid with
    | Some r -> r
    | None ->
        let r = { writers = []; readers = [] } in
        Hashtbl.add lid_tbl lid r;
        lid_order := lid :: !lid_order;
        r
  in
  Array.iter
    (fun id ->
      match Hashtbl.find_opt by_task id with
      | None -> ()
      | Some r ->
          List.iter
            (fun (lid, flags) ->
              (match kind_of_flags flags with
              | Acquire -> ()
              | Read | Write ->
                  if not (Hashtbl.mem r.acquired lid) then
                    emit Containment ~task:id ~other:0 ~lid);
              let lr = lid_rec_of lid in
              match kind_of_flags flags with
              | Acquire | Write ->
                  (* Acquire = exclusive intent: counts as a write, which
                     makes two committed tasks sharing an acquired
                     location — a scheduler invariant violation — a
                     race finding even without operator instrumentation. *)
                  if not (List.mem id lr.writers) then lr.writers <- id :: lr.writers
              | Read ->
                  if not (List.mem id lr.readers) then lr.readers <- id :: lr.readers)
            (sorted_events r))
    committed;
  List.iter
    (fun lid ->
      let lr = Hashtbl.find lid_tbl lid in
      let writers = List.sort compare lr.writers in
      let readers =
        List.sort compare (List.filter (fun id -> not (List.mem id lr.writers)) lr.readers)
      in
      (* Every (writer, other-task) pair with distinct ids conflicts;
         reader pairs do not. Report each pair once, anchored at the
         higher id. *)
      let parties = List.sort compare (writers @ readers) in
      List.iter
        (fun w ->
          List.iter
            (fun p ->
              if p < w then emit Race ~task:w ~other:p ~lid
              else if p > w && not (List.mem p writers) then
                emit Race ~task:p ~other:w ~lid)
            parties)
        writers)
    (List.sort compare !lid_order);
  let fresh = List.rev !fresh_rev in
  t.findings_rev <- List.rev_append fresh t.findings_rev;
  t.n_findings <- t.n_findings + !n_fresh;
  fresh

let report t =
  {
    findings = List.rev t.findings_rev;
    rounds = t.rounds;
    tasks = t.tasks;
    dropped = t.dropped;
  }
