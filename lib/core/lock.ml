(* Abstract locations (\S2 of the paper).

   Every shared abstract object (graph node, triangle, ...) owns one
   location: a single heap block [{ word; lid }] whose field 0 is the
   mark word and whose field 1 is the location id. A claim therefore
   touches one block, with no pointer to chase from the location to its
   word. The word holds 0 when free, or a packed (stamp, task id) pair:
   the low [id_bits] carry the id of the task currently marking the
   location, the bits above them the epoch stamp under which the mark was
   written. Claims are made under an epoch obtained from [new_epoch]; a
   mark whose stamp differs from the claimant's is *stale* and treated
   exactly like a free word. Staleness-by-construction is what lets the
   DIG scheduler skip the end-of-round mark-clearing pass: opening a new
   epoch invalidates every surviving mark in O(1), with no CAS per held
   lock. Both schedulers synchronize exclusively through these words,
   matching the Galois system's per-object lock design. *)

type t = { mutable word : int; lid : int }

(* The mark word is read and written only through [cell]. [Atomic.get],
   [compare_and_set] and [set] compile to [%atomic_load],
   [caml_atomic_cas] and [caml_atomic_exchange], which act on field 0 of
   whatever block they are given; [word] is field 0 of [t], so viewing a
   [t] as an [int Atomic.t] addresses exactly the mark word. The word
   only ever holds immediates, so no write barrier is involved, and
   nothing outside this module sees the cast: [t] is abstract. *)
(* detlint: allow obj-magic — field 0 of [t] is the int mark word; see above *)
let cell : t -> int Atomic.t = Obj.magic

(* 30 bits of task id leave 32 bits of epoch stamp: the packed word
   (stamp lsl 30) lor id stays below 2^62 and therefore within OCaml's
   63-bit native int on 64-bit platforms. *)
let id_bits = 30
let max_task_id = (1 lsl id_bits) - 1
let id_mask = max_task_id
let max_stamp = (1 lsl 32) - 1

let pack ~stamp task_id =
  if task_id < 1 || task_id > max_task_id then
    invalid_arg "Lock: task id out of range";
  if stamp < 1 || stamp > max_stamp then invalid_arg "Lock: stamp out of range";
  (stamp lsl id_bits) lor task_id

(* Epochs come from a process-global counter so that any two concurrent
   users (scheduler rounds, speculative runs, PBBS reservation loops)
   are automatically in distinct epochs and cannot mistake each other's
   marks for their own. *)
let next_stamp = Atomic.make 1

let new_epoch () =
  let s = Atomic.fetch_and_add next_stamp 1 in
  if s > max_stamp then invalid_arg "Lock.new_epoch: stamp space exhausted";
  s

let next_lid = Atomic.make 0

(* Location ids come from a process-global counter, so a second run in
   the same process sees different lids for the same program — which is
   why lids are excluded from every digest (Trace_digest folds ids, not
   lids). *)
let create () = { word = 0; lid = Atomic.fetch_and_add next_lid 1 }

(* One [fetch_and_add] reserves the whole lid range, so an array's lids
   are contiguous even while another domain creates locks. *)
let create_array n =
  if n < 0 then invalid_arg "Lock.create_array: negative length";
  let base = Atomic.fetch_and_add next_lid n in
  Array.init n (fun i -> { word = 0; lid = base + i })

let id t = t.lid

let raw t = Atomic.get (cell t)

(* The id field of the current mark word, whatever its epoch (0 = free).
   Stale marks still decode: callers that care about epochs use the
   stamped operations below, which never confuse epochs. *)
let mark t = Atomic.get (cell t) land id_mask

(* Fig. 1b [writeMarks]: claim the location for [task_id] if it is free
   — including stale-marked, which is free by construction — or already
   ours under this epoch. Returns false on a same-epoch conflict. *)
let try_claim t ~stamp task_id =
  let packed = pack ~stamp task_id in
  let cur = Atomic.get (cell t) in
  cur = packed
  || ((cur lsr id_bits) <> stamp && Atomic.compare_and_set (cell t) cur packed)

(* Strict freshness claim for [Context.register_new]: the word must be
   literally 0 — never written, or explicitly cleared. A stale mark from
   an earlier epoch means some other task has seen this location, which
   is exactly what "fresh" rules out, so staleness does NOT count as
   free here. *)
let claim_fresh t ~stamp task_id =
  let packed = pack ~stamp task_id in
  Atomic.compare_and_set (cell t) 0 packed

(* Fig. 3 [writeMarksMax]: deterministically raise the mark to the
   maximum of its current value and [task_id], within this epoch; a
   stale or free word loses to any claimant. Never fails to complete:
   determinism requires that every marking attempt runs even after the
   task has already lost some other location (§3.2). The result reports
   who lost the location, so the inspect phase can maintain the paper's
   commit-prevention flags (§3.3), as an immediate so a claim never
   allocates: the displaced same-epoch id, 0 for none, or [lost]. *)
let lost = -1

(* The CAS loop is a top-level function, not a local closure: this tree
   builds without flambda, so a local [let rec] capturing the word,
   stamp and ids would allocate a closure on every claim. *)
let rec claim_max_loop word ~stamp packed task_id =
  let cur = Atomic.get word in
  let cur_id = if cur lsr id_bits = stamp then cur land id_mask else 0 in
  if cur_id = task_id then 0
  else if cur_id > task_id then lost
  else if Atomic.compare_and_set word cur packed then cur_id
  else claim_max_loop word ~stamp packed task_id

let claim_max t ~stamp task_id = claim_max_loop (cell t) ~stamp (pack ~stamp task_id) task_id

let holds t ~stamp task_id = Atomic.get (cell t) = pack ~stamp task_id

(* Release the location if we hold it under this epoch. Used by
   non-deterministic rollback/commit and by the PBBS reservation loops;
   the DIG scheduler no longer releases anything — its next round opens
   a new epoch instead. *)
let release t ~stamp task_id =
  let packed = pack ~stamp task_id in
  if Atomic.get (cell t) = packed then
    ignore (Atomic.compare_and_set (cell t) packed 0)
