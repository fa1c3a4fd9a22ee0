(* The deterministic scheduler's pending-task deque.

   A generation's tasks arrive as one array in deterministic order; each
   round then takes the first [w] pending tasks as its window and must
   put the failed ones back in front of the untried remainder, still in
   order. The original implementation did this with linked lists
   (window extraction, [List.rev_append] re-splicing), allocating O(w)
   cons cells every round. Here the window is just an index range over
   the generation array and a round ends with an in-place compaction:
   no per-round allocation at all. The entries are plain ints (the
   scheduler stores generation slots), so compaction moves immediates
   and never goes through the write barrier.

   [compact] walks the window backwards, sliding each kept (failed)
   task down to sit directly before the untried remainder. Writing
   index [j] always satisfies [j >= head + i] (at most [w_use - 1 - i]
   tasks were kept from positions above [i]), so no unread entry is
   ever clobbered, and the descending walk preserves the relative order
   of the kept tasks. *)

type t = {
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
  (* Soft-priority bucket runs: the buffer is a concatenation of
     contiguous segments ("runs"), one per delta-stepping bucket in
     ascending bucket order; [run_buckets.(i)]/[run_counts.(i)] hold the
     bucket index and remaining task count of run [i], [run_head] the
     current (lowest non-empty) run. Failed tasks are compacted back in
     front of their own run, so a run only shrinks when its tasks
     commit. Empty arrays when the generation is unordered. *)
  mutable run_buckets : int array;
  mutable run_counts : int array;
  mutable run_head : int;
}

let create () =
  { buf = [||]; head = 0; len = 0; run_buckets = [||]; run_counts = [||]; run_head = 0 }

(* Takes ownership of [arr]: the deque compacts tasks within it in
   place. Callers must not reuse the array. *)
let load t arr =
  t.buf <- arr;
  t.head <- 0;
  t.len <- Array.length arr;
  t.run_buckets <- [||];
  t.run_counts <- [||];
  t.run_head <- 0

let load_runs t arr runs =
  let total = Array.fold_left (fun a (_, c) -> a + c) 0 runs in
  if total <> Array.length arr then
    invalid_arg "Pending.load_runs: run sizes must sum to the task count";
  if Array.exists (fun (_, c) -> c <= 0) runs then
    invalid_arg "Pending.load_runs: runs must be non-empty";
  load t arr;
  t.run_buckets <- Array.map fst runs;
  t.run_counts <- Array.map snd runs

let length t = t.len

let get t i = t.buf.(t.head + i)

let current_run t =
  if t.run_head >= Array.length t.run_buckets then None
  else Some (t.run_buckets.(t.run_head), t.run_counts.(t.run_head))

(* Window cap: never straddle a bucket boundary — the remaining tasks
   of the current run, or everything when the generation is unordered. *)
let window_avail t =
  if t.run_head >= Array.length t.run_counts then t.len
  else t.run_counts.(t.run_head)

let note_dropped t dropped =
  if t.run_head >= Array.length t.run_counts || dropped = 0 then None
  else begin
    let c = t.run_counts.(t.run_head) - dropped in
    if c < 0 then invalid_arg "Pending.note_dropped: more drops than the current run holds";
    t.run_counts.(t.run_head) <- c;
    if c = 0 then begin
      let b = t.run_buckets.(t.run_head) in
      t.run_head <- t.run_head + 1;
      Some b
    end
    else None
  end

let compact t ~w_use ~keep =
  if w_use < 0 || w_use > t.len then invalid_arg "Pending.compact";
  let j = ref (t.head + w_use - 1) in
  for i = w_use - 1 downto 0 do
    if keep i then begin
      t.buf.(!j) <- t.buf.(t.head + i);
      decr j
    end
  done;
  let dropped = !j - t.head + 1 in
  t.head <- !j + 1;
  t.len <- t.len - dropped;
  dropped
