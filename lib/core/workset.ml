(* Shared task pool for the non-deterministic scheduler.

   A mutex-protected FIFO with integrated termination detection:
   [pending] counts tasks that have not yet completed successfully, so
   workers can distinguish "pool momentarily empty" (another worker may
   still abort and requeue, or push children) from "all work done".

   Blocking on a condition variable instead of spinning matters here:
   the reproduction container is oversubscribed, and the machine
   simulator — not this queue — models contention at real scale. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  mutable pending : int;
  mutable aborted : bool;  (* a task raised: every [take] now returns [None] *)
}

let create items =
  let queue = Queue.create () in
  Array.iter (fun x -> Queue.add x queue) items;
  { mutex = Mutex.create (); nonempty = Condition.create (); queue; pending = Array.length items;
    aborted = false }

let take t =
  Mutex.lock t.mutex;
  let rec go () =
    if t.aborted then None
    else if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.pending = 0 then None
    else begin
      Condition.wait t.nonempty t.mutex;
      go ()
    end
  in
  let result = go () in
  Mutex.unlock t.mutex;
  result

(* New tasks created by a committed parent: they extend the pending
   count. *)
let push_new t items =
  match items with
  | [] -> ()
  | _ ->
      Mutex.lock t.mutex;
      List.iter
        (fun x ->
          Queue.add x t.queue;
          t.pending <- t.pending + 1)
        items;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex

(* An aborted task goes back for retry; it was already pending.

   Broadcast, not signal: [take] waits for two distinct reasons (queue
   nonempty, or pending = 0), so a single signal can land on a waiter
   that is about to lose the race for this item and go back to sleep —
   stranding another waiter that would have taken it. Waking everyone
   is cheap at these worker counts and cannot deadlock. *)
let requeue t item =
  Mutex.lock t.mutex;
  Queue.add item t.queue;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

(* A task committed: one fewer pending. Reaching zero releases all
   blocked workers so they can observe termination. *)
let complete t =
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

(* A task raised and will never complete, so [pending] can no longer
   reach zero: wake every blocked worker and end the run for all. *)
let abort t =
  Mutex.lock t.mutex;
  t.aborted <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex
