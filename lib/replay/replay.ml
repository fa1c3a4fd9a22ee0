(* Checkpoint/replay harnesses over the Galois.Run replay primitives.

   The primitives (Run.checkpoint / resume / stop_after, the Snapshot
   codec) live in lib/core where the builder can reach them; this layer
   composes them into crash injection (run, kill at a round, resume)
   and the snapshot perturbation its negative control uses. Localizing
   a divergence to a round is done elsewhere: detcheck's lattice names
   the first differing deterministic event line and its round, and a
   [Run.checkpoint ~every:1] digest trail names the first differing
   round boundary. *)

module Snapshot = Galois.Snapshot

(* ------------------------------------------------------------------ *)
(* Crash injection                                                     *)
(* ------------------------------------------------------------------ *)

type crash_outcome = {
  resumed : Galois.Run.report;  (* crash at [crash_round], then resume *)
  crash_round : int;  (* 0: the run finished before taking any boundary *)
}

(* Execute [run] with a snapshot after every round and a stop at [at],
   then execute the same description again, resumed from the last
   snapshot. The world is shared between the two execs and already
   reflects every round up to that boundary, so restoring the state the
   snapshot carries writes back what is there. If [at] is past the end,
   the "crashed" run completes and the resume is a no-op replay of the
   final boundary. *)
let crash_resume ?resume_policy ~at run =
  let last = ref None in
  let crashed =
    run
    |> Galois.Run.checkpoint ~every:1 (fun snap -> last := Some snap)
    |> Galois.Run.stop_after at
    |> Galois.Run.exec
  in
  match !last with
  | None ->
      (* Zero rounds executed (empty task pool): nothing to resume. *)
      { resumed = crashed; crash_round = 0 }
  | Some snap ->
      let resumed =
        run
        |> Galois.Run.opt Galois.Run.policy resume_policy
        |> Galois.Run.resume snap
        |> Galois.Run.exec
      in
      { resumed; crash_round = snap.Snapshot.boundary.Galois.Det_sched.b_rounds }

(* ------------------------------------------------------------------ *)
(* Fault injection on snapshots                                        *)
(* ------------------------------------------------------------------ *)

(* The negative-control perturbation: swapping two pending-deque
   entries preserves the task *set* but changes the deque order the
   window is drawn from, so the resumed schedule diverges at the first
   round after the boundary — which a checkpoint digest trail must
   localize to exactly that round. *)
let swap_pending_ids i j (b : 'item Galois.Det_sched.boundary) =
  let n = Array.length b.Galois.Det_sched.b_pending_ids in
  if i < 0 || j < 0 || i >= n || j >= n then
    invalid_arg "Replay.swap_pending_ids: index out of bounds";
  let ids = Array.copy b.Galois.Det_sched.b_pending_ids in
  let items = Array.copy b.Galois.Det_sched.b_pending_items in
  let ti = ids.(i) in
  ids.(i) <- ids.(j);
  ids.(j) <- ti;
  let xi = items.(i) in
  items.(i) <- items.(j);
  items.(j) <- xi;
  { b with Galois.Det_sched.b_pending_ids = ids; b_pending_items = items }
