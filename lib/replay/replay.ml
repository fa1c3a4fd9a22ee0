(* Checkpoint/replay harnesses over the Galois.Run replay primitives.

   The primitives (Run.checkpoint / resume / stop_after, the Snapshot
   codec) live in lib/core where the builder can reach them; this layer
   composes them into the verification workflows: lockstep dual-run
   digest cross-checking (the DMR-style verifier), and crash-injection
   (run, kill at a round, resume). *)

module D = Galois.Trace_digest
module Snapshot = Galois.Snapshot

(* ------------------------------------------------------------------ *)
(* Lockstep verification                                               *)
(* ------------------------------------------------------------------ *)

module Lockstep = struct
  type trail = (int * D.t) list

  type verdict =
    | Agree of { compared : int }
    | Diverge of { round : int; a : D.t; b : D.t }
    | Disjoint

  let collect ~every run =
    let acc = ref [] in
    let report =
      run
      |> Galois.Run.checkpoint ~every (fun snap ->
             let b = snap.Snapshot.boundary in
             acc := (b.Galois.Det_sched.b_rounds, b.Galois.Det_sched.b_digest) :: !acc)
      |> Galois.Run.exec
    in
    (List.rev !acc, report)

  (* Walk both trails in ascending round order; compare digests at
     common rounds, skip rounds only one side sampled (different
     cadences). The first unequal pair names the earliest round the two
     executions are known to have diverged by. *)
  let first_divergence a b =
    let rec go compared a b =
      match (a, b) with
      | (ra, da) :: ta, (rb, db) :: tb ->
          if ra < rb then go compared ta b
          else if rb < ra then go compared a tb
          else if D.equal da db then go (compared + 1) ta tb
          else Diverge { round = ra; a = da; b = db }
      | _, _ -> if compared = 0 then Disjoint else Agree { compared }
    in
    go 0 a b

  let pp_verdict ppf = function
    | Agree { compared } -> Fmt.pf ppf "agree (%d boundaries compared)" compared
    | Diverge { round; a; b } ->
        Fmt.pf ppf "diverge at round %d: %a vs %a" round D.pp a D.pp b
    | Disjoint -> Fmt.pf ppf "no common boundaries"
end

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
   round after the boundary — which the lockstep verifier must localize
   to exactly that round. *)
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
