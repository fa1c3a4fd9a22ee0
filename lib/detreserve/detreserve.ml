(* Deterministic reservations (Blelloch et al., PPoPP 2012) — the
   technique behind PBBS's handwritten deterministic programs, which the
   paper uses as its determinism-by-construction baselines.

   [speculative_for] processes items 0..n-1 as if sequentially in index
   order, but speculates on a prefix each round: every item in the prefix
   runs its [reserve] phase (writing its index into priority cells with a
   min operation), then items whose reservations all survived [commit].
   The prefix size is the PBBS granularity parameter — exactly the kind
   of tunable knob the paper criticizes, so it is exposed here and fixed
   by callers. *)

module Cell = struct
  (* A priority-min reservation cell. [max_int] = free. *)
  type t = int Atomic.t

  let create_array n = Array.init n (fun _ -> Atomic.make max_int)

  (* Deterministic: the surviving value is the min of all writers,
     independent of timing. *)
  let reserve (t : t) priority =
    let rec go () =
      let cur = Atomic.get t in
      if cur <= priority then ()
      else if not (Atomic.compare_and_set t cur priority) then go ()
    in
    go ()

  let holds (t : t) priority = Atomic.get t = priority

  let release (t : t) priority =
    let cur = Atomic.get t in
    if cur = priority then ignore (Atomic.compare_and_set t cur max_int)

  let reset (t : t) = Atomic.set t max_int
end

type stats = { rounds : int; commits : int; retries : int; time_s : float }

let speculative_for ?(granularity = 64) ~pool ~n ~reserve ~commit () =
  if granularity <= 0 then invalid_arg "Detreserve.speculative_for: granularity must be positive";
  let rounds = ref 0 and commits = ref 0 and retries = ref 0 in
  let t0 = Galois.Clock.now_s () in
  (* [remaining] holds unfinished item indices in priority order. *)
  let remaining = ref (Array.init n Fun.id) in
  while Array.length !remaining > 0 do
    incr rounds;
    let items = !remaining in
    let w = min granularity (Array.length items) in
    let keep = Array.make w false in
    (* Reserve phase: deterministic min-reservations. *)
    Parallel.Domain_pool.parallel_for pool 0 w (fun j -> reserve items.(j));
    (* Commit phase: an item commits iff its reservations survived. *)
    Parallel.Domain_pool.parallel_for pool 0 w (fun j ->
        keep.(j) <- not (commit items.(j)));
    let failed = ref [] in
    for j = w - 1 downto 0 do
      if keep.(j) then failed := items.(j) :: !failed
    done;
    let failed = Array.of_list !failed in
    commits := !commits + (w - Array.length failed);
    retries := !retries + Array.length failed;
    let rest = Array.sub items w (Array.length items - w) in
    remaining := Array.append failed rest
  done;
  { rounds = !rounds; commits = !commits; retries = !retries; time_s = Galois.Clock.elapsed_s t0 }

(* Variant with dynamically created work (PBBS dmr-style): committing an
   item may return children, which are appended behind all current work
   with priorities in deterministic (round slot) order. *)
let speculative_for_dynamic ?(granularity = 64) ~pool ~initial ~reserve ~commit () =
  if granularity <= 0 then
    invalid_arg "Detreserve.speculative_for_dynamic: granularity must be positive";
  let rounds = ref 0 and commits = ref 0 and retries = ref 0 in
  let t0 = Galois.Clock.now_s () in
  let next_priority = ref (Array.length initial) in
  let remaining = ref (Array.mapi (fun i x -> (i, x)) initial) in
  while Array.length !remaining > 0 do
    incr rounds;
    let items = !remaining in
    let w = min granularity (Array.length items) in
    let outcome = Array.make w None in
    Parallel.Domain_pool.parallel_for pool 0 w (fun j ->
        let prio, item = items.(j) in
        reserve prio item);
    Parallel.Domain_pool.parallel_for pool 0 w (fun j ->
        let prio, item = items.(j) in
        outcome.(j) <- commit prio item);
    let failed = ref [] and children = ref [] in
    for j = w - 1 downto 0 do
      match outcome.(j) with
      | None -> failed := items.(j) :: !failed
      | Some kids -> children := kids :: !children
    done;
    let failed = Array.of_list !failed in
    commits := !commits + (w - Array.length failed);
    retries := !retries + Array.length failed;
    (* Children priorities follow slot order within the round, so they
       are deterministic whenever commits are. *)
    let fresh =
      List.concat_map
        (fun kids ->
          List.map
            (fun kid ->
              let p = !next_priority in
              incr next_priority;
              (p, kid))
            kids)
        !children
    in
    let rest = Array.sub items w (Array.length items - w) in
    remaining := Array.concat [ failed; rest; Array.of_list fresh ]
  done;
  { rounds = !rounds; commits = !commits; retries = !retries; time_s = Galois.Clock.elapsed_s t0 }
