(* Property tests for the deterministic scheduler's pure scheduling
   arithmetic: the §3.3 locality-spread permutation, the §3.1
   parameterless window controller, and the Pending deque's in-place
   round compaction. All randomness comes from Splitmix with fixed
   seeds, so the properties are reproducible everywhere. *)

module D = Galois.Det_sched
module P = Galois.Pending
module Sm = Parallel.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

(* Reference implementation of the spread permutation: build the strided
   piles as lists and concatenate. *)
let spread_reference spread arr =
  let n = Array.length arr in
  if spread <= 1 || n <= spread then Array.copy arr
  else
    Array.of_list
      (List.concat_map
         (fun pile ->
           let rec go i = if i >= n then [] else arr.(i) :: go (i + spread) in
           go pile)
         (List.init spread (fun p -> p)))

let test_spread_identity_cases () =
  let arr = Array.init 10 (fun i -> i) in
  (* spread = 1 is a no-op... *)
  Alcotest.(check bool) "spread=1 returns the array" true (D.spread_permute 1 arr == arr);
  (* ...and so is any spread >= length (nothing to deal apart). *)
  Alcotest.(check bool) "n <= spread returns the array" true
    (D.spread_permute 10 arr == arr && D.spread_permute 64 arr == arr);
  check_int_list "untouched" (List.init 10 (fun i -> i)) (Array.to_list arr)

let test_spread_exact_multiple () =
  (* n = spread * k: pile [p] is exactly [p; p+spread; ...], each of
     length [k]. *)
  let arr = Array.init 12 (fun i -> i) in
  check_int_list "3 piles of 4"
    [ 0; 3; 6; 9; 1; 4; 7; 10; 2; 5; 8; 11 ]
    (Array.to_list (D.spread_permute 3 arr))

let test_spread_remainder () =
  (* n = 10, spread = 4: the first two piles carry the remainder. *)
  let arr = Array.init 10 (fun i -> i) in
  check_int_list "uneven piles"
    [ 0; 4; 8; 1; 5; 9; 2; 6; 3; 7 ]
    (Array.to_list (D.spread_permute 4 arr))

let test_spread_bijection () =
  (* Random sizes and spreads: the output is always a permutation of the
     input (sorting both sides must agree), and it matches the list
     reference exactly. *)
  let rng = Sm.create 0x5eed in
  for _ = 1 to 200 do
    let n = 1 + Sm.int rng 200 in
    let spread = 1 + Sm.int rng 20 in
    let arr = Array.init n (fun i -> i * 7 + 3) in
    let out = D.spread_permute spread arr in
    check_int "same length" n (Array.length out);
    check_int_list "matches reference"
      (Array.to_list (spread_reference spread arr))
      (Array.to_list out);
    let sorted = Array.copy out in
    Array.sort compare sorted;
    check_int_list "bijection" (Array.to_list arr) (Array.to_list sorted)
  done

(* --- generation formation against the comparison-sort model ---------- *)

module Cb = Galois.Child_buffer

(* Formation as first written, kept as the model: sort the children by
   (parent, birth), or by static key with duplicates collapsed; number
   them from [base]; then spread the whole generation, or stable-sort it
   by bucket, group equal buckets into runs and spread each run on its
   own. Pile dealing is [spread_reference], not [D.spread_index]. *)
let model_layout ~static_id ~spread ~priority ~prio_of ~base bufs =
  let entries =
    Array.concat
      (List.map
         (fun todo ->
           Array.init (Cb.length todo) (fun i -> (Cb.parent todo i, Cb.birth todo i, Cb.item todo i)))
         (Array.to_list bufs))
  in
  let items =
    match static_id with
    | Some key_of ->
        let keyed = Array.map (fun (_, _, item) -> (key_of item, item)) entries in
        Array.sort (fun (a, _) (b, _) -> compare a b) keyed;
        let kept =
          Array.fold_left
            (fun acc (k, item) ->
              match acc with (k', _) :: _ when k' = k -> acc | _ -> (k, item) :: acc)
            [] keyed
        in
        Array.of_list (List.rev_map snd kept)
    | None ->
        Array.stable_sort (fun (p1, b1, _) (p2, b2, _) -> compare (p1, b1) (p2, b2)) entries;
        Array.map (fun (_, _, item) -> item) entries
  in
  let generation = Array.mapi (fun r item -> (base + r, item)) items in
  match priority with
  | Galois.Policy.Prio_off -> (spread_reference spread generation, [||], 0)
  | Galois.Policy.Prio_delta _ | Galois.Policy.Prio_auto ->
      let prios = Array.map (fun (_, item) -> prio_of item) generation in
      let delta =
        match priority with
        | Galois.Policy.Prio_delta d -> d
        | _ ->
            let pmin = Array.fold_left min prios.(0) prios
            and pmax = Array.fold_left max prios.(0) prios in
            max 1 (((pmax - pmin) / 64) + 1)
      in
      let bucket p = if p >= 0 then p / delta else -((-p + delta - 1) / delta) in
      let idx = List.init (Array.length generation) Fun.id in
      let idx = List.stable_sort (fun i j -> compare (bucket prios.(i)) (bucket prios.(j))) idx in
      let rec runs = function
        | [] -> []
        | i :: _ as l ->
            let b = bucket prios.(i) in
            let run = List.filter (fun j -> bucket prios.(j) = b) l in
            (b, run) :: runs (List.filter (fun j -> bucket prios.(j) <> b) l)
      in
      let runs = runs idx in
      let spread_run (_, run) =
        Array.to_list (spread_reference spread (Array.of_list (List.map (Array.get generation) run)))
      in
      let table = List.map (fun (b, run) -> (b, List.length run)) runs in
      (Array.of_list (List.concat_map spread_run runs), Array.of_list table, delta)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Sm.int rng (i + 1) in
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  done

(* A random todo set as the scheduler builds one: the committed parents
   of a generation, in shuffled order, each push births 0..k-1
   contiguously into one of several worker buffers, which formation
   reads in shuffled order; or an initial generation under parent 0 in
   one buffer. Items are in [-500, 500]. *)
let random_todo rng =
  let item () = Sm.int rng 1001 - 500 in
  if Sm.int rng 5 = 0 then begin
    (* The initial generation: every item a birth of parent 0. *)
    let todo = Cb.create () in
    for k = 0 to Sm.int rng 300 do
      Cb.push todo ~parent:0 ~birth:k (item ())
    done;
    [| todo |]
  end
  else begin
    let gen_base = 1 + Sm.int rng 1000 and gen_size = 1 + Sm.int rng 200 in
    let parents = Array.init gen_size (fun i -> gen_base + i) in
    shuffle rng parents;
    let buffers = Array.init (1 + Sm.int rng 4) (fun _ -> Cb.create ()) in
    Array.iter
      (fun parent ->
        if Sm.bool rng || Cb.length buffers.(0) = 0 then begin
          let buf = buffers.(Sm.int rng (Array.length buffers)) in
          for k = 0 to Sm.int rng 6 - 1 do
            Cb.push buf ~parent ~birth:k (item ())
          done
        end)
      parents;
    if Array.for_all (fun buf -> Cb.length buf = 0) buffers then
      Cb.push buffers.(0) ~parent:gen_base ~birth:0 (item ());
    shuffle rng buffers;
    buffers
  end

let priority_name = function
  | Galois.Policy.Prio_off -> "off"
  | Galois.Policy.Prio_auto -> "auto"
  | Galois.Policy.Prio_delta d -> Printf.sprintf "delta:%d" d

let test_layout_matches_model () =
  (* Priorities: the item itself (negative included), a wide span that
     takes the bucket sort several digits, and extremes whose bucket
     offsets only fit read unsigned. *)
  let prio_ofs =
    [ ("item", Fun.id); ("wide", fun x -> x * 1_000_000_007);
      ("extreme", fun x -> if x > 300 then max_int else if x < -300 then -(max_int / 2) else x) ]
  in
  let rng = Sm.create 0xf0a3 in
  for case = 1 to 300 do
    let todo = random_todo rng in
    let base = 1 + Sm.int rng 5000 in
    let static_id = if Sm.int rng 4 = 0 then Some (fun x -> abs x mod 97) else None in
    List.iter
      (fun spread ->
        List.iter
          (fun priority ->
            List.iter
              (fun (pname, prio_of) ->
                let what =
                  Printf.sprintf "case %d spread=%d prio=%s/%s%s" case spread
                    (priority_name priority) pname
                    (if Option.is_some static_id then " static" else "")
                in
                let slots, runs, delta =
                  D.generation_layout ~static_id ~spread ~priority ~prio_of ~base todo
                in
                let slots', runs', delta' =
                  model_layout ~static_id ~spread ~priority ~prio_of ~base todo
                in
                let check_pairs what a b =
                  Alcotest.(check (list (pair int int))) what (Array.to_list a) (Array.to_list b)
                in
                check_pairs (what ^ ": ids and slots") slots' slots;
                check_pairs (what ^ ": run table") runs' runs;
                check_int (what ^ ": delta") delta' delta)
              (if priority = Galois.Policy.Prio_off then [ List.hd prio_ofs ] else prio_ofs))
          Galois.Policy.[ Prio_off; Prio_delta (1 + Sm.int rng 40); Prio_auto ])
      [ 1; 3; 64 ]
  done

let test_layout_rejects_bad_births () =
  (* Formation checks the births itself, whoever filled the buffer. *)
  List.iter
    (fun (what, births) ->
      let todo = Cb.create () in
      Cb.push todo ~parent:5 ~birth:0 10;
      List.iter (fun b -> Cb.push todo ~parent:7 ~birth:b 20) births;
      match
        D.generation_layout ~static_id:None ~spread:1 ~priority:Galois.Policy.Prio_off
          ~prio_of:Fun.id ~base:1 [| todo |]
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: accepted" what)
    [ ("duplicate", [ 0; 0 ]); ("gap", [ 0; 2 ]); ("no birth 0", [ 1 ]); ("negative", [ -1; 0 ]) ]

let target = 0.9
let cap = 1 lsl 22

let test_window_doubles_to_cap () =
  (* A run of all-commit rounds doubles the window every time until the
     cap, then pins it there. *)
  let w = ref 32 and steps = ref 0 in
  while !w < cap && !steps < 100 do
    let next = D.adapt_window ~target_ratio:target ~window:!w ~committed:!w ~w_use:!w in
    check_int "doubles" (min (2 * !w) cap) next;
    w := next;
    incr steps
  done;
  check_int "reached the cap" cap !w;
  check_bool "in at most log2(cap) steps" true (!steps <= 22);
  check_int "pinned at the cap" cap
    (D.adapt_window ~target_ratio:target ~window:cap ~committed:cap ~w_use:cap)

let test_window_collapse_on_zero_commits () =
  (* A fully defeated round collapses any window straight to one task:
     the floor is what the round committed, plus one. *)
  List.iter
    (fun w ->
      check_int "one task after zero commits" 1
        (D.adapt_window ~target_ratio:target ~window:w ~committed:0 ~w_use:(max 1 (w / 2))))
    [ 1; 32; 33; 100; 4096; cap ]

let test_window_bounds_random_walk () =
  (* Whatever commit ratios a workload forces, the controller stays
     inside [1, cap] and never more than doubles: 500 random walks of
     the recurrence with uniformly random commit counts. *)
  let rng = Sm.create 2014 in
  for _ = 1 to 500 do
    let w = ref (1 + Sm.int rng 8192) in
    for _ = 1 to 50 do
      let w_use = 1 + Sm.int rng !w in
      let committed = Sm.int rng (w_use + 1) in
      let next = D.adapt_window ~target_ratio:target ~window:!w ~committed ~w_use in
      check_bool "at least one" true (next >= 1);
      check_bool "cap" true (next <= cap);
      check_bool "at most doubles" true (next <= 2 * !w);
      (let ratio = float_of_int committed /. float_of_int w_use in
       if ratio >= target then
         check_int "good round doubles" (min (2 * !w) cap) next);
      w := next
    done
  done

let test_window_floor_is_commit_count () =
  (* The shrink has no constant floor; after a round that used its whole
     window it keeps at least the tasks that round committed, for any
     target <= 1, and one more at the default 0.9. At exactly 1.0 the
     float product [w * (c / w)] can round below [c], so only [c] is
     promised there. *)
  let rng = Sm.create 7 in
  let targets = [ 0.9; 1.0; 0.5; 0.99; 0.1 ] in
  for _ = 1 to 2000 do
    let w = 1 + Sm.int rng (1 lsl 20) in
    let committed = Sm.int rng (w + 1) in
    List.iter
      (fun target_ratio ->
        if float_of_int committed /. float_of_int w < target_ratio then begin
          let next = D.adapt_window ~target_ratio ~window:w ~committed ~w_use:w in
          if next < committed then
            Alcotest.failf "target %g: window %d, %d committed -> %d" target_ratio w committed
              next;
          if target_ratio = target && next < committed + 1 then
            Alcotest.failf "default target: window %d, %d committed -> %d" w committed next
        end)
      targets
  done

let test_window_rejects_bad_inputs () =
  (* [adapt_window] is public: a round with no window, a commit count
     outside [0, w_use] or a window smaller than the round it ran would
     otherwise yield a meaningless (e.g. negative) next window. *)
  List.iter
    (fun (what, window, committed, w_use) ->
      match D.adapt_window ~target_ratio:target ~window ~committed ~w_use with
      | exception Invalid_argument _ -> ()
      | next -> Alcotest.failf "%s: accepted, next window %d" what next)
    [
      ("empty round", 32, 0, 0);
      ("negative w_use", 32, 0, -1);
      ("negative commits", 32, -1, 16);
      ("more commits than tasks", 32, 17, 16);
      ("window below w_use", 8, 4, 16);
    ]

let test_window_shrink_proportional () =
  (* Below target, the shrink is proportional: committing half the
     target ratio roughly halves the window (within the +1 rounding). *)
  let w = 10_000 in
  let w_use = 1_000 in
  let committed = int_of_float (target *. 0.5 *. float_of_int w_use) in
  let next = D.adapt_window ~target_ratio:target ~window:w ~committed ~w_use in
  check_bool "about half" true (abs (next - (w / 2)) <= w / 100)

(* --- Pending deque ---------------------------------------------------- *)

let pending_of_list l =
  let p = P.create () in
  P.load p (Array.of_list l);
  p

let to_list p = List.init (P.length p) (P.get p)

let test_pending_compact_cases () =
  let p = pending_of_list [ 1; 2; 3; 4; 5 ] in
  (* Drop the committed (even) window entries; failed ones keep their
     order in front of the untried remainder. *)
  let dropped = P.compact p ~w_use:4 ~keep:(fun i -> P.get p i mod 2 = 1) in
  check_int "dropped" 2 dropped;
  check_int_list "failed before remainder" [ 1; 3; 5 ] (to_list p);
  (* Keep-all is a no-op. *)
  check_int "keep all drops none" 0 (P.compact p ~w_use:3 ~keep:(fun _ -> true));
  check_int_list "unchanged" [ 1; 3; 5 ] (to_list p);
  (* Drop-all empties the window. *)
  check_int "drop all" 3 (P.compact p ~w_use:3 ~keep:(fun _ -> false));
  check_int "empty" 0 (P.length p)

let test_pending_compact_random () =
  (* Against a list reference: repeatedly take a random window, keep a
     random subset, and compare with filter + append semantics. *)
  let rng = Sm.create 0xbeef in
  for _ = 1 to 200 do
    let n = 1 + Sm.int rng 60 in
    let items = List.init n (fun i -> i) in
    let p = pending_of_list items in
    let model = ref items in
    while P.length p > 0 do
      let w_use = 1 + Sm.int rng (P.length p) in
      let keep_set = Array.init w_use (fun _ -> Sm.bool rng) in
      (* Force progress so the loop terminates. *)
      keep_set.(Sm.int rng w_use) <- false;
      let dropped = P.compact p ~w_use ~keep:(fun i -> keep_set.(i)) in
      let window, rest =
        (List.filteri (fun i _ -> i < w_use) !model,
         List.filteri (fun i _ -> i >= w_use) !model)
      in
      model := List.filteri (fun i _ -> keep_set.(i)) window @ rest;
      check_int "dropped count" (w_use - List.length (List.filter Fun.id (Array.to_list keep_set))) dropped;
      check_int_list "matches model" !model (to_list p)
    done
  done

(* --- Pending bucket runs (soft-priority generations) ------------------ *)

let test_pending_runs_cases () =
  let p = P.create () in
  (* Unordered load: no runs, the whole deque is available. *)
  P.load p [| 1; 2; 3 |];
  check_int "unordered avail" 3 (P.window_avail p);
  Alcotest.(check bool) "unordered has no run" true (P.current_run p = None);
  Alcotest.(check bool) "unordered never drains" true (P.note_dropped p 2 = None);
  (* Three runs: windows are capped at the current run, drains are
     reported exactly when a run empties, in order. *)
  P.load_runs p [| 10; 11; 20; 30; 31; 32 |] [| (1, 2); (4, 1); (9, 3) |];
  Alcotest.(check bool) "first run" true (P.current_run p = Some (1, 2));
  check_int "avail is run remainder" 2 (P.window_avail p);
  Alcotest.(check bool) "partial drop keeps run" true (P.note_dropped p 1 = None);
  Alcotest.(check bool) "run shrank" true (P.current_run p = Some (1, 1));
  Alcotest.(check bool) "draining reports bucket" true (P.note_dropped p 1 = Some 1);
  Alcotest.(check bool) "second run" true (P.current_run p = Some (4, 1));
  check_int "avail follows" 1 (P.window_avail p);
  Alcotest.(check bool) "second drains" true (P.note_dropped p 1 = Some 4);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "overdrop rejected" true (raises (fun () -> P.note_dropped p 4));
  Alcotest.(check bool) "third drains" true (P.note_dropped p 3 = Some 9);
  Alcotest.(check bool) "all runs spent" true (P.current_run p = None);
  (* A zero-count drop is a no-op even on a live run. *)
  P.load_runs p [| 7 |] [| (0, 1) |];
  Alcotest.(check bool) "zero drop is a no-op" true (P.note_dropped p 0 = None);
  (* load_runs validation. *)
  Alcotest.(check bool) "sizes must sum" true
    (raises (fun () -> P.load_runs p [| 1; 2 |] [| (0, 1) |]));
  Alcotest.(check bool) "sizes must be positive" true
    (raises (fun () -> P.load_runs p [| 1 |] [| (0, 1); (1, 0) |]))

let test_pending_runs_random () =
  (* Drive the deque exactly as the scheduler does — window capped at
     window_avail, compact, note_dropped — and require that every
     bucket drains exactly once, in ascending order, with the window
     never straddling a run. *)
  let rng = Sm.create 0xfeed in
  for _ = 1 to 200 do
    let nruns = 1 + Sm.int rng 6 in
    let bucket = ref (-5) in
    let runs =
      Array.init nruns (fun _ ->
          bucket := !bucket + 1 + Sm.int rng 3;
          (!bucket, 1 + Sm.int rng 8))
    in
    let total = Array.fold_left (fun a (_, c) -> a + c) 0 runs in
    let p = P.create () in
    P.load_runs p (Array.init total Fun.id) runs;
    let drained = ref [] in
    while P.length p > 0 do
      let avail = P.window_avail p in
      (match P.current_run p with
      | Some (_, c) -> check_int "avail equals run remainder" c avail
      | None -> Alcotest.fail "live deque without a current run");
      let w_use = 1 + Sm.int rng avail in
      let keep_set = Array.init w_use (fun _ -> Sm.bool rng) in
      keep_set.(Sm.int rng w_use) <- false;
      let dropped = P.compact p ~w_use ~keep:(fun i -> keep_set.(i)) in
      match P.note_dropped p dropped with
      | Some b -> drained := b :: !drained
      | None -> ()
    done;
    Alcotest.(check (list int))
      "buckets drain once each, ascending"
      (Array.to_list (Array.map fst runs))
      (List.rev !drained);
    Alcotest.(check bool) "no run left" true (P.current_run p = None)
  done

(* --- round-stamped marks: the release-free protocol ------------------- *)

let test_stale_marks_across_rounds () =
  (* Simulate the scheduler's round structure directly: each round opens
     a fresh epoch and runs writeMarksMax claims WITHOUT ever releasing,
     exactly as selectAndExec now does. A per-round model (all locks
     free) must predict every outcome — i.e. marks left by earlier
     rounds are invisible. *)
  let rng = Sm.create 0xac5 in
  let n = 16 in
  let locks = Galois.Lock.create_array n in
  for _round = 1 to 100 do
    let stamp = Galois.Lock.new_epoch () in
    let model = Array.make n 0 in
    for _op = 1 to 40 do
      let j = Sm.int rng n in
      let id = 1 + Sm.int rng 1000 in
      let m = model.(j) in
      let v = Galois.Lock.claim_max locks.(j) ~stamp id in
      if v = Galois.Lock.lost then
        check_bool "lost only to a same-round higher id" true (m > id)
      else if v = 0 then begin
        check_bool "no victim only when free/stale or re-claim" true (m = 0 || m = id);
        model.(j) <- id
      end
      else begin
        check_int "victim is this round's mark, never a stale one" m v;
        check_bool "displacement raises" true (id > m);
        model.(j) <- id
      end;
      check_bool "holds agrees with round-local model" true
        (Galois.Lock.holds locks.(j) ~stamp model.(j) = (model.(j) <> 0))
    done;
    (* End of round: no releases. The marks now become stale garbage the
       next epoch must treat as free. *)
    Array.iteri
      (fun j m -> if m <> 0 then check_int "mark decodes last writer" m (Galois.Lock.mark locks.(j)))
      model
  done

let test_epochs_monotone () =
  let a = Galois.Lock.new_epoch () in
  let b = Galois.Lock.new_epoch () in
  let c = Galois.Lock.new_epoch () in
  check_bool "strictly increasing" true (a < b && b < c);
  check_bool "within stamp range" true (a >= 1 && c <= Galois.Lock.max_stamp)

(* --- spin-then-park pool under oversubscription ------------------------ *)

let test_pool_spin_hammer () =
  (* More domains than this container has cores, tiny spin budget: every
     dispatch exercises both the spin fast path and the park fallback.
     Each worker's wakeups must be fully accounted as spins + parks, and
     the jobs must all run exactly once. *)
  let domains = 6 and jobs = 40 in
  Parallel.Domain_pool.with_pool ~spin:8 domains (fun pool ->
      let cells = Array.make domains 0 in
      for _ = 1 to jobs do
        Parallel.Domain_pool.run pool (fun w -> cells.(w) <- cells.(w) + 1)
      done;
      Array.iteri (fun w c -> check_int (Printf.sprintf "worker %d ran every job" w) jobs c) cells;
      let sync = Parallel.Domain_pool.sync_counters pool in
      check_int "one counter pair per worker" domains (Array.length sync);
      Array.iteri
        (fun w (s, p) ->
          check_bool "counters non-negative" true (s >= 0 && p >= 0);
          (* One await per dispatch (workers) / join (caller). *)
          check_int (Printf.sprintf "worker %d wakeups accounted" w) jobs (s + p))
        sync)

let test_pool_park_only () =
  (* spin = 0 recovers the pure condvar pool; it must still be correct
     and account every wakeup. *)
  Parallel.Domain_pool.with_pool ~spin:0 4 (fun pool ->
      let total = Atomic.make 0 in
      for _ = 1 to 20 do
        Parallel.Domain_pool.run pool (fun _ -> Atomic.incr total)
      done;
      check_int "all jobs ran" 80 (Atomic.get total);
      Array.iter (fun (s, p) -> check_int "accounted" 20 (s + p))
        (Parallel.Domain_pool.sync_counters pool))

let suite =
  [
    Alcotest.test_case "spread: identity cases" `Quick test_spread_identity_cases;
    Alcotest.test_case "spread: exact-multiple piles" `Quick test_spread_exact_multiple;
    Alcotest.test_case "spread: remainder piles" `Quick test_spread_remainder;
    Alcotest.test_case "spread: random bijection" `Quick test_spread_bijection;
    Alcotest.test_case "formation: matches the sort model" `Quick test_layout_matches_model;
    Alcotest.test_case "formation: non-dense births raise" `Quick test_layout_rejects_bad_births;
    Alcotest.test_case "window: doubles to cap" `Quick test_window_doubles_to_cap;
    Alcotest.test_case "window: zero commits collapse" `Quick
      test_window_collapse_on_zero_commits;
    Alcotest.test_case "window: bounded random walk" `Quick test_window_bounds_random_walk;
    Alcotest.test_case "window: floor is the commit count" `Quick
      test_window_floor_is_commit_count;
    Alcotest.test_case "window: rejects bad inputs" `Quick test_window_rejects_bad_inputs;
    Alcotest.test_case "window: proportional shrink" `Quick test_window_shrink_proportional;
    Alcotest.test_case "pending: compact cases" `Quick test_pending_compact_cases;
    Alcotest.test_case "pending: compact random model" `Quick test_pending_compact_random;
    Alcotest.test_case "pending: bucket-run cases" `Quick test_pending_runs_cases;
    Alcotest.test_case "pending: bucket-run random model" `Quick test_pending_runs_random;
    Alcotest.test_case "stamps: stale marks invisible across rounds" `Quick
      test_stale_marks_across_rounds;
    Alcotest.test_case "stamps: epochs monotone" `Quick test_epochs_monotone;
    Alcotest.test_case "pool: oversubscribed spin-then-park hammer" `Quick
      test_pool_spin_hammer;
    Alcotest.test_case "pool: park-only (spin=0)" `Quick test_pool_park_only;
  ]
