let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fresh_lock_free () =
  let l = Galois.Lock.create () in
  check_int "mark is 0" 0 (Galois.Lock.mark l);
  check_int "raw word is 0" 0 (Galois.Lock.raw l);
  Array.iter
    (fun l -> check_int "fresh array element's word is 0" 0 (Galois.Lock.raw l))
    (Galois.Lock.create_array 32)

let test_ids_unique () =
  let locks = Galois.Lock.create_array 100 in
  let ids = Array.map Galois.Lock.id locks in
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  for i = 1 to 99 do
    if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate lock id"
  done

let check_contiguous name locks =
  let base = Galois.Lock.id locks.(0) in
  Array.iteri (fun i l -> check_int name (base + i) (Galois.Lock.id l)) locks

let test_create_array_contiguous_across_domains () =
  (* Each array reserves its whole lid range at once, so arrays created
     concurrently never interleave their lids. *)
  let make () = List.init 50 (fun _ -> Galois.Lock.create_array 200) in
  let other = Domain.spawn make in
  let mine = make () in
  let all = mine @ Domain.join other in
  List.iter (check_contiguous "lids are base..base+n-1") all;
  let lids = List.concat_map (fun a -> Array.to_list (Array.map Galois.Lock.id a)) all in
  check_int "no lid shared between arrays" (100 * 200)
    (List.length (List.sort_uniq compare lids))

let test_create_array_negative () =
  let before = Galois.Lock.id (Galois.Lock.create ()) in
  (match Galois.Lock.create_array (-1) with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ());
  check_int "next lid unchanged" (before + 1) (Galois.Lock.id (Galois.Lock.create ()));
  check_int "empty array allowed" 0 (Array.length (Galois.Lock.create_array 0))

let test_try_claim_across_domains () =
  (* The mark word is field 0 of the location's one block; claims from
     several domains on one array must still be exclusive: each location
     ends up held by exactly one claimant. *)
  let locks = Galois.Lock.create_array 256 in
  let stamp = Galois.Lock.new_epoch () in
  let ids = [| 3; 7; 11 |] in
  let claim id () = Array.map (fun l -> Galois.Lock.try_claim l ~stamp id) locks in
  let others = Array.map (fun id -> Domain.spawn (claim id)) (Array.sub ids 1 2) in
  let first = claim ids.(0) () in
  let won = Array.append [| first |] (Array.map Domain.join others) in
  Array.iteri
    (fun i l ->
      match List.filter (fun d -> won.(d).(i)) [ 0; 1; 2 ] with
      | [ d ] ->
          check_bool "winner holds the location" true (Galois.Lock.holds l ~stamp ids.(d))
      | holders -> Alcotest.failf "location %d claimed by %d tasks" i (List.length holders))
    locks;
  let count w = Array.fold_left (fun a b -> if b then a + 1 else a) 0 w in
  check_int "true results" 256 (Array.fold_left (fun acc w -> acc + count w) 0 won)

let test_try_claim () =
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  check_bool "first claim wins" true (Galois.Lock.try_claim l ~stamp 3);
  check_bool "re-claim by owner" true (Galois.Lock.try_claim l ~stamp 3);
  check_bool "other task loses" false (Galois.Lock.try_claim l ~stamp 4);
  Galois.Lock.release l ~stamp 3;
  check_bool "free after release" true (Galois.Lock.try_claim l ~stamp 4)

let test_release_only_owner () =
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  ignore (Galois.Lock.try_claim l ~stamp 5);
  Galois.Lock.release l ~stamp 9;
  check_int "non-owner release is a no-op" 5 (Galois.Lock.mark l);
  Galois.Lock.release l ~stamp 5;
  check_int "owner release frees" 0 (Galois.Lock.mark l)

let test_claim_max_monotone () =
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  check_int "claiming a free lock wins with no victim" 0
    (Galois.Lock.claim_max l ~stamp 5);
  check_int "higher id displaces 5" 5 (Galois.Lock.claim_max l ~stamp 9);
  check_int "lower id loses" Galois.Lock.lost (Galois.Lock.claim_max l ~stamp 7);
  check_int "mark is max" 9 (Galois.Lock.mark l);
  check_int "re-claim by current owner wins without victim" 0
    (Galois.Lock.claim_max l ~stamp 9)

let test_claim_max_concurrent_is_max () =
  (* The paper's determinism hinges on writeMarksMax being
     order-insensitive: the final mark is the max id no matter the
     interleaving. Hammer one lock from several domains. *)
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  let ids = Array.init 64 (fun i -> i + 1) in
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      Parallel.Domain_pool.parallel_for pool 0 64 (fun i ->
          ignore (Galois.Lock.claim_max l ~stamp ids.(i))));
  check_int "final mark is the max id" 64 (Galois.Lock.mark l)

let test_claim_max_loser_reported_exactly_once () =
  (* Every displaced id is reported exactly once across all claimants,
     and [lost] happens exactly for claims that observe a higher mark.
     With sequential claims in random order, the set of reported victims
     must be all ids except the max. *)
  let stamp = Galois.Lock.new_epoch () in
  let ids = [ 13; 2; 40; 7; 21; 40000; 5 ] in
  let l = Galois.Lock.create () in
  let victims = ref [] and losses = ref 0 in
  List.iter
    (fun id ->
      let v = Galois.Lock.claim_max l ~stamp id in
      if v = Galois.Lock.lost then incr losses
      else if v <> 0 then victims := v :: !victims)
    ids;
  (* 13 free -> 0; 2 -> lost; 40 -> displaces 13; 7 -> lost; 21 -> lost;
     40000 -> displaces 40; 5 -> lost. *)
  Alcotest.(check (list int)) "victims" [ 40; 13 ] !victims;
  check_int "losses" 4 !losses;
  check_int "final mark" 40000 (Galois.Lock.mark l)

let test_holds () =
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  check_bool "nobody holds fresh lock" false (Galois.Lock.holds l ~stamp 1);
  ignore (Galois.Lock.try_claim l ~stamp 1);
  check_bool "owner holds" true (Galois.Lock.holds l ~stamp 1);
  check_bool "other does not" false (Galois.Lock.holds l ~stamp 2)

(* --- round-stamp staleness: the release-free protocol ------------- *)

let test_stale_mark_is_free () =
  (* A mark from an earlier epoch is free by construction for every
     stamped operation under a later epoch — the invariant that lets the
     scheduler skip the end-of-round release pass entirely. *)
  let old_stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  ignore (Galois.Lock.try_claim l ~stamp:old_stamp 5);
  check_bool "mark held under its own epoch" true
    (Galois.Lock.holds l ~stamp:old_stamp 5);
  let stamp = Galois.Lock.new_epoch () in
  check_bool "stale mark not held under new epoch" false
    (Galois.Lock.holds l ~stamp 5);
  check_bool "try_claim treats stale mark as free" true
    (Galois.Lock.try_claim l ~stamp 3);
  check_int "new claim owns the word" 3 (Galois.Lock.mark l);
  check_bool "old epoch no longer holds" false
    (Galois.Lock.holds l ~stamp:old_stamp 5)

let test_claim_max_over_stale_mark () =
  (* claim_max over a stale mark wins with no victim and even a LOWER id
     than the stale one — stale owners are never reported displaced. *)
  let old_stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  ignore (Galois.Lock.claim_max l ~stamp:old_stamp 1000);
  let stamp = Galois.Lock.new_epoch () in
  check_int "lower id beats a stale mark, reporting no victim" 0
    (Galois.Lock.claim_max l ~stamp 2);
  check_int "fresh epoch owns with the lower id" 2 (Galois.Lock.mark l)

let test_stale_release_is_noop () =
  (* Releasing under a newer epoch never frees an older epoch's mark:
     the packed words differ, so the CAS fails. *)
  let old_stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  ignore (Galois.Lock.try_claim l ~stamp:old_stamp 5);
  let stamp = Galois.Lock.new_epoch () in
  Galois.Lock.release l ~stamp 5;
  check_int "stale mark survives mismatched release" 5 (Galois.Lock.mark l);
  Galois.Lock.release l ~stamp:old_stamp 5;
  check_int "matching epoch releases" 0 (Galois.Lock.mark l)

let test_pack_bounds () =
  let stamp = Galois.Lock.new_epoch () in
  let l = Galois.Lock.create () in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "id 0 rejected" true
    (invalid (fun () -> Galois.Lock.try_claim l ~stamp 0));
  check_bool "negative id rejected" true
    (invalid (fun () -> Galois.Lock.try_claim l ~stamp (-3)));
  check_bool "id above max_task_id rejected" true
    (invalid (fun () -> Galois.Lock.try_claim l ~stamp (Galois.Lock.max_task_id + 1)));
  check_bool "stamp 0 rejected" true
    (invalid (fun () -> Galois.Lock.try_claim l ~stamp:0 1));
  check_bool "max_task_id itself packs" true
    (Galois.Lock.try_claim l ~stamp Galois.Lock.max_task_id);
  check_int "mark decodes the full-width id" Galois.Lock.max_task_id
    (Galois.Lock.mark l)

(* Marking never allocates: 10k calls of each hot-path operation may
   cost only the boxed floats of the two [Gc.minor_words] reads. The
   loops are inline, not closures, so they allocate nothing themselves. *)
let test_marking_allocates_nothing () =
  let l = Galois.Lock.create () and calls = 10_000 in
  let stamp = Galois.Lock.new_epoch () in
  let check what before =
    let words = Gc.minor_words () -. before in
    if words > 8.0 then
      Alcotest.failf "%s allocated %.0f minor words over %d calls" what words calls
  in
  (* Rising ids: every claim displaces the previous one with a CAS. *)
  let before = Gc.minor_words () in
  for id = 1 to calls do
    ignore (Galois.Lock.claim_max l ~stamp id)
  done;
  check "claim_max" before;
  let stamp = Galois.Lock.new_epoch () in
  let before = Gc.minor_words () in
  for id = 1 to calls do
    ignore (Galois.Lock.try_claim l ~stamp (1 + (id land 1)))
  done;
  check "try_claim" before;
  let before = Gc.minor_words () in
  for id = 1 to calls do
    ignore (Galois.Lock.holds l ~stamp id)
  done;
  check "holds" before

(* Property: for any sequence of claim_max operations, the final mark is
   the maximum id claimed. *)
let prop_claim_max_commutes =
  QCheck.Test.make ~name:"claim_max final mark = max of ids" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 1 1_000_000))
    (fun ids ->
      QCheck.assume (ids <> []);
      let stamp = Galois.Lock.new_epoch () in
      let l = Galois.Lock.create () in
      List.iter (fun id -> ignore (Galois.Lock.claim_max l ~stamp id)) ids;
      Galois.Lock.mark l = List.fold_left max 0 ids)

(* Property: interleaving claims from two epochs, the final mark is the
   max of the ids claimed under the LAST epoch only — earlier-epoch
   claims are invisible once a later epoch touches the word. *)
let prop_claim_max_epochs_isolate =
  QCheck.Test.make ~name:"claim_max: later epoch shadows earlier" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (int_range 1 1_000_000))
        (list_of_size Gen.(int_range 1 20) (int_range 1 1_000_000)))
    (fun (old_ids, new_ids) ->
      let old_stamp = Galois.Lock.new_epoch () in
      let l = Galois.Lock.create () in
      List.iter (fun id -> ignore (Galois.Lock.claim_max l ~stamp:old_stamp id)) old_ids;
      let stamp = Galois.Lock.new_epoch () in
      List.iter (fun id -> ignore (Galois.Lock.claim_max l ~stamp id)) new_ids;
      Galois.Lock.mark l = List.fold_left max 0 new_ids)

let suite =
  [
    Alcotest.test_case "fresh lock is free" `Quick test_fresh_lock_free;
    Alcotest.test_case "lock ids unique" `Quick test_ids_unique;
    Alcotest.test_case "array lids contiguous across domains" `Quick
      test_create_array_contiguous_across_domains;
    Alcotest.test_case "negative array length rejected" `Quick test_create_array_negative;
    Alcotest.test_case "try_claim exclusive across domains" `Quick
      test_try_claim_across_domains;
    Alcotest.test_case "try_claim semantics" `Quick test_try_claim;
    Alcotest.test_case "release only by owner" `Quick test_release_only_owner;
    Alcotest.test_case "claim_max is monotone max" `Quick test_claim_max_monotone;
    Alcotest.test_case "claim_max under contention yields max" `Quick
      test_claim_max_concurrent_is_max;
    Alcotest.test_case "claim_max reports victims once" `Quick
      test_claim_max_loser_reported_exactly_once;
    Alcotest.test_case "holds" `Quick test_holds;
    Alcotest.test_case "stale mark is free" `Quick test_stale_mark_is_free;
    Alcotest.test_case "claim_max over stale mark" `Quick test_claim_max_over_stale_mark;
    Alcotest.test_case "stale release is a no-op" `Quick test_stale_release_is_noop;
    Alcotest.test_case "pack bounds" `Quick test_pack_bounds;
    Alcotest.test_case "marking allocates nothing" `Quick test_marking_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_claim_max_commutes;
    QCheck_alcotest.to_alcotest prop_claim_max_epochs_isolate;
  ]
