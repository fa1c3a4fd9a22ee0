(* Maximal independent set (paper §4.1).

   - [plan]: the Lonestar non-deterministic greedy program — any node
     whose neighbors are not yet in the set joins it. The result is a
     valid MIS but depends on execution order (unless run under the
     deterministic policy).
   - [pbbs]: the deterministic data-parallel program via deterministic
     reservations: equivalent to the sequential lexicographically-first
     greedy, hence equal to [serial] — a strong cross-check.
   - [serial]: greedy in node order (lexicographically-first MIS). *)

module Csr = Graphlib.Csr

let plan g =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let in_mis = Array.make n false in
  let operator ctx u =
    Galois.Context.acquire ctx locks.(u);
    Csr.iter_succ g u (fun v -> Galois.Context.acquire ctx locks.(v));
    Galois.Context.work ctx (Csr.out_degree g u);
    Galois.Context.failsafe ctx;
    if not (Csr.exists_succ g u (fun v -> in_mis.(v))) then in_mis.(u) <- true
  in
  (Galois.Run.make ~operator (Array.init n Fun.id), fun () -> in_mis)

let serial g =
  let n = Csr.nodes g in
  let in_mis = Array.make n false in
  for u = 0 to n - 1 do
    if not (Csr.exists_succ g u (fun v -> in_mis.(v))) then in_mis.(u) <- true
  done;
  in_mis

(* PBBS-style deterministic MIS: speculative_for in node-priority order.
   An item reserves itself and its neighbors; if it owns everything it
   decides (joining unless an earlier neighbor already joined) and
   releases. The outcome equals the sequential greedy. *)
let pbbs ?granularity ~pool g =
  let n = Csr.nodes g in
  let in_mis = Array.make n false in
  let decided = Array.make n false in
  let cells = Detreserve.Cell.create_array n in
  let reserve u =
    if not decided.(u) then begin
      Detreserve.Cell.reserve cells.(u) u;
      Csr.iter_succ g u (fun v -> if not decided.(v) then Detreserve.Cell.reserve cells.(v) u)
    end
  in
  let commit u =
    if decided.(u) then true
    else begin
      let owns = ref (Detreserve.Cell.holds cells.(u) u) in
      Csr.iter_succ g u (fun v ->
          if (not decided.(v)) && not (Detreserve.Cell.holds cells.(v) u) then owns := false);
      let result =
        if !owns then begin
          (* All conflicting earlier neighbors are already decided. *)
          if not (Csr.exists_succ g u (fun v -> in_mis.(v))) then in_mis.(u) <- true;
          decided.(u) <- true;
          true
        end
        else false
      in
      (* Release own reservations either way so later rounds see free
         cells. *)
      Detreserve.Cell.release cells.(u) u;
      Csr.iter_succ g u (fun v -> Detreserve.Cell.release cells.(v) u);
      result
    end
  in
  let stats = Detreserve.speculative_for ?granularity ~pool ~n ~reserve ~commit () in
  (in_mis, stats)

let is_maximal_independent g in_mis =
  let n = Csr.nodes g in
  let ok = ref true in
  for u = 0 to n - 1 do
    if in_mis.(u) && Csr.exists_succ g u (fun v -> in_mis.(v)) then ok := false;
    if (not in_mis.(u)) && not (Csr.exists_succ g u (fun v -> in_mis.(v))) then ok := false
  done;
  !ok
