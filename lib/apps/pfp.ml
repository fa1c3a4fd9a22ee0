(* Preflow-push maximum flow with the global relabeling heuristic
   (paper §4.1, [13]).

   - [galois]: active nodes are unordered Galois tasks; one task
     discharges its node completely (pushing to admissible residual
     edges, relabeling when stuck). Nodes activated by incoming pushes
     are collected and form the next epoch's task pool; a global relabel
     runs between epochs once enough local relabels accumulated. The
     task universe is the node set, so the deterministic scheduler uses
     the paper's static-id fast path (§3.3).
   - [serial]: FIFO push-relabel with periodic global relabeling — the
     hi_pr-style sequential baseline of Fig. 8. *)

type result = {
  flow_value : int;
  epochs : int;
  global_relabels : int;
  stats : Galois.Stats.t;  (* summed over epochs; Stats.zero for serial *)
  schedule : Galois.Schedule.t option;  (* concatenated over epochs *)
  audit : Galois.Audit.report option;  (* merged over epochs *)
}

(* Discharge [u] to zero excess. [activated v] is called whenever a push
   gives v positive excess. Returns the number of local relabels. *)
let discharge net height excess ~activated u =
  let lo, hi = Flow_network.edge_range net u in
  let relabels = ref 0 and steps = ref 0 in
  while excess.(u) > 0 do
    (* One sweep over residual edges, pushing wherever admissible. *)
    let e = ref lo in
    while excess.(u) > 0 && !e < hi do
      let v = Flow_network.edge_target net !e in
      if net.Flow_network.cap.(!e) > 0 && height.(u) = height.(v) + 1 then begin
        let delta = min excess.(u) net.Flow_network.cap.(!e) in
        net.Flow_network.cap.(!e) <- net.Flow_network.cap.(!e) - delta;
        let r = net.Flow_network.rev.(!e) in
        net.Flow_network.cap.(r) <- net.Flow_network.cap.(r) + delta;
        excess.(u) <- excess.(u) - delta;
        let was = excess.(v) in
        excess.(v) <- was + delta;
        incr steps;
        if was = 0 && v <> net.Flow_network.source && v <> net.Flow_network.sink then
          activated v
      end;
      incr e
    done;
    if excess.(u) > 0 then begin
      (* Relabel: 1 + min height over residual out-edges. A node with
         excess always has one (the reverse of an edge that delivered
         flow). *)
      let m = ref max_int in
      for e = lo to hi - 1 do
        if net.Flow_network.cap.(e) > 0 then
          m := min !m (height.(Flow_network.edge_target net e))
      done;
      assert (!m < max_int);
      height.(u) <- !m + 1;
      incr relabels;
      incr steps
    end
  done;
  (!relabels, !steps)

let saturate_source net excess ~activated =
  let s = net.Flow_network.source in
  let lo, hi = Flow_network.edge_range net s in
  for e = lo to hi - 1 do
    let c = net.Flow_network.cap.(e) in
    if c > 0 then begin
      let v = Flow_network.edge_target net e in
      net.Flow_network.cap.(e) <- 0;
      let r = net.Flow_network.rev.(e) in
      net.Flow_network.cap.(r) <- net.Flow_network.cap.(r) + c;
      let was = excess.(v) in
      excess.(v) <- was + c;
      if was = 0 && v <> s && v <> net.Flow_network.sink then activated v
    end
  done

let galois ?(record = false) ?(audit = false) ?sink ~policy ?pool net =
  let n = Flow_network.nodes net in
  let locks = Galois.Lock.create_array n in
  let height = Array.make n 0 and excess = Array.make n 0 in
  let next_active = Array.make n false in
  Flow_network.global_relabel net height;
  saturate_source net excess ~activated:(fun v -> next_active.(v) <- true);
  let relabel_budget = max 16 (n / 4) in
  let pending_relabels = ref 0 in
  let epochs = ref 0 and global_relabels = ref 1 in
  let total = ref (Galois.Stats.zero (Galois.Policy.threads policy)) in
  let audit_total = ref Galois.Audit.empty_report in
  let flat_records = ref [] and round_records = ref [] in
  (* Per-node relabel tallies, written under the node's lock and summed
     sequentially between epochs — keeping the relabel trigger (and so
     the whole execution) deterministic under the deterministic policy. *)
  let relabel_tally = Array.make n 0 in
  let operator ctx u =
    Galois.Context.acquire ctx locks.(u);
    if excess.(u) <= 0 then () (* deactivated or duplicate: pure skip *)
    else begin
      let lo, hi = Flow_network.edge_range net u in
      for e = lo to hi - 1 do
        Galois.Context.acquire ctx locks.(Flow_network.edge_target net e)
      done;
      Galois.Context.failsafe ctx;
      let relabels, steps =
        discharge net height excess ~activated:(fun v -> next_active.(v) <- true) u
      in
      Galois.Context.work ctx steps;
      relabel_tally.(u) <- relabel_tally.(u) + relabels
    end
  in
  let collect_active () =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if next_active.(v) then begin
        next_active.(v) <- false;
        acc := v :: !acc
      end
    done;
    Array.of_list !acc
  in
  let rec loop () =
    let active = collect_active () in
    if Array.length active > 0 then begin
      incr epochs;
      if !pending_relabels >= relabel_budget then begin
        Flow_network.global_relabel net height;
        incr global_relabels;
        pending_relabels := 0
      end;
      (* One Run per epoch; a caller-supplied sink spans all epochs
         (Run never closes it), bracketing each with Run_begin/Run_end. *)
      let (), report =
        Galois.Run.solve ~record ~audit ?sink ?pool ~policy
          (Galois.Run.make ~operator active |> Galois.Run.static_id Fun.id, Fun.id)
      in
      (match report.schedule with
      | Some (Galois.Schedule.Flat l) -> flat_records := l :: !flat_records
      | Some (Galois.Schedule.Rounds l) -> round_records := l :: !round_records
      | None -> ());
      Array.iter
        (fun u ->
          pending_relabels := !pending_relabels + relabel_tally.(u);
          relabel_tally.(u) <- 0)
        active;
      total := Galois.Stats.add !total report.stats;
      (match report.audit with
      | Some a -> audit_total := Galois.Audit.merge_reports !audit_total a
      | None -> ());
      loop ()
    end
  in
  loop ();
  let schedule =
    if not record then None
    else if !round_records <> [] then
      Some (Galois.Schedule.Rounds (List.concat (List.rev !round_records)))
    else Some (Galois.Schedule.Flat (List.concat (List.rev !flat_records)))
  in
  {
    flow_value = excess.(net.Flow_network.sink);
    epochs = !epochs;
    global_relabels = !global_relabels;
    stats = !total;
    schedule;
    audit = (if audit then Some !audit_total else None);
  }

let serial net =
  let n = Flow_network.nodes net in
  let height = Array.make n 0 and excess = Array.make n 0 in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let activated v =
    if not queued.(v) then begin
      queued.(v) <- true;
      Queue.add v queue
    end
  in
  Flow_network.global_relabel net height;
  saturate_source net excess ~activated;
  let relabel_budget = max 16 (n / 4) in
  let pending = ref 0 in
  let global_relabels = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    queued.(u) <- false;
    if excess.(u) > 0 then begin
      if !pending >= relabel_budget then begin
        Flow_network.global_relabel net height;
        incr global_relabels;
        pending := 0
      end;
      let relabels, _ = discharge net height excess ~activated u in
      pending := !pending + relabels
    end
  done;
  {
    flow_value = excess.(net.Flow_network.sink);
    epochs = 1;
    global_relabels = !global_relabels;
    stats = Galois.Stats.zero 1;
    schedule = None;
    audit = None;
  }
