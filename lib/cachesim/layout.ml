(* Graph-layout cache modelling: what the compact CSR buys.

   The paper's locality argument (Fig. 11/12) is about how a layout
   maps the runtime's access stream onto cache lines. This module
   replays a *recorded* schedule — the same streams [Hierarchy.replay]
   consumes, where each record's lock ids are the graph nodes a task
   touched — against a byte-accurate model of a CSR layout: reading
   node [u]'s adjacency touches the cache lines holding
   [offsets[u..u+1]] and [targets[lo..hi)], whose byte addresses depend
   on the element width. Replaying the identical stream at 8 bytes per
   entry (the old boxed [int array] substrate) and at the compact
   plane's own width (4 bytes below 2^31) isolates the layout effect:
   same accesses, same cache, different line footprint. *)

type summary = {
  label : string;
  entry_bytes : int;
  accesses : int;
  hits : int;
  misses : int;
  lines_touched : int;  (* distinct cache lines the graph spans in the stream *)
}

let hit_rate s =
  if s.accesses = 0 then 0.0 else float_of_int s.hits /. float_of_int s.accesses

let line_bytes = 64

(* Touch every line the traversal of [u]'s adjacency reads under the
   given element width. Offsets and targets occupy disjoint
   line-aligned regions, exactly like two separately allocated
   planes. *)
let touch_node ~entry_bytes g ~touch u =
  let n = Graphlib.Csr.nodes g in
  let targets_base = (((n + 1) * entry_bytes) + line_bytes - 1) / line_bytes in
  (* offsets[u] and offsets[u+1] *)
  touch (u * entry_bytes / line_bytes);
  touch ((u + 1) * entry_bytes / line_bytes);
  let lo, hi = Graphlib.Csr.edge_range g u in
  if hi > lo then begin
    let first = targets_base + (lo * entry_bytes / line_bytes) in
    let last = targets_base + ((hi - 1) * entry_bytes / line_bytes) in
    for line = first to last do
      touch line
    done
  end

(* Replay a recorded schedule's node stream through one cache per
   worker (round-robin worker assignment, like [Hierarchy.replay]). *)
let replay ?(lines = 512) ?(associativity = 8) ?(threads = 1) ~entry_bytes ~label g schedule =
  let caches = Array.init threads (fun _ -> Cache.create ~lines ~associativity) in
  let seen = Hashtbl.create 1024 in
  let accesses = ref 0 in
  let touch_with cache line =
    incr accesses;
    if not (Hashtbl.mem seen line) then Hashtbl.add seen line ();
    ignore (Cache.access cache line)
  in
  let replay_record worker (r : Galois.Schedule.task_record) =
    let cache = caches.(worker mod threads) in
    Array.iter
      (fun lid ->
        if lid >= 0 && lid < Graphlib.Csr.nodes g then
          touch_node ~entry_bytes g ~touch:(touch_with cache) lid)
      r.Galois.Schedule.locks
  in
  (match schedule with
  | Galois.Schedule.Flat records -> List.iteri replay_record records
  | Galois.Schedule.Rounds rounds ->
      List.iter
        (fun round ->
          Array.iteri replay_record round;
          Array.iteri
            (fun i r -> if r.Galois.Schedule.committed then replay_record i r)
            round)
        rounds);
  let hits = Array.fold_left (fun acc c -> acc + Cache.hits c) 0 caches in
  let misses = Array.fold_left (fun acc c -> acc + Cache.misses c) 0 caches in
  {
    label;
    entry_bytes;
    accesses = !accesses;
    hits;
    misses;
    lines_touched = Hashtbl.length seen;
  }

(* The headline comparison: the same recorded stream under the old
   8-byte boxed-array layout and under the graph's own compact plane
   width. *)
let compare_layouts ?lines ?associativity ?threads g schedule =
  let compact_bytes =
    Graphlib.Plane.bytes_per_value (Graphlib.Csr.targets_plane g)
  in
  let boxed = replay ?lines ?associativity ?threads ~entry_bytes:8 ~label:"boxed-8B" g schedule in
  let compact =
    replay ?lines ?associativity ?threads ~entry_bytes:compact_bytes
      ~label:(Printf.sprintf "compact-%dB" compact_bytes)
      g schedule
  in
  (boxed, compact)
