(* Compressed-sparse-row directed graphs on off-heap planes.

   The immutable topology shared by the graph benchmarks. Node ids are
   0..n-1; the out-edges of u occupy the index range
   [offsets.(u), offsets.(u+1)) of [targets]. Edge indices are stable
   and usable as keys for per-edge payload arrays (capacities, flows),
   and an optional weights plane stores per-edge weights adjacent to
   the topology (sssp).

   Storage is [Plane.t] (Bigarray, automatic 4/8-byte element sizing),
   so a graph's bulk lives outside the OCaml heap: the GC never scans
   or moves it, and a million-vertex graph costs a few dozen heap words
   regardless of edge count. Accessors are direct int loops — no
   closures or refs allocated per call on the traversal hot paths. *)

type t = {
  n : int;
  m : int;
  offsets : Plane.t;  (* length n+1, monotone, offsets[0]=0, offsets[n]=m *)
  targets : Plane.t;  (* length m, values in [0, n) *)
  weights : Plane.t option;  (* length m when present *)
  sorted : bool;  (* every adjacency range ascending (enables binary search) *)
}

let nodes t = t.n
let edges t = t.m

let memory_bytes t =
  Plane.memory_bytes t.offsets + Plane.memory_bytes t.targets
  + match t.weights with None -> 0 | Some w -> Plane.memory_bytes w

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let adjacency_sorted ~n ~offsets ~targets =
  let sorted = ref true in
  for u = 0 to n - 1 do
    let lo = Plane.unsafe_get offsets u and hi = Plane.unsafe_get offsets (u + 1) in
    for e = lo + 1 to hi - 1 do
      if Plane.unsafe_get targets (e - 1) > Plane.unsafe_get targets e then sorted := false
    done
  done;
  !sorted

(* Structural validation: offsets monotone and anchored, targets in
   range, weights (when present) matching the edge count. [Graph_io]
   runs this on every load, so a corrupt file that happens to pass the
   checksum still cannot produce an out-of-invariant graph. *)
let check ~n ~m ~offsets ~targets ~weights =
  if n < 0 || m < 0 then Error "negative node or edge count"
  else if Plane.length offsets <> n + 1 then Error "offsets length is not nodes + 1"
  else if Plane.length targets <> m then Error "targets length is not the edge count"
  else if Plane.get offsets 0 <> 0 then Error "offsets do not start at 0"
  else if Plane.get offsets n <> m then Error "offsets do not end at the edge count"
  else begin
    let ok = ref (Ok ()) in
    for u = 0 to n - 1 do
      if Plane.unsafe_get offsets u > Plane.unsafe_get offsets (u + 1) then
        ok := Error "offsets not monotone"
    done;
    for e = 0 to m - 1 do
      let v = Plane.unsafe_get targets e in
      if v < 0 || v >= n then ok := Error "edge target out of range"
    done;
    (match weights with
    | Some w when Plane.length w <> m -> ok := Error "weights length is not the edge count"
    | _ -> ());
    Result.map (fun () -> ()) !ok
  end

let of_planes ?weights ~n ~offsets ~targets () =
  match check ~n ~m:(Plane.length targets) ~offsets ~targets ~weights with
  | Error msg -> invalid_arg ("Csr.of_planes: " ^ msg)
  | Ok () ->
      let m = Plane.length targets in
      { n; m; offsets; targets; weights; sorted = adjacency_sorted ~n ~offsets ~targets }

let of_adjacency adj =
  let n = Array.length adj in
  let offsets_arr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets_arr.(u + 1) <- offsets_arr.(u) + List.length adj.(u)
  done;
  let m = offsets_arr.(n) in
  let offsets = Plane.create ~max_value:m (n + 1) in
  Array.iteri (fun i o -> Plane.unsafe_set offsets i o) offsets_arr;
  let targets = Plane.create ~max_value:(max 0 (n - 1)) m in
  for u = 0 to n - 1 do
    List.iteri
      (fun i v ->
        if v < 0 || v >= n then invalid_arg "Csr.of_adjacency: node out of range";
        Plane.unsafe_set targets (offsets_arr.(u) + i) v)
      adj.(u)
  done;
  { n; m; offsets; targets; weights = None; sorted = adjacency_sorted ~n ~offsets ~targets }

(* Streaming counting-sort build shared by [of_edges] and
   [Builder.build]: a stable counting sort by source node, so edge
   order is preserved per source — the same adjacency order
   [of_adjacency] produces when its lists are built in edge order. *)
let of_edge_buffers ?wbuf ~n ~m ~src ~dst () =
  let degree = Plane.create ~max_value:m n in
  for i = 0 to m - 1 do
    let u = Plane.Buf.unsafe_get src i in
    Plane.unsafe_set degree u (Plane.unsafe_get degree u + 1)
  done;
  let offsets = Plane.create ~max_value:m (n + 1) in
  for u = 0 to n - 1 do
    Plane.unsafe_set offsets (u + 1) (Plane.unsafe_get offsets u + Plane.unsafe_get degree u)
  done;
  (* [degree] becomes the insertion cursor (relative position within
     each source's range). *)
  for u = 0 to n - 1 do
    Plane.unsafe_set degree u 0
  done;
  let targets = Plane.create ~max_value:(max 0 (n - 1)) m in
  let weights =
    match wbuf with
    | None -> None
    | Some wb ->
        let max_w = ref 0 in
        for i = 0 to m - 1 do
          max_w := max !max_w (Plane.Buf.unsafe_get wb i)
        done;
        Some (Plane.create ~max_value:!max_w m)
  in
  for i = 0 to m - 1 do
    let u = Plane.Buf.unsafe_get src i in
    let e = Plane.unsafe_get offsets u + Plane.unsafe_get degree u in
    Plane.unsafe_set degree u (Plane.unsafe_get degree u + 1);
    Plane.unsafe_set targets e (Plane.Buf.unsafe_get dst i);
    match weights with
    | None -> ()
    | Some w -> Plane.unsafe_set w e (Plane.Buf.unsafe_get (Option.get wbuf) i)
  done;
  { n; m; offsets; targets; weights; sorted = adjacency_sorted ~n ~offsets ~targets }

let of_edges ~n edge_list =
  let m = Array.length edge_list in
  let src = Plane.Buf.create m and dst = Plane.Buf.create m in
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Csr.of_edges: node out of range";
      Plane.Buf.push src u;
      Plane.Buf.push dst v)
    edge_list;
  of_edge_buffers ~n ~m ~src ~dst ()

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)
(* ------------------------------------------------------------------ *)

let weighted t = t.weights <> None

let weight t e =
  match t.weights with
  | None -> invalid_arg "Csr.weight: graph has no weight plane"
  | Some w ->
      if e < 0 || e >= t.m then invalid_arg "Csr.weight: edge index out of bounds";
      Plane.unsafe_get w e

let unsafe_weight t e =
  match t.weights with None -> 0 | Some w -> Plane.unsafe_get w e

let with_weight_plane t w =
  if Plane.length w <> t.m then invalid_arg "Csr.with_weight_plane: weight plane size mismatch";
  { t with weights = Some w }

let weights_array t = Option.map Plane.to_array t.weights

(* ------------------------------------------------------------------ *)
(* Accessors (direct int loops on the hot paths)                       *)
(* ------------------------------------------------------------------ *)

let check_node t u name =
  if u < 0 || u >= t.n then invalid_arg (name ^ ": node out of bounds")

let out_degree t u =
  check_node t u "Csr.out_degree";
  Plane.unsafe_get t.offsets (u + 1) - Plane.unsafe_get t.offsets u

(* The edge range [first_edge t u, end_edge t u) of [u]'s successors, for
   a plain [for] loop over {!target}: no closure per call. *)
let first_edge t u =
  check_node t u "Csr.first_edge";
  Plane.unsafe_get t.offsets u

let end_edge t u =
  check_node t u "Csr.end_edge";
  Plane.unsafe_get t.offsets (u + 1)

let target t e =
  if e < 0 || e >= t.m then invalid_arg "Csr.target: edge index out of bounds";
  Plane.unsafe_get t.targets e

let iter_succ t u f =
  check_node t u "Csr.iter_succ";
  let hi = Plane.unsafe_get t.offsets (u + 1) in
  let e = ref (Plane.unsafe_get t.offsets u) in
  while !e < hi do
    f (Plane.unsafe_get t.targets !e);
    incr e
  done

let iter_succ_edges t u f =
  check_node t u "Csr.iter_succ_edges";
  let hi = Plane.unsafe_get t.offsets (u + 1) in
  let e = ref (Plane.unsafe_get t.offsets u) in
  while !e < hi do
    f !e (Plane.unsafe_get t.targets !e);
    incr e
  done

let exists_succ t u p =
  check_node t u "Csr.exists_succ";
  let hi = Plane.unsafe_get t.offsets (u + 1) in
  let rec go e = e < hi && (p (Plane.unsafe_get t.targets e) || go (e + 1)) in
  go (Plane.unsafe_get t.offsets u)

(* Membership: binary search over the adjacency range when every range
   is sorted (symmetrize output, sorted builders), linear scan
   otherwise. The result is the same either way, so callers stay
   schedule-deterministic regardless of which path runs. *)
let mem_edge t u v =
  check_node t u "Csr.mem_edge";
  let lo = Plane.unsafe_get t.offsets u and hi = Plane.unsafe_get t.offsets (u + 1) in
  if t.sorted then begin
    let lo = ref lo and hi = ref hi in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      let w = Plane.unsafe_get t.targets mid in
      if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
    done;
    !found
  end
  else begin
    let rec go e = e < hi && (Plane.unsafe_get t.targets e = v || go (e + 1)) in
    go lo
  end

let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_succ t u (fun v -> f u v)
  done

let iter_edges_i t f =
  for u = 0 to t.n - 1 do
    iter_succ_edges t u (fun e v -> f e u v)
  done

let all_edges t =
  let out = Array.make t.m (0, 0) in
  for u = 0 to t.n - 1 do
    iter_succ_edges t u (fun e v -> out.(e) <- (u, v))
  done;
  out

(* Make the graph symmetric and simple: for every edge (u,v), both
   directions exist, self-loops dropped, duplicates removed, adjacency
   sorted ascending. List-free: both directions are counting-sorted
   into a staging plane, each range is sorted with the int-specialized
   [Plane.sort_range], and duplicates are squeezed out in one pass.
   detlint note: the output is a pure function of the input edge set —
   ascending distinct neighbor ids — identical to the old
   [List.sort_uniq compare] path, just without polymorphic compare. *)
let symmetrize t =
  let n = t.n in
  (* Count both directions of every non-self-loop edge. *)
  let degree = Plane.create ~max_value:(2 * t.m) n in
  let bump u = Plane.unsafe_set degree u (Plane.unsafe_get degree u + 1) in
  iter_edges t (fun u v ->
      if u <> v then begin
        bump u;
        bump v
      end);
  let offsets = Plane.create ~max_value:(2 * t.m) (n + 1) in
  for u = 0 to n - 1 do
    Plane.unsafe_set offsets (u + 1) (Plane.unsafe_get offsets u + Plane.unsafe_get degree u)
  done;
  let total = Plane.unsafe_get offsets n in
  let staged = Plane.create ~max_value:(max 0 (n - 1)) total in
  for u = 0 to n - 1 do
    Plane.unsafe_set degree u 0
  done;
  let place u v =
    let e = Plane.unsafe_get offsets u + Plane.unsafe_get degree u in
    Plane.unsafe_set degree u (Plane.unsafe_get degree u + 1);
    Plane.unsafe_set staged e v
  in
  iter_edges t (fun u v ->
      if u <> v then begin
        place u v;
        place v u
      end);
  (* Sort each range, count distinct neighbors, then pack the deduped
     adjacency into finally-sized planes. *)
  let m' = ref 0 in
  for u = 0 to n - 1 do
    let lo = Plane.unsafe_get offsets u and hi = Plane.unsafe_get offsets (u + 1) in
    Plane.sort_range staged lo hi;
    let d = ref 0 in
    for e = lo to hi - 1 do
      if e = lo || Plane.unsafe_get staged e <> Plane.unsafe_get staged (e - 1) then incr d
    done;
    Plane.unsafe_set degree u !d;
    m' := !m' + !d
  done;
  let offsets' = Plane.create ~max_value:!m' (n + 1) in
  for u = 0 to n - 1 do
    Plane.unsafe_set offsets' (u + 1) (Plane.unsafe_get offsets' u + Plane.unsafe_get degree u)
  done;
  let targets' = Plane.create ~max_value:(max 0 (n - 1)) !m' in
  let cursor = ref 0 in
  for u = 0 to n - 1 do
    let lo = Plane.unsafe_get offsets u and hi = Plane.unsafe_get offsets (u + 1) in
    for e = lo to hi - 1 do
      if e = lo || Plane.unsafe_get staged e <> Plane.unsafe_get staged (e - 1) then begin
        Plane.unsafe_set targets' !cursor (Plane.unsafe_get staged e);
        incr cursor
      end
    done
  done;
  { n; m = !m'; offsets = offsets'; targets = targets'; weights = None; sorted = true }

(* Reverse-edge check. With sorted adjacency (every symmetrize output)
   each reverse lookup is a binary search — O(m log d) overall instead
   of the old O(m d) via [exists_succ] — so it stays usable on
   million-vertex catalogs. Unsorted graphs fall back to the linear
   scan inside [mem_edge]; the verdict is identical. *)
let is_symmetric t =
  let ok = ref true in
  for u = 0 to t.n - 1 do
    iter_succ t u (fun v -> if not (mem_edge t v u) then ok := false)
  done;
  !ok

let validate t =
  check ~n:t.n ~m:t.m ~offsets:t.offsets ~targets:t.targets ~weights:t.weights

let equal a b =
  a.n = b.n && a.m = b.m
  && Plane.equal a.offsets b.offsets
  && Plane.equal a.targets b.targets
  &&
  match (a.weights, b.weights) with
  | None, None -> true
  | Some wa, Some wb -> Plane.equal wa wb
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Internal plane access (Graph_io serialization)                      *)
(* ------------------------------------------------------------------ *)

let offsets_plane t = t.offsets
let targets_plane t = t.targets
let weights_plane t = t.weights

(* ------------------------------------------------------------------ *)
(* Streaming builder                                                   *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  (* Accumulates an edge stream in off-heap staging buffers, then packs
     it with the stable counting sort above — bypassing the
     [int list array] intermediate entirely. [build] yields the same
     adjacency order as [of_adjacency] applied to lists built in edge
     order, so schedules and digests over builder-made graphs are
     byte-identical to the list path. *)
  type csr = t

  type t = {
    n : int;
    src : Plane.Buf.t;
    dst : Plane.Buf.t;
    mutable wts : Plane.Buf.t option;  (* created on first weighted add *)
  }

  let create ?(capacity = 1024) ~n () =
    if n < 0 then invalid_arg "Csr.Builder.create: negative node count";
    { n; src = Plane.Buf.create capacity; dst = Plane.Buf.create capacity; wts = None }

  let nodes b = b.n

  let check_endpoints b u v =
    if u < 0 || u >= b.n || v < 0 || v >= b.n then
      invalid_arg "Csr.Builder.add_edge: node out of range"

  let add_edge b u v =
    (match b.wts with
    | Some _ -> invalid_arg "Csr.Builder.add_edge: builder is weighted"
    | None -> ());
    check_endpoints b u v;
    Plane.Buf.push b.src u;
    Plane.Buf.push b.dst v

  let add_weighted_edge b u v w =
    check_endpoints b u v;
    if w < 0 then invalid_arg "Csr.Builder.add_weighted_edge: negative weight";
    let wb =
      match b.wts with
      | Some wb -> wb
      | None ->
          if Plane.Buf.length b.src > 0 then
            invalid_arg "Csr.Builder.add_weighted_edge: builder already has unweighted edges";
          let wb = Plane.Buf.create 1024 in
          b.wts <- Some wb;
          wb
    in
    Plane.Buf.push b.src u;
    Plane.Buf.push b.dst v;
    Plane.Buf.push wb w

  let build b : csr =
    of_edge_buffers ?wbuf:b.wts ~n:b.n ~m:(Plane.Buf.length b.src) ~src:b.src ~dst:b.dst ()
end
