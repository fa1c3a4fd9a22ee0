(* Delaunay triangulation by incremental insertion (paper §4.1).

   Each task inserts one point: locate its containing triangle (via the
   per-point container pointer maintained with the mesh), flood the
   Bowyer–Watson cavity, and star the point to the cavity boundary.
   Uninserted points ride in triangle buckets and are redistributed when
   their triangle dies — all under the cavity's locks, so the program is
   correct under speculative execution and deterministic under DIG
   scheduling.

   The continuation optimization (§3.3) saves the computed cavity at the
   failsafe point and reuses it at commit.

   - [plan]: the operator above, solved under any policy (g-n / g-d).
   - [pbbs]: deterministic reservations over insertion priorities —
     the handwritten deterministic variant.
   - [serial]: sequential incremental insertion. *)

module Point = Geometry.Point

type state = {
  mesh : Mesh.t;
  cont : Mesh.triangle option array;  (* point id -> containing triangle *)
  n : int;  (* number of real points; ids 0..n-1 *)
}

let prepare points =
  let n = Array.length points in
  let mesh = Mesh.create ~capacity:(2 * (n + 8)) () in
  Array.iter (fun p -> ignore (Mesh.add_point mesh p)) points;
  let big, fakes = Mesh.bounding_triangle mesh in
  let cont = Array.make n (Some big) in
  big.Mesh.bucket <- List.init n Fun.id;
  (({ mesh; cont; n } : state), fakes)

(* Locate the current containing triangle of [pid]: optimistic read of
   the container pointer, acquire, re-validate. [None] = already
   inserted. *)
let rec locate st ~acquire pid =
  match st.cont.(pid) with
  | None -> None
  | Some tri ->
      acquire tri;
      (match st.cont.(pid) with
      | Some tri' when tri' == tri && tri.Mesh.alive -> Some tri
      | _ -> locate st ~acquire pid)

(* Move the bucketed points of the dead cavity triangles into the fresh
   triangles, updating their container pointers. Runs under the cavity
   locks. *)
let redistribute st cavity fresh inserted =
  let place x =
    let px = Mesh.point st.mesh x in
    let target =
      match List.find_opt (fun nt -> Mesh.contains_point st.mesh nt px) fresh with
      | Some nt -> Some nt
      | None ->
          (* On a numeric boundary the containment test can reject
             everywhere; circumcircle containment still holds inside the
             cavity region. *)
          List.find_opt (fun nt -> Mesh.circumcircle_contains st.mesh nt px) fresh
    in
    let target = match (target, fresh) with Some nt, _ -> nt | None, nt :: _ -> nt | None, [] -> assert false in
    st.cont.(x) <- Some target;
    target.Mesh.bucket <- x :: target.Mesh.bucket
  in
  List.iter
    (fun old ->
      List.iter (fun x -> if x <> inserted then place x) old.Mesh.bucket;
      old.Mesh.bucket <- [])
    cavity.Mesh.old_tris

let insert_with_cavity st ctx pid cavity =
  Galois.Context.failsafe ctx;
  let fresh =
    Mesh.retriangulate st.mesh ~register:(Galois.Context.register_new ctx) cavity pid
  in
  redistribute st cavity fresh pid;
  st.cont.(pid) <- None

let operator st ctx pid =
  match Galois.Context.saved ctx with
  | Some cavity -> insert_with_cavity st ctx pid cavity
  | None -> (
      let acquire tri = Galois.Context.acquire ctx tri.Mesh.lock in
      match locate st ~acquire pid with
      | None -> () (* already inserted: pure no-op *)
      | Some start ->
          let p = Mesh.point st.mesh pid in
          let cavity = Mesh.collect_cavity st.mesh ~acquire ~start p in
          Galois.Context.work ctx (List.length cavity.Mesh.old_tris);
          Galois.Context.save ctx cavity;
          insert_with_cavity st ctx pid cavity)

(* The reader strips the bounding vertices, so it runs once, after the
   run. *)
let plan points =
  let st, fakes = prepare points in
  ( Galois.Run.make ~operator:(operator st) (Array.init st.n Fun.id),
    fun () ->
      Mesh.strip_vertices st.mesh fakes;
      st.mesh )

let serial points = fst (Galois.Run.solve ~policy:Galois.Policy.serial (plan points))

(* PBBS-style deterministic variant: deterministic reservations over
   insertion priorities, reusing the triangle mark words as
   min-reservation cells — priorities are encoded so that a smaller
   insertion index wins ([Lock.claim_max] keeps the max, so priority
   value = bound - index). This mirrors how the PBBS dt implementation
   is itself a handwritten DIG scheduler (paper §5.3). *)
let pbbs ?granularity ~pool points =
  let st, fakes = prepare points in
  let bound = st.n + 1 in
  let prio i = bound - i in
  let stamp = Galois.Lock.new_epoch () in
  let cavities = Array.make st.n None in
  let reserve i =
    if st.cont.(i) <> None then begin
      let acquired = ref [] in
      let acquire tri =
        ignore (Galois.Lock.claim_max tri.Mesh.lock ~stamp (prio i));
        acquired := tri :: !acquired
      in
      match locate st ~acquire i with
      | None -> cavities.(i) <- None
      | Some start ->
          let p = Mesh.point st.mesh i in
          let cavity = Mesh.collect_cavity st.mesh ~acquire ~start p in
          cavities.(i) <- Some (cavity, !acquired)
    end
  in
  let commit i =
    if st.cont.(i) = None then true
    else
      match cavities.(i) with
      | None -> true
      | Some (cavity, acquired) ->
          let mine tri = Galois.Lock.holds tri.Mesh.lock ~stamp (prio i) in
          let ok = List.for_all mine acquired in
          if ok then begin
            let fresh = Mesh.retriangulate st.mesh ~register:(fun _ -> ()) cavity i in
            redistribute st cavity fresh i;
            st.cont.(i) <- None
          end;
          (* Release surviving marks either way. *)
          List.iter (fun tri -> Galois.Lock.release tri.Mesh.lock ~stamp (prio i)) acquired;
          cavities.(i) <- None;
          ok
  in
  let stats =
    Detreserve.speculative_for ?granularity ~pool ~n:st.n ~reserve ~commit ()
  in
  Mesh.strip_vertices st.mesh fakes;
  (st.mesh, stats)

(* Canonical form for output comparison: triangles as sorted coordinate
   triples, sorted. Point ids are internal, coordinates are not. *)
let canonical mesh =
  let tri_key tri =
    let coords =
      List.sort compare
        (List.map
           (fun i ->
             let p = Mesh.triangle_point mesh tri i in
             (p.Point.x, p.Point.y))
           [ 0; 1; 2 ])
    in
    coords
  in
  List.sort compare (List.map tri_key (Mesh.triangles mesh))
