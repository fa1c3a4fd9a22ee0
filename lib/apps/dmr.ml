(* Delaunay mesh refinement (paper §4.1): Chew's algorithm.

   A task takes a bad triangle (minimum angle below threshold), inserts
   its circumcenter (or, when the circumcenter falls outside the domain,
   the midpoint of the border edge in the way), retriangulates the
   cavity, and creates tasks for any newly created bad triangles.

   The [min_edge] floor stops refinement of triangles whose shortest
   edge is already tiny: a standard safeguard that guarantees
   termination regardless of the angle threshold and floating-point
   placement of circumcenters.

   - [galois]: operator under any policy (g-n / g-d); new bad triangles
     are pushed as child tasks, exercising deterministic id assignment.
   - [pbbs]: deterministic reservations with dynamic work.
   - [serial]: worklist refinement. *)

module Point = Geometry.Point

type config = { min_angle : float; min_edge : float }

(* 20 degrees is safely below Ruppert's 20.7-degree termination bound;
   the [min_edge] floor is a belt-and-braces backstop against numeric
   corner cases (e.g. small angles between hull segments). *)
let default_config = { min_angle = 20.0; min_edge = 1e-3 }

let shortest_edge mesh tri =
  let p0 = Mesh.triangle_point mesh tri 0 in
  let p1 = Mesh.triangle_point mesh tri 1 in
  let p2 = Mesh.triangle_point mesh tri 2 in
  sqrt (Float.min (Point.dist2 p0 p1) (Float.min (Point.dist2 p1 p2) (Point.dist2 p2 p0)))

let is_bad cfg mesh tri =
  tri.Mesh.alive
  && Mesh.min_angle mesh tri < cfg.min_angle
  && shortest_edge mesh tri > cfg.min_edge

let bad_triangles cfg mesh = List.filter (is_bad cfg mesh) (Mesh.triangles mesh)

(* Is [p] strictly inside the diametral circle of segment (a, b)? The
   Ruppert encroachment test. *)
let encroaches a b p =
  Point.dot (Point.sub a p) (Point.sub b p) < 0.0

(* Compute the refinement cavity for [tri]: around its circumcenter —
   unless the circumcenter is outside the domain (cavity [Blocked]) or
   encroaches a border segment's diametral circle, in which case that
   segment's midpoint is inserted instead (Ruppert's rule; required for
   termination). Returns [None] when the task should be skipped. *)
let plan_cavity mesh ~acquire tri =
  let split_border a b btri =
    (* Split border segment (a,b) at its midpoint. The segment is
       excluded from the Blocked check (the midpoint may round to a hair
       outside the domain) and, later, from the star (see
       [Mesh.retriangulate ~split]). *)
    let m = Point.midpoint (Mesh.point mesh a) (Mesh.point mesh b) in
    match Mesh.collect_cavity ~ignore_border:(a, b) mesh ~acquire ~start:btri m with
    | cavity -> Some (m, cavity, Some (a, b))
    | exception Mesh.Blocked _ ->
        (* Numerically possible on a near-degenerate boundary; dropping
           the task is safe (mesh untouched). *)
        None
  in
  match Mesh.circumcenter mesh tri with
  | None -> None (* degenerate triangle; nothing sensible to do *)
  | Some c -> (
      match Mesh.collect_cavity mesh ~acquire ~start:tri c with
      | cavity -> (
          (* Ruppert: if the circumcenter encroaches any border segment
             on the cavity boundary, split that segment instead. *)
          let encroached =
            List.find_opt
              (fun be ->
                be.Mesh.outer = None
                && encroaches (Mesh.point mesh be.Mesh.a) (Mesh.point mesh be.Mesh.b) c)
              cavity.Mesh.boundary
          in
          match encroached with
          | Some be -> split_border be.Mesh.a be.Mesh.b be.Mesh.inner
          | None -> Some (c, cavity, None))
      | exception Mesh.Blocked (a, b, btri) -> split_border a b btri)

let refine_with cfg mesh ctx tri (newpt, cavity, split) =
  Galois.Context.failsafe ctx;
  let q = Mesh.add_point mesh newpt in
  let fresh =
    Mesh.retriangulate ?split mesh ~register:(Galois.Context.register_new ctx) cavity q
  in
  List.iter (fun nt -> if is_bad cfg mesh nt then Galois.Context.push ctx nt) fresh;
  (* A segment split need not destroy the offending triangle; requeue it
     (Ruppert). Terminates: the nearby segments keep shortening until the
     circumcenter becomes insertable or the triangle is destroyed. *)
  if tri.Mesh.alive && is_bad cfg mesh tri then Galois.Context.push ctx tri

let operator cfg mesh ctx tri =
  match Galois.Context.saved ctx with
  | Some plan -> refine_with cfg mesh ctx tri plan
  | None -> (
      let acquire t = Galois.Context.acquire ctx t.Mesh.lock in
      acquire tri;
      if not (is_bad cfg mesh tri) then () (* stale task: pure no-op *)
      else
        match plan_cavity mesh ~acquire tri with
        | None -> ()
        | Some plan ->
            let _, cavity, _ = plan in
            Galois.Context.work ctx (List.length cavity.Mesh.old_tris);
            Galois.Context.save ctx plan;
            refine_with cfg mesh ctx tri plan)

type op_state = Geometry.Point.t * Mesh.cavity * (int * int) option

(* Unexecuted run description over the initial bad triangles. No
   snapshot hook: triangles are identified physically within the live
   mesh, so a marshalled snapshot would detach them — dmr supports live
   in-process resume (crash/resume against the same mesh) only. *)
let plan ?(config = default_config) mesh =
  let bad = Array.of_list (bad_triangles config mesh) in
  (Galois.Run.make ~operator:(operator config mesh) bad |> Galois.Run.app "dmr", fun () -> mesh)

let galois ?config ?record ?audit ?sink ~policy ?pool mesh =
  snd (Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan ?config mesh))

let serial ?(config = default_config) mesh = galois ~config ~policy:Galois.Policy.serial mesh

(* PBBS-style deterministic variant: dynamic deterministic reservations,
   triangle mark words as min-reservation cells. *)
let pbbs ?(config = default_config) ?granularity ~pool mesh =
  (* Priorities are encoded into the 30-bit task-id field of the mark
     word; one lock epoch covers the whole refinement. *)
  let bound = Galois.Lock.max_task_id in
  let encode prio = bound - prio in
  let stamp = Galois.Lock.new_epoch () in
  (* The plan table is written concurrently during the reserve phase;
     Hashtbl needs external synchronization. Contention is negligible
     next to cavity computation. *)
  let plans = Hashtbl.create 1024 and plans_mutex = Mutex.create () in
  let put prio plan =
    Mutex.lock plans_mutex;
    Hashtbl.replace plans prio plan;
    Mutex.unlock plans_mutex
  in
  let take prio =
    Mutex.lock plans_mutex;
    let plan = Hashtbl.find_opt plans prio in
    Hashtbl.remove plans prio;
    Mutex.unlock plans_mutex;
    plan
  in
  let reserve prio tri =
    (* Everything claim_max touched must reach the commit phase so it
       can be released there — even when the plan is abandoned. A stale
       reservation would block every later (lower-priority) item
       forever. *)
    if is_bad config mesh tri then begin
      let acquired = ref [] in
      let acquire t =
        ignore (Galois.Lock.claim_max t.Mesh.lock ~stamp (encode prio));
        acquired := t :: !acquired
      in
      acquire tri;
      let plan = plan_cavity mesh ~acquire tri in
      put prio (plan, !acquired)
    end
  in
  let commit prio tri =
    match take prio with
    | None -> Some [] (* nothing reserved: the triangle was already good *)
    | Some (plan, acquired) -> (
        let finish () =
          List.iter (fun t -> Galois.Lock.release t.Mesh.lock ~stamp (encode prio)) acquired
        in
        match plan with
        | None ->
            (* plan_cavity declined (numeric corner); drop the task. *)
            finish ();
            Some []
        | Some (newpt, cavity, split) ->
            if not (is_bad config mesh tri) then begin
              (* A concurrent commit already destroyed the triangle. *)
              finish ();
              Some []
            end
            else begin
              let mine t = Galois.Lock.holds t.Mesh.lock ~stamp (encode prio) in
              if List.for_all mine acquired then begin
                let q = Mesh.add_point mesh newpt in
                let fresh = Mesh.retriangulate ?split mesh ~register:(fun _ -> ()) cavity q in
                finish ();
                let children = List.filter (is_bad config mesh) fresh in
                (* Requeue the offending triangle if a segment split left
                   it alive (Ruppert). *)
                let children =
                  if tri.Mesh.alive && is_bad config mesh tri then tri :: children else children
                in
                Some children
              end
              else begin
                finish ();
                None
              end
            end)
  in
  let initial = Array.of_list (bad_triangles config mesh) in
  Detreserve.speculative_for_dynamic ?granularity ~pool ~initial ~reserve ~commit ()

(* No alive triangle is still bad (the refinement postcondition). *)
let refined cfg mesh = bad_triangles cfg mesh = []
