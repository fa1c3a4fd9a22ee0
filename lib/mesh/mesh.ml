(* A mutable triangle mesh with neighbor adjacency and per-triangle
   abstract locks — the shared-memory data structure under both Delaunay
   triangulation (Bowyer–Watson cavities) and Delaunay mesh refinement
   (Chew cavities), used through the Galois runtime.

   Synchronization contract: a task must acquire a triangle's lock
   (through its operator context) before reading or writing any field of
   that triangle. The cavity helpers below take an [acquire] callback and
   call it before first touching each triangle. *)

module Pointstore = Pointstore
(* re-export: [mesh.ml] is the library's root module *)

module Point = Geometry.Point
module Predicates = Geometry.Predicates

type triangle = {
  tid : int;
  v : int array;  (* 3 vertex ids, counter-clockwise *)
  nbr : triangle option array;  (* nbr.(i) shares the edge opposite v.(i); None = domain border *)
  mutable alive : bool;
  lock : Galois.Lock.t;
  mutable bucket : int list;  (* uninserted points located in this triangle (dt) *)
}

type t = {
  points : Pointstore.t;
  tid_counter : int Atomic.t;
  registry : triangle list ref;
  registry_lock : Mutex.t;
}

let create ?capacity () =
  let capacity = Option.value ~default:65536 capacity in
  {
    points = Pointstore.create ~capacity ();
    tid_counter = Atomic.make 0;
    registry = ref [];
    registry_lock = Mutex.create ();
  }

let points t = t.points
let point t id = Pointstore.get t.points id
let add_point t p = Pointstore.add t.points p

let triangle_point t tri i = point t tri.v.(i)

let new_triangle t a b c =
  let tri =
    {
      tid = Atomic.fetch_and_add t.tid_counter 1;
      v = [| a; b; c |];
      nbr = [| None; None; None |];
      alive = true;
      lock = Galois.Lock.create ();
      bucket = [];
    }
  in
  Mutex.lock t.registry_lock;
  t.registry := tri :: !(t.registry);
  Mutex.unlock t.registry_lock;
  tri

(* All currently alive triangles. Only meaningful in quiescent (not
   mid-parallel-section) states. *)
let triangles t = List.filter (fun tri -> tri.alive) !(t.registry)

let triangle_count t = List.length (triangles t)

(* The index (0..2) of the neighbor slot of [outer] that faces the edge
   {a, b}: the slot whose vertex is neither a nor b. *)
let facing_index outer a b =
  let has x = outer.v.(0) = x || outer.v.(1) = x || outer.v.(2) = x in
  if a = b || (not (has a)) || not (has b) then
    invalid_arg "Mesh.facing_index: triangles do not share edge {a,b}";
  let rec go i = if outer.v.(i) <> a && outer.v.(i) <> b then i else go (i + 1) in
  go 0

type boundary_edge = { a : int; b : int; outer : triangle option; inner : triangle }
type cavity = { old_tris : triangle list; boundary : boundary_edge list }

exception Blocked of int * int * triangle
(* The cavity reached a domain border edge (a, b) of the given triangle
   with the insertion point strictly beyond it (outside the domain);
   refinement must split the border edge instead. *)

(* Grow the cavity of triangles whose open circumdisk contains [p],
   starting from [start] (which must contain p in its circumdisk).
   [acquire] is called on every triangle read — cavity members and
   boundary outers alike — so the caller's neighborhood covers exactly
   what this function touches. *)
let same_edge (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

let collect_cavity ?ignore_border t ~acquire ~start p =
  let is_ignored ea eb =
    match ignore_border with Some e -> same_edge e (ea, eb) | None -> false
  in
  acquire start;
  if not start.alive then invalid_arg "Mesh.collect_cavity: dead start triangle";
  let visited = Hashtbl.create 16 in
  Hashtbl.add visited start.tid ();
  let cavity = ref [] and boundary = ref [] in
  let stack = ref [ start ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | tri :: rest ->
        stack := rest;
        cavity := tri :: !cavity;
        for i = 0 to 2 do
          let ea = tri.v.((i + 1) mod 3) and eb = tri.v.((i + 2) mod 3) in
          match tri.nbr.(i) with
          | None ->
              (* Domain border. If p lies strictly beyond it, the cavity
                 would leave the domain. *)
              (* [ignore_border] marks the segment currently being
                 split: its midpoint may fall a rounding error outside
                 the domain, which must not abort the split. *)
              if (not (is_ignored ea eb))
                 && Predicates.orient2d (point t ea) (point t eb) p < 0
              then raise (Blocked (ea, eb, tri));
              boundary := { a = ea; b = eb; outer = None; inner = tri } :: !boundary
          | Some u ->
              (* A visited neighbor is a cavity member: internal edge.
                 Unvisited neighbors are tested; rejected ones may be
                 re-tested through another edge — each rejection is a
                 distinct boundary edge, as required. *)
              if not (Hashtbl.mem visited u.tid) then begin
                acquire u;
                let pa = point t u.v.(0) and pb = point t u.v.(1) and pc = point t u.v.(2) in
                if Predicates.incircle pa pb pc p > 0 then begin
                  Hashtbl.add visited u.tid ();
                  stack := u :: !stack
                end
                else boundary := { a = ea; b = eb; outer = Some u; inner = tri } :: !boundary
              end
        done
  done;
  { old_tris = !cavity; boundary = !boundary }

(* Replace the cavity by the star of [q] over the boundary edges.
   [register] is called with each new triangle's lock so the scheduler
   can integrate freshly created locations (claimed immediately under
   speculative execution, nothing under deterministic commit).
   Returns the new triangles. *)
let retriangulate ?split t ~register cavity q =
  List.iter (fun tri -> tri.alive <- false) cavity.old_tris;
  (* [split] names a border segment whose midpoint [q] is: that edge is
     not starred (the triangle would be degenerate — q lies on it). Its
     two halves (a,q) and (q,b) become border edges of the adjacent star
     triangles automatically, splitting the segment. The exclusion is
     structural (by vertex ids), because a floating-point midpoint need
     not be exactly collinear with its segment. *)
  let is_split a b = match split with Some e -> same_edge e (a, b) | None -> false in
  let starrable = List.filter (fun { a; b; _ } -> not (is_split a b)) cavity.boundary in
  let by_first = Hashtbl.create 8 and by_second = Hashtbl.create 8 in
  let fresh =
    List.map
      (fun { a; b; outer; inner = _ } ->
        let nt = new_triangle t a b q in
        register nt.lock;
        Hashtbl.replace by_first a nt;
        Hashtbl.replace by_second b nt;
        (nt, outer))
      starrable
  in
  List.iter
    (fun (nt, outer) ->
      let a = nt.v.(0) and b = nt.v.(1) in
      (* Slot 2 (opposite q) faces the old boundary edge. *)
      nt.nbr.(2) <- outer;
      (match outer with
      | None -> ()
      | Some o -> o.nbr.(facing_index o a b) <- Some nt);
      (* Slot 0 (opposite a) faces edge (b, q): the star triangle whose
         boundary edge starts at b. Slot 1 (opposite b) faces (q, a). *)
      nt.nbr.(0) <- Hashtbl.find_opt by_first b;
      nt.nbr.(1) <- Hashtbl.find_opt by_second a)
    fresh;
  List.map fst fresh

(* --- cavity-free helpers -------------------------------------------- *)

let circumcircle_contains t tri p =
  Predicates.incircle (triangle_point t tri 0) (triangle_point t tri 1) (triangle_point t tri 2) p
  > 0

let contains_point t tri p =
  Predicates.in_triangle (triangle_point t tri 0) (triangle_point t tri 1) (triangle_point t tri 2)
    p

let min_angle t tri =
  Predicates.min_angle_deg (triangle_point t tri 0) (triangle_point t tri 1)
    (triangle_point t tri 2)

let circumcenter t tri =
  Predicates.circumcenter (triangle_point t tri 0) (triangle_point t tri 1)
    (triangle_point t tri 2)

(* --- initial meshes -------------------------------------------------- *)

(* A triangle with far-away corners enclosing the working region; its
   three synthetic vertices are returned so callers can strip them
   later. *)
let bounding_triangle t =
  let span = 1.0e4 in
  let f1 = add_point t (Point.make (-.span) (-.span)) in
  let f2 = add_point t (Point.make span (-.span)) in
  let f3 = add_point t (Point.make 0.0 span) in
  let tri = new_triangle t f1 f2 f3 in
  (tri, [ f1; f2; f3 ])

(* Remove every triangle touching one of the given (synthetic) vertex
   ids; surviving neighbors get border edges. Sequential; used between
   phases. *)
let strip_vertices t fake_ids =
  let fake = Hashtbl.create 4 in
  List.iter (fun id -> Hashtbl.add fake id ()) fake_ids;
  let is_fake tri = Array.exists (fun id -> Hashtbl.mem fake id) tri.v in
  List.iter
    (fun tri ->
      if tri.alive && is_fake tri then begin
        tri.alive <- false;
        Array.iter
          (function
            | Some u when u.alive && not (is_fake u) ->
                (* u's slot facing tri becomes a border. *)
                for i = 0 to 2 do
                  match u.nbr.(i) with
                  | Some w when w == tri -> u.nbr.(i) <- None
                  | _ -> ()
                done
            | _ -> ())
          tri.nbr
      end)
    !(t.registry)

(* --- validation (tests) ---------------------------------------------- *)

let check_consistency t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let alive = triangles t in
  List.iter
    (fun tri ->
      let pa = triangle_point t tri 0
      and pb = triangle_point t tri 1
      and pc = triangle_point t tri 2 in
      if Predicates.orient2d pa pb pc <= 0 then
        note "triangle %d not counter-clockwise" tri.tid;
      for i = 0 to 2 do
        let ea = tri.v.((i + 1) mod 3) and eb = tri.v.((i + 2) mod 3) in
        match tri.nbr.(i) with
        | None -> ()
        | Some u ->
            if not u.alive then note "triangle %d has dead neighbor %d" tri.tid u.tid;
            (* Neighbor must share the edge and point back. *)
            let shares = Array.exists (fun x -> x = ea) u.v && Array.exists (fun x -> x = eb) u.v in
            if not shares then note "triangles %d and %d disagree on shared edge" tri.tid u.tid;
            let back = Array.exists (function Some w -> w == tri | None -> false) u.nbr in
            if not back then note "neighbor link %d -> %d not symmetric" tri.tid u.tid
      done)
    alive;
  match !problems with [] -> Ok () | l -> Error (String.concat "; " l)

(* Count of internal edges violating the local Delaunay property
   (opposite vertex strictly inside circumcircle). Zero for a Delaunay
   triangulation; used in tests. *)
let delaunay_violations ?(exclude = fun _ -> false) t =
  let count = ref 0 in
  List.iter
    (fun tri ->
      if not (Array.exists exclude tri.v) then
        for i = 0 to 2 do
          match tri.nbr.(i) with
          | Some u when not (Array.exists exclude u.v) ->
              (* Opposite vertex of u across the shared edge. *)
              let ea = tri.v.((i + 1) mod 3) and eb = tri.v.((i + 2) mod 3) in
              let w = u.v.(facing_index u ea eb) in
              if circumcircle_contains t tri (point t w) then incr count
          | _ -> ()
        done)
    (triangles t);
  !count
