(* The in-memory graph catalog: load once, query many.

   Entries are immutable once added — a graph, optional per-edge
   weights, and a symmetry flag computed at load time so queries that
   need an undirected graph (cc) can be refused deterministically
   instead of looping. The catalog is the service's only shared mutable
   state besides the admission queue, and it is append-only. *)

type entry = {
  name : string;
  graph : Graphlib.Csr.t;
  weights : int array option;
  symmetric : bool;
}

type t = {
  by_name : (string, entry) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
}

let create () = { by_name = Hashtbl.create 16; order = [] }

let add t ~name ?weights graph =
  if name = "" || String.contains name ':' then
    invalid_arg (Printf.sprintf "Catalog.add: invalid graph name %S" name);
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Catalog.add: duplicate graph %S" name);
  (match weights with
  | Some w when Array.length w <> Graphlib.Csr.edges graph ->
      invalid_arg
        (Printf.sprintf "Catalog.add: %S has %d edges but %d weights" name
           (Graphlib.Csr.edges graph) (Array.length w))
  | _ -> ());
  let entry =
    { name; graph; weights; symmetric = Graphlib.Csr.is_symmetric graph }
  in
  Hashtbl.replace t.by_name name entry;
  t.order <- name :: t.order;
  entry

let find t name = Hashtbl.find_opt t.by_name name
let names t = List.rev t.order

let total_graph_bytes t =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt t.by_name name with
      | None -> acc
      | Some e -> acc + Graphlib.Csr.memory_bytes e.graph)
    0 (List.rev t.order)

(* The standard demo/bench catalog: a directed k-out graph with weights
   (bfs + sssp) and a symmetrized one (cc). Everything is a function of
   [seed] and [nodes]. *)
let synthetic ?(seed = 2014) ~nodes () =
  let t = create () in
  let kd = Graphlib.Generators.kout ~seed ~n:nodes ~k:5 () in
  let weights = Graphlib.Graph_io.random_weights ~seed:(seed + 1) kd in
  ignore (add t ~name:"kout" ~weights kd);
  let sym = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed:(seed + 2) ~n:nodes ~k:3 ()) in
  ignore (add t ~name:"sym" sym);
  t
