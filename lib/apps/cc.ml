(* Connected components by label propagation — a classic unordered
   Galois program: each task lowers a node's label to the minimum of its
   neighborhood and re-activates changed neighbors. The result (minimum
   node id per component) is algorithm-deterministic, so every policy
   must agree — a strong end-to-end cross-check of the runtime.

   [serial] uses union-find, the strongest sequential baseline. *)

module Csr = Graphlib.Csr

let plan g =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let label = Array.init n Fun.id in
  (* The successors are walked with [for] loops rather than closures,
     so a task allocates nothing. *)
  let operator ctx u =
    Galois.Context.acquire ctx locks.(u);
    let first = Csr.first_edge g u and last = Csr.end_edge g u - 1 in
    for e = first to last do
      Galois.Context.acquire ctx locks.(Csr.target g e)
    done;
    Galois.Context.work ctx (last + 1 - first);
    (* The minimum over the closed neighborhood. *)
    let m = ref label.(u) in
    for e = first to last do
      let l = label.(Csr.target g e) in
      if l < !m then m := l
    done;
    let m = !m in
    let settled = ref (m >= label.(u)) and e = ref first in
    while !settled && !e <= last do
      if label.(Csr.target g !e) > m then settled := false;
      incr e
    done;
    if !settled then () (* nothing to update: pure task *)
    else begin
      Galois.Context.failsafe ctx;
      label.(u) <- m;
      for e = first to last do
        let v = Csr.target g e in
        if label.(v) > m then begin
          label.(v) <- m;
          Galois.Context.push ctx v
        end
      done
    end
  in
  (Galois.Run.make ~operator (Array.init n Fun.id), fun () -> label)

let galois ?record ?audit ?sink ~policy ?pool g =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g)

let serial g =
  let n = Csr.nodes g in
  let uf = Graphlib.Union_find.create n in
  Array.iter (fun (u, v) -> ignore (Graphlib.Union_find.union uf u v)) (Csr.all_edges g);
  (* Canonical labels: minimum node id in each component. *)
  let label = Array.make n max_int in
  for u = 0 to n - 1 do
    let r = Graphlib.Union_find.find uf u in
    if u < label.(r) then label.(r) <- u
  done;
  Array.init n (fun u -> label.(Graphlib.Union_find.find uf u))

let count_components label =
  let seen = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace seen l ()) label;
  Hashtbl.length seen

(* Every edge's endpoints share a label, and each component's label is
   its minimum member. *)
let validate g label =
  let ok = ref true in
  Array.iter (fun (u, v) -> if label.(u) <> label.(v) then ok := false) (Csr.all_edges g);
  Array.iteri (fun u l -> if l > u then ok := false) label;
  Array.iter (fun l -> if label.(l) <> l then ok := false) label;
  !ok
