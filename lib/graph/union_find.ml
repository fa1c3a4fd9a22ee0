(* Union-find with path halving and union by rank.

   Two flavors:
   - a plain sequential structure (baselines);
   - a per-element Galois lock array so Galois operators can acquire the
     current roots as their neighborhood (Boruvka's algorithm). *)

type t = { parent : int array; rank : int array }

let create n = { parent = Array.init n Fun.id; rank = Array.make n 0 }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    (* path halving *)
    let gp = t.parent.(p) in
    t.parent.(x) <- gp;
    find t gp
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    true
  end

let components t =
  let seen = Hashtbl.create 16 in
  Array.iteri (fun x _ -> Hashtbl.replace seen (find t x) ()) t.parent;
  Hashtbl.length seen

(* Find without path compression: safe to call while only holding locks
   on the endpoints' current roots (no writes to interior nodes). *)
let rec find_readonly t x =
  let p = t.parent.(x) in
  if p = x then x else find_readonly t p
