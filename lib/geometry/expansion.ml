(* Exact floating-point expansion arithmetic (Shewchuk 1997).

   An expansion represents an exact real as a sum of non-overlapping
   floats in increasing magnitude order. We implement the handful of
   primitives the robust predicates need; this favors clarity over
   Shewchuk's hand-tuned special cases — the exact path only runs when
   the floating-point filter fails, which is rare. *)

(* Error-free transforms. [two_sum] is Knuth's; [two_prod] uses the
   correctly rounded fused multiply-add. *)
let two_sum a b =
  let x = a +. b in
  let bv = x -. a in
  let av = x -. bv in
  let br = b -. bv in
  let ar = a -. av in
  (x, ar +. br)

let two_prod a b =
  let x = a *. b in
  let y = Float.fma a b (-.x) in
  (x, y)

type t = float array
(* components in increasing magnitude order; zeros allowed *)

(* Shewchuk's GROW-EXPANSION: add one float to an expansion. *)
let grow (e : t) b : t =
  let n = Array.length e in
  let h = Array.make (n + 1) 0.0 in
  let q = ref b in
  for i = 0 to n - 1 do
    let sum, err = two_sum !q e.(i) in
    h.(i) <- err;
    q := sum
  done;
  h.(n) <- !q;
  h

(* EXPANSION-SUM: add two expansions. *)
let add (e : t) (f : t) : t = Array.fold_left grow e f

(* SCALE-EXPANSION: multiply an expansion by a float. *)
let scale (e : t) b : t =
  let n = Array.length e in
  if n = 0 then [||]
  else begin
    let h = Array.make (2 * n) 0.0 in
    let q, err = two_prod e.(0) b in
    h.(0) <- err;
    let q = ref q in
    for i = 1 to n - 1 do
      let t1, t0 = two_prod e.(i) b in
      let s, e0 = two_sum !q t0 in
      h.((2 * i) - 1) <- e0;
      let s', e1 = two_sum s t1 in
      h.(2 * i) <- e1;
      q := s'
    done;
    h.((2 * n) - 1) <- !q;
    h
  end

let neg (e : t) : t = Array.map (fun x -> -.x) e

let sub e f = add e (neg f)

let mul (e : t) (f : t) : t =
  (* Distribute: sum of scale e fi. Quadratic blowup is fine at predicate
     sizes. *)
  Array.fold_left (fun acc fi -> add acc (scale e fi)) [| 0.0 |] f

(* The components are non-overlapping with the largest last, so the sign
   of the expansion is the sign of its last nonzero component. *)
let sign (e : t) =
  let s = ref 0 in
  Array.iter (fun x -> if x > 0.0 then s := 1 else if x < 0.0 then s := -1) e;
  !s
