module Point = Geometry.Point
module Pred = Geometry.Predicates
module Exp = Geometry.Expansion

let p = Point.make
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_orient_basic () =
  check_int "ccw" 1 (Pred.orient2d (p 0. 0.) (p 1. 0.) (p 0. 1.));
  check_int "cw" (-1) (Pred.orient2d (p 0. 0.) (p 0. 1.) (p 1. 0.));
  check_int "collinear" 0 (Pred.orient2d (p 0. 0.) (p 1. 1.) (p 2. 2.))

let test_orient_near_degenerate () =
  (* Points nearly collinear, differing by one ulp: the filter fails and
     the exact path must get the sign right. *)
  let base = 0.5 in
  let eps = ldexp 1.0 (-52) in
  let a = p 0.0 0.0 and b = p 1.0 base in
  let on_line = p 2.0 (2.0 *. base) in
  check_int "exactly on line" 0 (Pred.orient2d a b on_line);
  let above = p 2.0 ((2.0 *. base) +. (2.0 *. eps)) in
  check_int "one ulp above" 1 (Pred.orient2d a b above);
  let below = p 2.0 ((2.0 *. base) -. (2.0 *. eps)) in
  check_int "one ulp below" (-1) (Pred.orient2d a b below)

let test_incircle_basic () =
  let a = p 0. 0. and b = p 1. 0. and c = p 0. 1. in
  check_int "center inside" 1 (Pred.incircle a b c (p 0.3 0.3));
  check_int "far point outside" (-1) (Pred.incircle a b c (p 5. 5.));
  (* (1,1) lies exactly on the circumcircle of the unit right triangle. *)
  check_int "cocircular" 0 (Pred.incircle a b c (p 1. 1.))

let test_incircle_near_degenerate () =
  let a = p 0. 0. and b = p 1. 0. and c = p 0. 1. in
  let eps = ldexp 1.0 (-50) in
  check_int "just inside" 1 (Pred.incircle a b c (p (1.0 -. eps) 1.0));
  check_int "just outside" (-1) (Pred.incircle a b c (p (1.0 +. eps) 1.0))

let test_circumcenter () =
  let a = p 0. 0. and b = p 2. 0. and c = p 0. 2. in
  (match Pred.circumcenter a b c with
  | Some cc ->
      Alcotest.(check (float 1e-12)) "x" 1.0 cc.Point.x;
      Alcotest.(check (float 1e-12)) "y" 1.0 cc.Point.y
  | None -> Alcotest.fail "unexpected degenerate");
  match Pred.circumcenter a b (p 4. 0.) with
  | None -> ()
  | Some _ -> Alcotest.fail "collinear points should have no circumcenter"

let test_in_triangle () =
  let a = p 0. 0. and b = p 4. 0. and c = p 0. 4. in
  check_bool "interior" true (Pred.in_triangle a b c (p 1. 1.));
  check_bool "vertex" true (Pred.in_triangle a b c a);
  check_bool "edge" true (Pred.in_triangle a b c (p 2. 0.));
  check_bool "outside" false (Pred.in_triangle a b c (p 3. 3.))

let test_min_angle () =
  (* Equilateral: 60 degrees everywhere. *)
  let a = p 0. 0. and b = p 1. 0. and c = p 0.5 (sqrt 3.0 /. 2.0) in
  Alcotest.(check (float 1e-6)) "equilateral" 60.0 (Pred.min_angle_deg a b c);
  (* Right isoceles: 45. *)
  Alcotest.(check (float 1e-6)) "right isoceles" 45.0
    (Pred.min_angle_deg (p 0. 0.) (p 1. 0.) (p 0. 1.))

let test_expansion_two_sum () =
  let x, e = Exp.two_sum 1.0 (ldexp 1.0 (-60)) in
  check_bool "rounding captured" true (e <> 0.0 || x = 1.0 +. ldexp 1.0 (-60));
  Alcotest.(check (float 0.0)) "exactness" (1.0 +. ldexp 1.0 (-60)) (x +. e)

let test_expansion_sign () =
  let a = [| 1.0 |] in
  let tiny = [| ldexp 1.0 (-200) |] in
  check_int "positive" 1 (Exp.sign (Exp.add a tiny));
  check_int "negative" (-1) (Exp.sign (Exp.sub tiny a));
  check_int "zero" 0 (Exp.sign (Exp.sub a a));
  (* 1 + tiny - 1 = tiny: catastrophic cancellation handled exactly. *)
  check_int "cancellation" 1 (Exp.sign (Exp.sub (Exp.add a tiny) a))

(* Property: expansion arithmetic on smallish integers agrees with exact
   integer arithmetic. *)
let prop_expansion_integer_model =
  QCheck.Test.make ~name:"expansions model exact integer arithmetic" ~count:300
    QCheck.(quad (int_range (-1000) 1000) (int_range (-1000) 1000) (int_range (-1000) 1000)
              (int_range (-1000) 1000))
    (fun (a, b, c, d) ->
      (* sign (a*b - c*d) exactly *)
      let ea = [| float_of_int a |] and eb = [| float_of_int b |] in
      let ec = [| float_of_int c |] and ed = [| float_of_int d |] in
      let s = Exp.sign (Exp.sub (Exp.mul ea eb) (Exp.mul ec ed)) in
      s = compare (a * b) (c * d))

(* Property: orient2d is antisymmetric and invariant under rotation of
   its arguments. *)
let prop_orient_symmetries =
  QCheck.Test.make ~name:"orient2d symmetries" ~count:300
    QCheck.(triple (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
              (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
              (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let a = p ax ay and b = p bx by and c = p cx cy in
      let s = Pred.orient2d a b c in
      Pred.orient2d b c a = s && Pred.orient2d c a b = s && Pred.orient2d a c b = -s)

(* Property: incircle result is invariant under cyclic rotation. *)
let prop_incircle_rotation =
  QCheck.Test.make ~name:"incircle cyclic invariance" ~count:200
    QCheck.(quad (pair (float_range 0. 1.) (float_range 0. 1.))
              (pair (float_range 0. 1.) (float_range 0. 1.))
              (pair (float_range 0. 1.) (float_range 0. 1.))
              (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun ((ax, ay), (bx, by), (cx, cy), (dx, dy)) ->
      let a = p ax ay and b = p bx by and c = p cx cy and d = p dx dy in
      QCheck.assume (Pred.orient2d a b c > 0);
      let s = Pred.incircle a b c d in
      Pred.incircle b c a d = s && Pred.incircle c a b d = s)

let test_random_points_deterministic () =
  let a = Point.random_unit_square ~seed:9 100 in
  let b = Point.random_unit_square ~seed:9 100 in
  check_bool "same points" true (a = b);
  check_bool "in unit square" true
    (Array.for_all (fun q -> q.Point.x >= 0.0 && q.Point.x < 1.0 && q.Point.y >= 0.0 && q.Point.y < 1.0) a)

let suite =
  [
    Alcotest.test_case "orient2d basics" `Quick test_orient_basic;
    Alcotest.test_case "orient2d near-degenerate exactness" `Quick test_orient_near_degenerate;
    Alcotest.test_case "incircle basics" `Quick test_incircle_basic;
    Alcotest.test_case "incircle near-degenerate exactness" `Quick test_incircle_near_degenerate;
    Alcotest.test_case "circumcenter" `Quick test_circumcenter;
    Alcotest.test_case "in_triangle" `Quick test_in_triangle;
    Alcotest.test_case "min angle" `Quick test_min_angle;
    Alcotest.test_case "two_sum exactness" `Quick test_expansion_two_sum;
    Alcotest.test_case "expansion signs" `Quick test_expansion_sign;
    QCheck_alcotest.to_alcotest prop_expansion_integer_model;
    QCheck_alcotest.to_alcotest prop_orient_symmetries;
    QCheck_alcotest.to_alcotest prop_incircle_rotation;
    Alcotest.test_case "random points deterministic" `Quick test_random_points_deterministic;
  ]
