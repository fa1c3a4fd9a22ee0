(* Ordinary least squares for the paper's Fig. 12: fitting

     eff_var = B0 + B1 * (PC_ref / PC_var) * eff_ref

   and reporting R^2, to test how much of the efficiency difference
   between variants a single performance counter explains. *)

type fit = { b0 : float; b1 : float; r2 : float; n : int }

let fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.fit: need at least two points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-30 then invalid_arg "Regression.fit: degenerate x values";
  let b1 = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let b0 = (sy -. (b1 *. sx)) /. nf in
  let ybar = sy /. nf in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. ybar) ** 2.0)) 0.0 points in
  let ss_res =
    List.fold_left (fun a (x, y) -> a +. ((y -. (b0 +. (b1 *. x))) ** 2.0)) 0.0 points
  in
  let r2 = if ss_tot <= 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { b0; b1; r2; n }
