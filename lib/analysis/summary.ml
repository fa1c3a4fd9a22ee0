(* Summary statistics used in the paper's result reporting ("median
   speedup of 2.4X", Fig. 9's mean/max columns). *)

let mean = function
  | [] -> invalid_arg "Summary.mean: empty"
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let median = function
  | [] -> invalid_arg "Summary.median: empty"
  | l ->
      let sorted = List.sort Float.compare l in
      let n = List.length sorted in
      let nth i = List.nth sorted i in
      if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let maximum = function
  | [] -> invalid_arg "Summary.maximum: empty"
  | x :: rest -> List.fold_left Float.max x rest

let minimum = function
  | [] -> invalid_arg "Summary.minimum: empty"
  | x :: rest -> List.fold_left Float.min x rest
