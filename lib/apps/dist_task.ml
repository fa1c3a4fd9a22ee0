(* A (node, distance) task as one immediate int. The node takes the low
   [bits] bits, the distance the rest; both are range-checked on the way
   in, so [node] and [dist] are plain masks and shifts. *)

type codec = int

let codec ~nodes =
  if nodes < 0 then invalid_arg "Dist_task.codec: negative node count";
  let rec width bits rest = if rest = 0 then bits else width (bits + 1) (rest lsr 1) in
  width 0 (max 0 (nodes - 1))

let max_dist bits = max_int lsr bits

let pack bits ~node ~dist =
  if node lsr bits <> 0 || dist < 0 || dist > max_dist bits then
    invalid_arg "Dist_task.pack: node or distance out of range";
  (dist lsl bits) lor node

let node bits x = x land ((1 lsl bits) - 1)
let dist bits x = x lsr bits
