(* SplitMix64: a small, fast PRNG with a fixed algorithm, so
   random choices made through it are reproducible across machines and
   OCaml versions (unlike [Stdlib.Random], whose algorithm may change). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  let z = Int64.add t.state golden_gamma in
  t.state <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A non-negative int uniform in [0, bound). Uses the high bits, which are
   the best-distributed bits of SplitMix64, and rejection sampling to avoid
   modulo bias. Keeping 62 bits guarantees the value fits OCaml's 63-bit
   signed int without wrapping negative. *)
let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    let v = r mod bound in
    (* Reject the tail of the range that would bias small values. *)
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

let float t =
  (* 53 random bits into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L
