(* Incremental FNV-1a (64-bit) digests of execution traces.

   The deterministic scheduler folds every round's shape (window size,
   commit count, committed task ids) into one 64-bit word as it runs, so
   two executions can be compared for schedule equality in O(1) — the
   determinism audit (lib/detcheck) sweeps whole configuration lattices
   without retaining full schedules.

   FNV-1a is used byte-wise over the 8 little-endian bytes of each folded
   word: tiny, portable, fixed for all time (a digest printed today must
   compare equal to one printed on any other machine). Collisions are
   possible in principle (2^-64 per comparison) and harmless here: a
   collision can only mask a divergence, never invent one, and any real
   nondeterminism differs in many folded words at once. *)

type t = int64

(* 0 is reserved as "no trace was kept". A real trace digest starts from
   the FNV offset basis and is never 0 in practice (and a 2^-64 accident
   would merely report one absent trace). *)
let absent = 0L

let seed = 0xCBF29CE484222325L (* FNV-1a 64-bit offset basis *)

let prime = 0x100000001B3L

let is_absent t = Int64.equal t absent

let fold_byte t b =
  Int64.mul (Int64.logxor t (Int64.of_int (b land 0xff))) prime

let fold_int64 t x =
  let t = ref t in
  for i = 0 to 7 do
    t := fold_byte !t (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !t

let fold_int t x = fold_int64 t (Int64.of_int x)

(* [fold_int] over a prefix of an int array, with the running hash in
   one local: the result is boxed once, not once per element. The bytes
   of [Int64.of_int x] are those of [x] shifted arithmetically, so the
   sign extension into the top byte comes from [asr]. *)
let fold_ints t a n =
  if n < 0 || n > Array.length a then invalid_arg "Trace_digest.fold_ints";
  let h = ref t in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get a i in
    for b = 0 to 7 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int ((x asr (8 * b)) land 0xff))) prime
    done
  done;
  !h

let fold_bool t b = fold_byte t (if b then 1 else 0)

let fold_float t f = fold_int64 t (Int64.bits_of_float f)

let fold_string t s =
  let t = ref t in
  String.iter (fun c -> t := fold_byte !t (Char.code c)) s;
  !t

(* [combine] treats [absent] as neutral so that digest-carrying records
   keep a monoid structure (Stats.add / Stats.zero). *)
let combine a b =
  if is_absent a then b else if is_absent b then a else fold_int64 a b

let equal = Int64.equal

let to_hex t = Printf.sprintf "%016Lx" t

(* Inverse of the printed forms: 16 lowercase hex digits, or "-" for
   [absent] (matching [pp]). [Int64.of_string "0x..."] accepts the full
   unsigned range, so digests with the top bit set round-trip. *)
let of_hex s =
  if String.equal s "-" then Some absent
  else if
    String.length s = 16
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  then Int64.of_string_opt ("0x" ^ s)
  else None

let pp ppf t = if is_absent t then Fmt.string ppf "-" else Fmt.string ppf (to_hex t)
