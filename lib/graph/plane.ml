(* Off-heap integer planes — the storage substrate of the compact CSR.

   A plane is a fixed-length vector of non-negative ints stored in a
   [Bigarray.Array1], so the payload lives in malloc'd memory outside
   the OCaml major heap: the GC never scans it, and a graph's planes
   cost a handful of heap words (the custom-block headers) no matter
   how many edges they hold.

   Element sizing is automatic: values that fit 31 bits are stored in 4
   bytes, anything larger in 8. The 4-byte case is encoded as a pair of
   16-bit halves in an [int16_unsigned] bigarray rather than an [int32]
   one because int32 bigarray reads box their result on every access
   (this tree builds without flambda); int16 reads return immediate
   ints, so plane access never allocates. *)

type buf16 = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type buf64 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = I32 of buf16 | I64 of buf64

let i32_max = 0x7FFF_FFFF

let length = function
  | I32 a -> Bigarray.Array1.dim a / 2
  | I64 a -> Bigarray.Array1.dim a

let bytes_per_value = function I32 _ -> 4 | I64 _ -> 8
let memory_bytes t = length t * bytes_per_value t

let create ~max_value len =
  if len < 0 then invalid_arg "Plane.create: negative length";
  if max_value < 0 then invalid_arg "Plane.create: negative max_value";
  if max_value <= i32_max then begin
    let a = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout (2 * len) in
    Bigarray.Array1.fill a 0;
    I32 a
  end
  else begin
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
    Bigarray.Array1.fill a 0;
    I64 a
  end

let unsafe_get t i =
  match t with
  | I32 a ->
      Bigarray.Array1.unsafe_get a (2 * i)
      lor (Bigarray.Array1.unsafe_get a ((2 * i) + 1) lsl 16)
  | I64 a -> Bigarray.Array1.unsafe_get a i

let unsafe_set t i v =
  match t with
  | I32 a ->
      Bigarray.Array1.unsafe_set a (2 * i) (v land 0xFFFF);
      Bigarray.Array1.unsafe_set a ((2 * i) + 1) ((v lsr 16) land 0xFFFF)
  | I64 a -> Bigarray.Array1.unsafe_set a i v

let get t i =
  if i < 0 || i >= length t then invalid_arg "Plane.get: index out of bounds";
  unsafe_get t i

let to_array t = Array.init (length t) (fun i -> unsafe_get t i)

let iter f t =
  for i = 0 to length t - 1 do
    f (unsafe_get t i)
  done

let equal a b =
  length a = length b
  &&
  let rec go i = i >= length a || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0

(* In-place ascending sort of the value range [lo, hi) — the
   int-specialized sort the symmetrize path uses instead of a
   polymorphic [List.sort_uniq compare]. Plain quicksort with
   median-of-three pivots and insertion sort below 12 elements; the
   order is a pure function of the values, so it is deterministic. *)
let sort_range t lo hi =
  if lo < 0 || hi > length t || lo > hi then invalid_arg "Plane.sort_range: bad range";
  let rec quick lo hi =
    if hi - lo > 12 then begin
      let mid = lo + ((hi - lo) / 2) in
      let a = unsafe_get t lo and b = unsafe_get t mid and c = unsafe_get t (hi - 1) in
      let pivot = max (min a b) (min (max a b) c) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while unsafe_get t !i < pivot do incr i done;
        while unsafe_get t !j > pivot do decr j done;
        if !i <= !j then begin
          let x = unsafe_get t !i and y = unsafe_get t !j in
          unsafe_set t !i y;
          unsafe_set t !j x;
          incr i;
          decr j
        end
      done;
      quick lo (!j + 1);
      quick !i hi
    end
    else
      for i = lo + 1 to hi - 1 do
        let v = unsafe_get t i in
        let j = ref (i - 1) in
        while !j >= lo && unsafe_get t !j > v do
          unsafe_set t (!j + 1) (unsafe_get t !j);
          decr j
        done;
        unsafe_set t (!j + 1) v
      done
  in
  quick lo hi

(* ------------------------------------------------------------------ *)
(* Growable staging buffer (64-bit, off-heap) for edge streaming.      *)
(* ------------------------------------------------------------------ *)

module Buf = struct
  type nonrec t = { mutable data : buf64; mutable len : int }

  let create capacity =
    let capacity = max capacity 16 in
    { data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity; len = 0 }

  let length b = b.len

  let push b v =
    if b.len = Bigarray.Array1.dim b.data then begin
      let bigger =
        Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * b.len)
      in
      Bigarray.Array1.blit b.data (Bigarray.Array1.sub bigger 0 b.len);
      b.data <- bigger
    end;
    Bigarray.Array1.unsafe_set b.data b.len v;
    b.len <- b.len + 1

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Plane.Buf.get: index out of bounds";
    Bigarray.Array1.unsafe_get b.data i

  let unsafe_get b i = Bigarray.Array1.unsafe_get b.data i
end
