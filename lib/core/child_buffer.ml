(* Flat per-worker child accumulation for the DIG scheduler.

   Workers buffer the tasks their committed window entries push, across
   all the rounds of a generation; the next generation's formation
   ranks the children straight out of every worker's buffer and clears
   them. A structure-of-arrays layout ((parent id, birth index, item)
   columns) replaces the previous [(id, k, item) :: list] accumulation:
   pushes into a warmed-up buffer allocate nothing, and [clear] keeps
   capacity, so steady-state rounds do no per-child allocation at all. *)

type 'a t = {
  mutable parent : int array;  (* id of the pushing task *)
  mutable birth : int array;  (* push index within the pushing task *)
  mutable items : 'a array;
  mutable len : int;
}

let create () = { parent = [||]; birth = [||]; items = [||]; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let grow t item =
  let cap = max 8 (2 * t.len) in
  let parent = Array.make cap 0 and birth = Array.make cap 0 in
  (* The pushed item doubles as the filler, so an empty buffer needs no
     dummy element (same trick as the Context scratch buffers). *)
  let items = Array.make cap item in
  Array.blit t.parent 0 parent 0 t.len;
  Array.blit t.birth 0 birth 0 t.len;
  Array.blit t.items 0 items 0 t.len;
  t.parent <- parent;
  t.birth <- birth;
  t.items <- items

let push t ~parent ~birth item =
  let n = t.len in
  if n = Array.length t.items then grow t item;
  t.parent.(n) <- parent;
  t.birth.(n) <- birth;
  t.items.(n) <- item;
  t.len <- n + 1

let parent t i = t.parent.(i)
let birth t i = t.birth.(i)
let item t i = t.items.(i)
