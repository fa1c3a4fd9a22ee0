(* A set-associative LRU cache over abstract location ids.

   One location = one line: the runtime's access traces are in units of
   abstract locations (graph nodes, triangles), each of which occupies
   roughly a cache line of payload. *)

type t = {
  sets : int array array;  (* sets.(s) = lines in LRU order, most recent first; -1 = empty *)
  set_bits : int;
}

let create ~lines ~associativity =
  if lines <= 0 || associativity <= 0 || lines mod associativity <> 0 then
    invalid_arg "Cache.create: lines must be a positive multiple of associativity";
  let nsets = lines / associativity in
  if nsets land (nsets - 1) <> 0 then invalid_arg "Cache.create: set count must be a power of two";
  let set_bits =
    let rec go b n = if n = 1 then b else go (b + 1) (n lsr 1) in
    go 0 nsets
  in
  {
    sets = Array.init nsets (fun _ -> Array.make associativity (-1));
    set_bits;
  }

(* Mix the id so neighboring ids spread across sets (ids are dense
   allocation counters, not addresses). *)
let set_of t id =
  let h = id * 0x9E3779B1 in
  (h lsr 7) land ((1 lsl t.set_bits) - 1)

(* Access a line: true = hit. LRU update by shifting. *)
let access t id =
  let set = t.sets.(set_of t id) in
  let assoc = Array.length set in
  let rec find i = if i = assoc then -1 else if set.(i) = id then i else find (i + 1) in
  let pos = find 0 in
  if pos >= 0 then begin
    (* move to front *)
    for j = pos downto 1 do
      set.(j) <- set.(j - 1)
    done;
    set.(0) <- id;
    true
  end
  else begin
    for j = assoc - 1 downto 1 do
      set.(j) <- set.(j - 1)
    done;
    set.(0) <- id;
    false
  end
