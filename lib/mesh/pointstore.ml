(* A concurrently growable append-only store of points.

   Mesh refinement allocates new points from inside committing tasks, so
   allocation must be thread-safe. Ids come from an atomic counter;
   storage is chunked so readers never observe a relocation: a chunk,
   once published, is never moved. Readers index without locks — the
   scheduler's synchronization (task ordering through mark words and
   barriers) guarantees a reader only asks for ids already published. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type t = {
  mutable chunks : Geometry.Point.t array array;
  next : int Atomic.t;
  grow : Mutex.t;
}

let dummy = Geometry.Point.make nan nan

let create ?(capacity = chunk_size) () =
  let nchunks = max 1 ((capacity + chunk_size - 1) / chunk_size) in
  {
    chunks = Array.init nchunks (fun _ -> Array.make chunk_size dummy);
    next = Atomic.make 0;
    grow = Mutex.create ();
  }

let count t = Atomic.get t.next

let ensure_chunk t chunk_index =
  if chunk_index >= Array.length t.chunks then begin
    Mutex.lock t.grow;
    if chunk_index >= Array.length t.chunks then begin
      let n = Array.length t.chunks in
      let bigger = Array.init (max (chunk_index + 1) (2 * n)) (fun i ->
          if i < n then t.chunks.(i) else Array.make chunk_size dummy)
      in
      t.chunks <- bigger
    end;
    Mutex.unlock t.grow
  end

let add t p =
  let id = Atomic.fetch_and_add t.next 1 in
  let c = id lsr chunk_bits in
  ensure_chunk t c;
  t.chunks.(c).(id land (chunk_size - 1)) <- p;
  id

let get t id =
  if id < 0 || id >= Atomic.get t.next then invalid_arg "Pointstore.get: id out of range";
  t.chunks.(id lsr chunk_bits).(id land (chunk_size - 1))
