(** Cache modelling of CSR layouts on recorded schedules.

    Replays the node stream of a recorded {!Galois.Schedule.t} against
    a byte-accurate model of the graph's CSR planes at a given element
    width, so the compact off-heap layout (4 bytes per entry below
    [2^31]) can be compared with the historical boxed [int array]
    substrate (8 bytes per entry) on the {e same} access stream —
    the Fig. 11/12-style locality isolation. *)

type summary = {
  label : string;
  entry_bytes : int;
  accesses : int;
  hits : int;
  misses : int;
  lines_touched : int;
      (** distinct 64-byte lines of the graph the stream touched —
          footprint, a layout-only quantity *)
}

val hit_rate : summary -> float

val replay :
  ?lines:int ->
  ?associativity:int ->
  ?threads:int ->
  entry_bytes:int ->
  label:string ->
  Graphlib.Csr.t ->
  Galois.Schedule.t ->
  summary
(** Replay the schedule's lock (node) stream: each task's node touches
    its offset entries and its adjacency range at [entry_bytes] per
    element, through one set-associative LRU cache per worker
    (round-robin assignment, as in {!Hierarchy.replay}). Defaults:
    512-line, 8-way, single worker. *)

val compare_layouts :
  ?lines:int ->
  ?associativity:int ->
  ?threads:int ->
  Graphlib.Csr.t ->
  Galois.Schedule.t ->
  summary * summary
(** [(boxed, compact)]: the stream replayed at 8 bytes per entry and at
    the graph's own plane width. *)
