(** Graph serialization (text and compact binary) and per-edge weight
    generation. *)

(** {2 Text format} — one ["u v [w]"] edge per line, ['#'] comments,
    header line ["n m"]. Weighted graphs carry a third column per edge;
    a weight column on the first edge line makes it mandatory on all of
    them. *)

val save_edges : string -> Csr.t -> unit

(** {2 Binary format} — ["GCSR1"]: fixed header, raw little-endian
    planes at their in-memory element width, FNV-1a-64 checksum
    trailer. The catalog/bench path for million-vertex inputs: no
    parsing, loads straight into off-heap planes. *)

val save_binary : string -> Csr.t -> unit

val load : string -> Csr.t
(** Format-sniffing load: binary when the file starts with the GCSR
    magic, text otherwise. Raises [Failure] with a line number on
    malformed text, and [Failure "Graph_io: corrupt binary graph: ..."]
    on a truncated binary file, a checksum mismatch or any
    CSR-invariant violation the payload encodes. *)

(** {2 Deterministic weights} *)

val random_weights : ?seed:int -> ?max_weight:int -> Csr.t -> int array
(** Deterministic uniform weights in [\[1, max_weight\]], indexed by edge
    id. *)

val attach_random_weights : ?seed:int -> ?max_weight:int -> Csr.t -> Csr.t
(** The same weight sequence as {!random_weights}, written straight
    into an off-heap weight plane on the returned graph. *)

val undirected_random_weights : ?seed:int -> ?max_weight:int -> Csr.t -> int array
(** Like {!random_weights}, but the two directions of an undirected edge
    in a symmetric graph get equal weights (required by e.g. minimum
    spanning forest). *)
