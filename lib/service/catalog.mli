(** The in-memory graph catalog: load graphs once, serve many queries.

    Append-only; entries are immutable. Symmetry is computed at load
    time so the server can refuse component queries on directed graphs
    deterministically. *)

type entry = {
  name : string;
  graph : Graphlib.Csr.t;
  weights : int array option;  (** per-edge, required by sssp queries *)
  symmetric : bool;  (** computed at {!add}; required by cc queries *)
}

type t

val create : unit -> t

val add : t -> name:string -> ?weights:int array -> Graphlib.Csr.t -> entry
(** Raises [Invalid_argument] on an empty name, a name containing [':']
    (reserved by the query grammar), a duplicate name, or a weight
    array that does not match the graph's edge count. *)

val find : t -> string -> entry option
val names : t -> string list
(** Insertion order. *)

val total_graph_bytes : t -> int
(** Off-heap bytes held by all catalog graphs. *)

val synthetic : ?seed:int -> nodes:int -> unit -> t
(** The standard demo/bench catalog: ["kout"], a directed 5-out random
    graph with weights (serves bfs and sssp), and ["sym"], a
    symmetrized 3-out graph (serves cc). Deterministic in [seed]. *)
