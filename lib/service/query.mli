(** The service request language: a graph query against a named
    {!Catalog} entry. *)

type t =
  | Bfs of { graph : string; source : int }
  | Sssp of { graph : string; source : int }
  | Cc of { graph : string }

val graph : t -> string
(** The catalog name the query addresses. *)

val to_string : t -> string
(** [bfs:GRAPH:SRC], [sssp:GRAPH:SRC] or [cc:GRAPH]. *)
