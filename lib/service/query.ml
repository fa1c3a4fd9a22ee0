(* The service's request language: one query per value, referring to a
   catalog graph by name. The grammar is deliberately tiny — the point
   of the service layer is deterministic execution, not expressiveness —
   and [to_string] spells it so responses can echo the query they
   answered verbatim. *)

type t =
  | Bfs of { graph : string; source : int }
  | Sssp of { graph : string; source : int }
  | Cc of { graph : string }

let graph = function Bfs { graph; _ } | Sssp { graph; _ } | Cc { graph } -> graph

let to_string = function
  | Bfs { graph; source } -> Printf.sprintf "bfs:%s:%d" graph source
  | Sssp { graph; source } -> Printf.sprintf "sssp:%s:%d" graph source
  | Cc { graph } -> Printf.sprintf "cc:%s" graph
