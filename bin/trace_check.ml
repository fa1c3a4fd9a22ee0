(* Validate a JSONL observability trace against the event schema:
   every line must parse as exactly one known event with the right
   fields and types (Obs.Jsonl.load). Used by the @trace-smoke alias to
   keep `galois_run --trace` output well-formed.

   Exit status: 0 if every line validates and the file is non-empty;
   1 otherwise (unreadable file, first offending line, or empty trace),
   with the reason on stderr. *)

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: trace_check FILE.jsonl";
        exit 2
  in
  match Obs.Jsonl.load path with
  | Error msg ->
      prerr_endline msg;
      exit 1
  | Ok [] ->
      Printf.eprintf "%s: empty trace\n" path;
      exit 1
  | Ok events ->
      let det = List.filter (fun (s : Obs.stamped) -> Obs.deterministic s.event) events in
      Printf.printf "%s: %d events ok (%d deterministic)\n" path (List.length events)
        (List.length det)
