(* The static determinism lint, linted.

   Everything goes through [Detlint.scan_source ~path] on inline
   sources, so the tests pin the rule set, the wall-clock allowlist,
   the escape-comment grammar (including its failure modes) and the
   lexer's treatment of strings/comments without touching the real
   tree — `dune build @lint` covers that. *)

let rules fs = List.map (fun (f : Detlint.finding) -> f.Detlint.rule) fs

let scan ?(path = "lib/foo/bar.ml") src = Detlint.scan_source ~path src

let test_random_flagged () =
  Alcotest.(check (list string)) "Random.int" [ "random" ]
    (rules (scan "let x = Random.int 10\n"));
  Alcotest.(check (list string)) "Stdlib prefix normalized" [ "random" ]
    (rules (scan "let x = Stdlib.Random.int 10\n"));
  Alcotest.(check (list string)) "Random.self_init" [ "random" ]
    (rules (scan "let () = Random.self_init ()\n"))

let test_hashtbl_order () =
  Alcotest.(check (list string)) "iter" [ "hashtbl-order" ]
    (rules (scan "let f h = Hashtbl.iter (fun _ _ -> ()) h\n"));
  Alcotest.(check (list string)) "fold" [ "hashtbl-order" ]
    (rules (scan "let f h = Hashtbl.fold (fun _ _ a -> a) h 0\n"));
  Alcotest.(check (list string)) "to_seq" [ "hashtbl-order" ]
    (rules (scan "let f h = Hashtbl.to_seq h\n"));
  Alcotest.(check (list string)) "replace/find untouched" []
    (rules (scan "let f h = Hashtbl.replace h 1 2; Hashtbl.find_opt h 1\n"))

let test_poly_hash () =
  Alcotest.(check (list string)) "Hashtbl.hash" [ "poly-hash" ]
    (rules (scan "let f x = Hashtbl.hash x\n"));
  Alcotest.(check (list string)) "seeded" [ "poly-hash" ]
    (rules (scan "let f x = Hashtbl.seeded_hash 7 x\n"))

let test_domain_self () =
  Alcotest.(check (list string)) "Domain.self" [ "domain-self" ]
    (rules (scan "let w () = (Domain.self () :> int)\n"));
  Alcotest.(check (list string)) "Domain.spawn untouched" []
    (rules (scan "let d f = Domain.spawn f\n"))

let test_wall_clock_allowlist () =
  let src = "let t = Unix.gettimeofday ()\n" in
  Alcotest.(check (list string)) "flagged under lib" [ "wall-clock" ]
    (rules (scan ~path:"lib/core/foo.ml" src));
  Alcotest.(check (list string)) "Sys.time flagged too" [ "wall-clock" ]
    (rules (scan ~path:"lib/core/foo.ml" "let t = Sys.time ()\n"));
  Alcotest.(check (list string)) "bin/ exempt" []
    (rules (scan ~path:"bin/foo_cli.ml" src));
  Alcotest.(check (list string)) "clock.ml exempt" []
    (rules (scan ~path:"lib/core/clock.ml" src));
  (* The exemption is per-segment, not substring. *)
  Alcotest.(check (list string)) "lib/binpack not exempt" [ "wall-clock" ]
    (rules (scan ~path:"lib/binpack/foo.ml" src))

let test_allow_comment () =
  Alcotest.(check (list string)) "same-line allow" []
    (rules
       (scan "let x = Random.int 10 (* detlint: allow random — test fixture *)\n"));
  Alcotest.(check (list string)) "line-above allow" []
    (rules
       (scan "(* detlint: allow random — test fixture *)\nlet x = Random.int 10\n"));
  Alcotest.(check (list string)) "allow does not leak further down" [ "random" ]
    (rules
       (scan
          "(* detlint: allow random — test fixture *)\nlet y = 1\nlet x = Random.int 10\n"));
  Alcotest.(check (list string)) "wrong rule does not suppress" [ "random" ]
    (rules
       (scan
          "(* detlint: allow wall-clock — test fixture *)\nlet x = Random.int 10\n"));
  Alcotest.(check (list string)) "allow-file covers everything" []
    (rules
       (scan
          "(* detlint: allow-file random — test fixture *)\nlet y = 1\nlet x = Random.int 10\n"));
  Alcotest.(check (list string)) "ascii separators accepted" []
    (rules (scan "let x = Random.int 10 (* detlint: allow random -- fixture *)\n"));
  Alcotest.(check (list string)) "multiple rules in one allow" []
    (rules
       (scan
          "(* detlint: allow random,poly-hash — fixture *)\n\
           let x = Hashtbl.hash (Random.int 10)\n"))

let test_bad_allow () =
  Alcotest.(check (list string)) "reasonless allow is a finding"
    [ "bad-allow"; "random" ]
    (rules (scan "(* detlint: allow random *)\nlet x = Random.int 10\n"));
  Alcotest.(check (list string)) "unknown rule is a finding" [ "bad-allow" ]
    (rules (scan "(* detlint: allow nonsense — because *)\nlet x = 1\n"));
  Alcotest.(check (list string)) "unknown directive is a finding" [ "bad-allow" ]
    (rules (scan "(* detlint: pardon random — please *)\nlet x = 1\n"))

let test_lexing () =
  Alcotest.(check (list string)) "identifier inside string untouched" []
    (rules (scan "let s = \"Random.int\"\n"));
  Alcotest.(check (list string)) "identifier inside comment untouched" []
    (rules (scan "(* Random.int would be bad here *)\nlet x = 1\n"));
  (* A directive must be its own comment: buried inside another comment
     it is prose, not a suppression. *)
  Alcotest.(check (list string)) "directive nested in another comment inert"
    [ "random" ]
    (rules
       (scan
          "(* outer (* detlint: allow random — nested fixture *) *)\n\
           let x = Random.int 10\n"));
  Alcotest.(check (list string)) "parse error reported" [ "parse-error" ]
    (rules (scan "let let let\n"))

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_positions_and_json () =
  match scan "let a = 1\nlet x = Random.int 10\n" with
  | [ f ] ->
      Alcotest.(check int) "line" 2 f.Detlint.line;
      Alcotest.(check string) "file" "lib/foo/bar.ml" f.Detlint.file;
      let j = Detlint.to_json f in
      Alcotest.(check bool) "json has rule" true
        (String.length j > 0 && j.[0] = '{' && contains ~sub:"\"rule\":\"random\"" j)
  | fs -> Alcotest.fail (Printf.sprintf "expected one finding, got %d" (List.length fs))

let suite =
  [
    Alcotest.test_case "random flagged" `Quick test_random_flagged;
    Alcotest.test_case "hashtbl order-sensitive iteration flagged" `Quick
      test_hashtbl_order;
    Alcotest.test_case "polymorphic hashing flagged" `Quick test_poly_hash;
    Alcotest.test_case "domain-self flagged" `Quick test_domain_self;
    Alcotest.test_case "wall-clock allowlist" `Quick test_wall_clock_allowlist;
    Alcotest.test_case "escape comments suppress" `Quick test_allow_comment;
    Alcotest.test_case "bad allows are findings" `Quick test_bad_allow;
    Alcotest.test_case "strings, comments, parse errors" `Quick test_lexing;
    Alcotest.test_case "positions and json" `Quick test_positions_and_json;
  ]
