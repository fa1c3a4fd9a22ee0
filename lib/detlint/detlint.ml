(* detlint — static determinism lint for the deterministic-path tree.

   The runtime can only guarantee that output is a function of the
   input if the code it hosts never consults an ambient source of
   nondeterminism. This linter parses every [.ml] under the directories
   it is given (compiler-libs [Parse] + an [Ast_iterator] walk over
   expression identifiers) and flags:

     random         Random.* — seedless ambient PRNG state
     hashtbl-order  Hashtbl.iter/fold/to_seq* — bucket-order dependent
     wall-clock     Unix.gettimeofday/Unix.time/Sys.time outside the
                    allowlist (Clock, bin/ driver code)
     domain-self    Domain.self — control flow keyed on worker identity
     poly-hash      Hashtbl.hash/seeded_hash/hash_param — polymorphic
                    structural hashing (mutable structures hash by
                    current contents; ids are the deterministic key)
     obj-magic      Obj.magic — an unchecked cast; each one must carry
                    an allow stating why the representation holds

   Escapes: a comment

     (* detlint: allow <rule>[,<rule>...] — <reason> *)

   suppresses findings of those rules on the comment's own lines and
   the line after it; [allow-file] widens the scope to the whole file.
   The reason is mandatory — an allow without one (or naming an unknown
   rule) is itself a finding ([bad-allow]), so every suppression in the
   tree documents why it is safe. Files that fail to parse yield a
   [parse-error] finding rather than passing silently.

   Identifier matching is purely syntactic (an [Ast_iterator] over
   [Pexp_ident] paths, [Stdlib.] prefix normalized away): aliased
   modules ([module R = Random]) escape it, which is the documented
   first-cut limitation the dynamic audit (Galois.Audit) backstops. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rules =
  [
    ("random", "ambient PRNG state (Random.*) — seed-threaded Splitmix instead");
    ( "hashtbl-order",
      "Hashtbl.iter/fold/to_seq* — result depends on hash-bucket layout; \
       sort keys or keep an explicit order list" );
    ( "wall-clock",
      "Unix.gettimeofday/Unix.time/Sys.time outside Clock or driver code — \
       durations must use the monotonic Galois.Clock" );
    ("domain-self", "Domain.self — control flow keyed on worker identity");
    ( "poly-hash",
      "polymorphic structural hashing (Hashtbl.hash family) — mutable \
       structures hash by current contents; hash stable ids instead" );
    ("obj-magic", "Obj.magic — unchecked cast; justify the representation in an allow");
  ]

let suppressible rule = List.mem_assoc rule rules

(* ------------------------------------------------------------------ *)
(* Rule matching on flattened identifier paths                         *)
(* ------------------------------------------------------------------ *)

let dotted comps = String.concat "." comps

(* Wall-clock allowlist: the monotonic-clock module itself (it wraps
   the only sanctioned absolute-time call sites) and driver code under
   bin/, which reports wall-clock times to humans. *)
let wall_clock_exempt path =
  List.mem "bin" (String.split_on_char '/' path) || Filename.basename path = "clock.ml"

let rule_of_path ~path comps =
  let comps = match comps with "Stdlib" :: rest -> rest | c -> c in
  match comps with
  | "Random" :: _ -> Some ("random", dotted comps ^ " uses ambient PRNG state")
  | [ "Hashtbl"; ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ]
    ->
      Some
        ( "hashtbl-order",
          dotted comps ^ " visits bindings in hash-bucket order" )
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
      Some
        ( "poly-hash",
          dotted comps ^ " hashes structurally (mutable state leaks in)" )
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      if wall_clock_exempt path then None
      else
        Some
          ( "wall-clock",
            dotted comps ^ " reads the wall clock (use Galois.Clock)" )
  | [ "Domain"; "self" ] ->
      Some ("domain-self", dotted comps ^ " exposes worker identity")
  | [ "Obj"; "magic" ] -> Some ("obj-magic", dotted comps ^ " is an unchecked cast")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Comment scanning (escape directives)                                *)
(* ------------------------------------------------------------------ *)

(* A hand-rolled scanner that understands just enough OCaml lexing to
   find comments: string literals (with escapes), quoted strings
   ({id|...|id}), char literals vs. type variables, nested comments. *)
let comments source =
  let n = String.length source in
  let line = ref 1 in
  let out = ref [] in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  while !i < n do
    let c = source.[!i] in
    if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
      let start_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if source.[!i] = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if source.[!i] = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else begin
          bump source.[!i];
          Buffer.add_char buf source.[!i];
          incr i
        end
      done;
      out := (start_line, !line, Buffer.contents buf) :: !out
    end
    else if c = '"' then begin
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match source.[!i] with
        | '\\' ->
            if !i + 1 < n then bump source.[!i + 1];
            incr i
        | '"' -> fin := true
        | ch -> bump ch);
        incr i
      done
    end
    else if c = '{' then begin
      (* quoted string literal {id|...|id}? *)
      let j = ref (!i + 1) in
      while
        !j < n && (match source.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
      do
        incr j
      done;
      if !j < n && source.[!j] = '|' then begin
        let id = String.sub source (!i + 1) (!j - !i - 1) in
        let close = "|" ^ id ^ "}" in
        let cl = String.length close in
        i := !j + 1;
        let fin = ref false in
        while (not !fin) && !i < n do
          if !i + cl <= n && String.sub source !i cl = close then begin
            i := !i + cl;
            fin := true
          end
          else begin
            bump source.[!i];
            incr i
          end
        done
      end
      else incr i
    end
    else if c = '\'' then
      (* char literal ('x', '\n', '\123') vs. type variable ('a) *)
      if !i + 1 < n && source.[!i + 1] = '\\' then begin
        i := !i + 2;
        while !i < n && source.[!i] <> '\'' do
          bump source.[!i];
          incr i
        done;
        incr i
      end
      else if !i + 2 < n && source.[!i + 2] = '\'' then i := !i + 3
      else incr i
    else begin
      bump c;
      incr i
    end
  done;
  List.rev !out

type allow = {
  a_rule : string;
  a_from : int;  (* first suppressed line *)
  a_to : int;  (* last suppressed line *)
  a_file_wide : bool;
}

let trim = String.trim

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Parse one comment body; returns the allows it grants plus any
   [bad-allow] findings it earns. *)
let parse_directive ~file ~from_line ~to_line body =
  let body = trim body in
  if not (starts_with ~prefix:"detlint:" body) then ([], [])
  else
    let rest = trim (String.sub body 8 (String.length body - 8)) in
    let bad message = ([], [ { file; line = from_line; col = 0; rule = "bad-allow"; message } ]) in
    let keyword, rest =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some sp ->
          (String.sub rest 0 sp, trim (String.sub rest sp (String.length rest - sp)))
    in
    let file_wide =
      match keyword with
      | "allow" -> Some false
      | "allow-file" -> Some true
      | _ -> None
    in
    match file_wide with
    | None ->
        bad (Printf.sprintf "unknown detlint directive %S (expected allow or allow-file)" keyword)
    | Some a_file_wide -> (
        (* tokens up to a separator (— / - / -- / :) name rules; the
           rest is the mandatory reason. *)
        let tokens = List.filter (fun t -> t <> "") (String.split_on_char ' ' rest) in
        let rec split_rules acc = function
          | [] -> (List.rev acc, None)
          | ("\xe2\x80\x94" | "-" | "--" | ":") :: reason -> (List.rev acc, Some reason)
          | t :: ts -> split_rules (t :: acc) ts
        in
        let rule_toks, reason = split_rules [] tokens in
        let named_rules =
          List.concat_map
            (fun t -> List.filter (fun r -> r <> "") (String.split_on_char ',' t))
            rule_toks
        in
        match (named_rules, reason) with
        | [], _ -> bad "detlint allow names no rule"
        | _, (None | Some []) ->
            bad "detlint allow without a reason (write: allow <rule> — <why this is safe>)"
        | rules_named, Some _ -> (
            match List.find_opt (fun r -> not (suppressible r)) rules_named with
            | Some r -> bad (Printf.sprintf "detlint allow names unknown rule %S" r)
            | None ->
                ( List.map
                    (fun a_rule ->
                      { a_rule; a_from = from_line; a_to = to_line + 1; a_file_wide })
                    rules_named,
                  [] )))

(* ------------------------------------------------------------------ *)
(* AST scan                                                            *)
(* ------------------------------------------------------------------ *)

let ident_findings ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception exn ->
      Error
        [
          {
            file = path;
            line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum;
            col = 0;
            rule = "parse-error";
            message = Printexc.to_string exn;
          };
        ]
  | ast ->
      let acc = ref [] in
      let on_ident lid (loc : Location.t) =
        match rule_of_path ~path (Longident.flatten lid) with
        | None -> ()
        | Some (rule, message) ->
            let p = loc.Location.loc_start in
            acc :=
              {
                file = path;
                line = p.Lexing.pos_lnum;
                col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                rule;
                message;
              }
              :: !acc
      in
      let iterator =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident l -> on_ident l.Location.txt l.Location.loc
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      iterator.Ast_iterator.structure iterator ast;
      Ok (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Putting a file together                                             *)
(* ------------------------------------------------------------------ *)

let compare_findings a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let scan_source ~path source =
  let allows, bad =
    List.fold_left
      (fun (allows, bad) (from_line, to_line, body) ->
        let a, b = parse_directive ~file:path ~from_line ~to_line body in
        (a @ allows, b @ bad))
      ([], []) (comments source)
  in
  let suppressed f =
    List.exists
      (fun a ->
        a.a_rule = f.rule && (a.a_file_wide || (f.line >= a.a_from && f.line <= a.a_to)))
      allows
  in
  let raw =
    match ident_findings ~path source with Ok fs -> fs | Error fs -> fs
  in
  List.sort compare_findings (bad @ List.filter (fun f -> not (suppressed f)) raw)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file path = scan_source ~path (read_file path)

let rec walk path acc =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.fold_left
      (fun acc e ->
        if e = "" || e.[0] = '.' || e = "_build" then acc
        else walk (Filename.concat path e) acc)
      acc entries
  end
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let scan_path path =
  if Sys.is_directory path then
    List.concat_map scan_file (List.rev (walk path []))
  else scan_file path

let scan_paths paths = List.concat_map scan_path paths

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_json f =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"file\":\"";
  json_escape buf f.file;
  Buffer.add_string buf (Printf.sprintf "\",\"line\":%d,\"col\":%d,\"rule\":\"" f.line f.col);
  json_escape buf f.rule;
  Buffer.add_string buf "\",\"message\":\"";
  json_escape buf f.message;
  Buffer.add_string buf "\"}";
  Buffer.contents buf
