(** Static determinism lint.

    Parses [.ml] files (compiler-libs) and flags identifier uses that
    undermine deterministic execution: ambient randomness, hash-bucket
    iteration order, wall-clock reads outside the allowlist, worker-id
    dependent control flow and polymorphic structural hashing.

    Escape hatch: a comment [(* detlint: allow <rule> — <reason> *)]
    suppresses the named rule(s) on its own lines and the line after
    it; [allow-file] covers the whole file. The reason is mandatory —
    reasonless or unknown-rule allows are reported as [bad-allow].
    Unparseable files are reported as [parse-error]. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

val rules : (string * string) list
(** Suppressible rule names with one-line descriptions ([bad-allow] and
    [parse-error] are linter self-diagnostics, not suppressible). *)

val scan_source : path:string -> string -> finding list
(** [scan_source ~path source] lints one compilation unit. [path] is
    used for reporting and for the wall-clock allowlist (paths with a
    [bin] segment, and [clock.ml], may read the wall clock).
    Findings are sorted by (file, line, col, rule). *)

val scan_paths : string list -> finding list
(** Lint every [.ml] under the given files/directories (recursive,
    lexicographic order; skips dotfiles and [_build]). *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [rule] message] *)

val to_json : finding -> string
(** One-line JSON object: {"file":..,"line":..,"col":..,"rule":..,"message":..} *)
