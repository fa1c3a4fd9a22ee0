#!/usr/bin/env bash
# Surface scan of lib/**/*.mli: which exported values have callers, and
# where. Run from anywhere inside the git checkout:
#
#   bash test/surface_scan.sh
#
# It prints one line per finding and nothing for a value with a caller
# outside tests:
#
#   UNCALLED  M.v        no file but the module's own .ml/.mli names v
#   TESTONLY  M.v        only files under test/ name v
#   QTESTONLY M.v        v is named elsewhere, but M.v (or A.v for a
#                        module alias A = ....M) only under test/
#   UNPASSED  f v ?a     no file naming v passes its optional ?a
#
# M is the innermost `module X : sig` enclosing the val, else the file's
# module name. Matching is by word (`git grep -w`), so a name shared by
# unrelated modules counts as called: the scan under-reports, never
# over-reports. It needs `git grep` and so stays out of `dune runtest`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

trees=(lib bin test examples costbench)

# "FILE MODULE VAL" for every val of every .mli under lib/.
vals() {
  git ls-files 'lib/*.mli' | while read -r f; do
    m=$(basename "${f%.mli}")
    awk -v M="${m^}" '
      /^ *module [A-Z][A-Za-z0-9_]* : sig/ { s[++d] = $2 }
      /^ *end/ { if (d) d-- }
      /^ *val / { v = $2; sub(/:.*/, "", v); print FILENAME, (d ? s[d] : M), v }
    ' "$f"
  done
}

# Files other than the module's own .ml/.mli that name the word(s) read
# from stdin (one per line, fixed strings).
callers() {
  local f=$1
  git grep -lwF -f - "${trees[@]}" | grep -vx -e "${f%i}" -e "$f" || true
}

only_tests() { [ -n "$1" ] && ! grep -qv '^test/' <<<"$1"; }

vals | while read -r f m v; do
  hits=$(callers "$f" <<<"$v")
  if [ -z "$hits" ]; then
    echo "UNCALLED $m.$v"
  elif only_tests "$hits"; then
    echo "TESTONLY $m.$v"
  else
    aliases=$(git grep -h -oP "module \K[A-Z]\w*(?= = [\w.]*\b$m\b)" "${trees[@]:0:4}" | sort -u || true)
    qhits=$( { sed "s/\$/.$v/" <<<"$aliases" | grep -v '^\.'; echo "$m.$v"; } | callers "$f")
    if only_tests "$qhits"; then echo "QTESTONLY $m.$v"; fi
  fi
done

# Optional arguments: "FILE VAL SIGNATURE" with the signature joined
# onto one line, then every ?arg no caller passes as ~arg or ?arg.
git ls-files 'lib/*.mli' | while read -r f; do
  awk '
    /^ *(val|type|module|end|exception|include|\(\*)|^ *$/ {
      if (v != "") print FILENAME, v, s; v = ""
    }
    /^ *val / { v = $2; sub(/:.*/, "", v); s = $0; next }
    v != "" { s = s " " $0 }
    END { if (v != "") print FILENAME, v, s }
  ' "$f"
done | while read -r f v sig; do
  for a in $(grep -oP '\?\K\w+(?=:)' <<<"$sig" | sort -u); do
    hits=$(callers "$f" <<<"$v")
    if [ -z "$hits" ] || ! grep -qP "[~?]$a\b" $hits; then echo "UNPASSED $f $v ?$a"; fi
  done
done
