#!/bin/sh
# Dead-export check: every `val` a library interface (lib/**/*.mli)
# exports must be referenced from some file other than its own .ml/.mli
# under lib/ bench/ bin/ examples/ benchmark/ tools/ — matched as a
# whole word, so qualified uses (Foo.bar) and local opens both count. An
# export nothing outside its module names is either dead code or belongs
# out of the interface. test/ does not count as a use: code only tests
# need belongs in test/, built from the public API.
#
# Allowlist: the values declared inside a top-level
#   module Testing : sig ... end
# block of an interface. Those are test hooks that need the module's
# private representation (e.g. Node_core.Testing.tamper_digest), so only
# tests use them; DESIGN.md §3 describes the convention.
#
# Prints each offender as `path.mli: name` and exits 1 if there are any.
# Run from the repository root (check.sh does):
#   sh tools/dead_exports.sh
set -eu
cd "${1:-.}"

dirs="lib bench bin examples benchmark tools"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "file<TAB>word", one line per distinct word of each file.
for d in $dirs; do
  [ -d "$d" ] && find "$d" -type f ! -path '*/_build/*' ! -name '.*'
done | sort | while IFS= read -r f; do
  grep -ow '[A-Za-z_][A-Za-z0-9_]*' "$f" 2>/dev/null | sort -u \
    | sed "s|^|$f	|" || true
done > "$tmp/words"

# "mli-path<TAB>name" for every exported value outside a Testing block.
find lib -name '*.mli' | sort | while IFS= read -r f; do
  awk '/^module Testing : sig/ { t = 1 } t && /^end/ { t = 0; next } !t' "$f" \
    | sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([A-Za-z_][A-Za-z0-9_']*\).*/\1/p" \
    | sed "s|^|$f	|"
done > "$tmp/vals"

awk -F '\t' '
  NR == FNR { files[$2] = files[$2] "\n" $1; next }
  {
    mli = $1; name = $2
    ml = substr(mli, 1, length(mli) - 1)
    n = split(files[name], fs, "\n")
    used = 0
    for (i = 1; i <= n; i++)
      if (fs[i] != "" && fs[i] != mli && fs[i] != ml) { used = 1; break }
    if (!used) { print mli ": " name; dead++ }
  }
  END {
    if (dead) {
      printf "dead-export check failed: %d exported value(s) used nowhere outside their own module\n", dead > "/dev/stderr"
      exit 1
    }
  }
' "$tmp/words" "$tmp/vals"
