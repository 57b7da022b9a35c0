#!/bin/sh
# Determinism lint: library code must never read the wall clock or the
# global Random state — simulations use Brdb_sim.Clock and Brdb_sim.Rng
# (seeded), so a run is a pure function of its inputs (CLAUDE.md).
# Run via `dune build @lint` (the alias passes lib/ in) or directly:
#   sh tools/lint.sh lib
set -eu

dir="${1:-lib}"

# [^.[:alnum:]_]Random\. rejects the global Random module while allowing
# qualified deterministic uses like Brdb_sim.Rng and Foo.Random_local.
pattern='Unix\.gettimeofday|Unix\.time[^a-z]|Sys\.time|[^.[:alnum:]_]Random\.'

matches=$(grep -rnE "$pattern" "$dir" --include='*.ml' --include='*.mli' || true)

if [ -n "$matches" ]; then
  echo "determinism lint failed — wall-clock or global Random in library code:" >&2
  echo "$matches" >&2
  exit 1
fi

# Executor/storage code must never iterate a hashtable in insertion-history
# order: anything that reaches committed state, read sets or hashes has to
# drain in key order (Brdb_util.Sorted_tbl) or via an explicit index
# (Table.iter_live). Hashtbl.filter_map_inplace is allowed — it rewrites
# in place and exposes no ordering.
hashtbl_pattern='Hashtbl\.(iter|fold)[^a-z_]'
hashtbl_matches=''
for sub in engine storage; do
  d="$dir/$sub"
  [ -d "$d" ] || continue
  m=$(grep -rnE "$hashtbl_pattern" "$d" --include='*.ml' --include='*.mli' || true)
  [ -n "$m" ] && hashtbl_matches="$hashtbl_matches$m
"
done

if [ -n "$hashtbl_matches" ]; then
  echo "determinism lint failed — unordered Hashtbl iteration in executor/storage code" >&2
  echo "(use Brdb_util.Sorted_tbl or an ordered index instead):" >&2
  printf '%s' "$hashtbl_matches" >&2
  exit 1
fi

# Snapshot serialization (DESIGN.md §11) must be canonical: no Marshal
# (representation-dependent bytes would fork chunk content addresses
# across nodes) and no unordered Hashtbl iteration (capture drains tables
# in sorted order; hash order would leak into the encoding). The Hashtbl
# check reuses the executor/storage rule above.
if [ -d "$dir/snapshot" ]; then
  snap_matches=$(grep -rnE "Marshal\.|$hashtbl_pattern" "$dir/snapshot" \
    --include='*.ml' --include='*.mli' || true)
  if [ -n "$snap_matches" ]; then
    echo "determinism lint failed — Marshal or unordered Hashtbl iteration in" >&2
    echo "snapshot code (the codec must be canonical; DESIGN.md §11):" >&2
    echo "$snap_matches" >&2
    exit 1
  fi
fi

# The sys.* introspection schema (DESIGN.md §10) has exactly one source of
# truth: the virtual-table providers (Catalog.register_virtual callers in
# lib/node and lib/core, schemas in lib/obs, the name guard in lib/storage).
# Nothing else may construct a sys-prefixed table name — the executor must
# route every decision through Catalog.is_sys_name so the read-only and
# contract-visibility rules cannot be bypassed by string comparison drift.
# ("sys.* tables are read-only" error messages don't match: '*' != [a-z_].)
sys_matches=$(grep -rnE '"sys\.[a-z_]' "$dir" --include='*.ml' --include='*.mli' \
  | grep -vE "^$dir/(node|core|obs|storage)/" || true)

if [ -n "$sys_matches" ]; then
  echo "lint failed — sys-prefixed table name constructed outside the" >&2
  echo "virtual-table provider layers (lib/node, lib/core, lib/obs, lib/storage);" >&2
  echo "use Catalog.is_sys_name / Catalog.virtual_names instead:" >&2
  echo "$sys_matches" >&2
  exit 1
fi
# Parallelism primitives are banned outside the one designated scheduler
# module (ISSUE 8): the wave validator *models* multi-core execution on
# the simulated clock (lib/sim/cpu.ml); real Domain/Mutex/Atomic anywhere
# in the libraries would introduce actual nondeterminism. The exclusion
# still lints cpu.ml for the wall-clock/Random rules above — only this
# rule is scoped.
par_pattern='(^|[^.[:alnum:]_])(Domain|Mutex|Atomic)\.'
par_matches=$(grep -rnE "$par_pattern" "$dir" --include='*.ml' --include='*.mli' \
  | grep -v "^$dir/sim/cpu\.ml:" || true)

if [ -n "$par_matches" ]; then
  echo "determinism lint failed — Domain/Mutex/Atomic outside the designated" >&2
  echo "scheduler module ($dir/sim/cpu.ml); parallelism is modeled, not real (ISSUE 8):" >&2
  echo "$par_matches" >&2
  exit 1
fi

# Every network message must carry a span context (ISSUE 7): each
# constructor of Msg.t has to be matched in Msg.span_ctx, so a new message
# variant cannot silently opt out of causal tracing. Containment check:
# constructors are extracted from the `type t =` block of msg.ml and each
# must appear inside the span_ctx function body (the region between
# `let span_ctx` and the following `module Net`).
msg_file="$dir/consensus/msg.ml"
if [ -f "$msg_file" ]; then
  constructors=$(awk '/^type t =/{in_t=1; next} in_t && /^[a-z]/{in_t=0} in_t' \
    "$msg_file" | grep -oE '^  \| [A-Z][A-Za-z_]*' | sed 's/^  | //' || true)
  span_region=$(awk '/^let span_ctx/{flag=1} /^module Net/{flag=0} flag' "$msg_file")
  missing=''
  for c in $constructors; do
    if ! printf '%s' "$span_region" | grep -qE "(\| *|, *)$c([^A-Za-z_]|\$)"; then
      missing="$missing $c"
    fi
  done
  if [ -n "$missing" ]; then
    echo "lint failed — Msg.t constructor(s) without a span context in" >&2
    echo "Msg.span_ctx (every network message must be traceable; ISSUE 7):" >&2
    echo "  $missing" >&2
    exit 1
  fi
fi

# Every injectable fault class must be covered by the health plane
# (ISSUE 9): each constructor of Chaos.fault has to be matched in
# Chaos.expected_alerts, so a new fault class cannot ship undetectable.
# Same containment shape as the Msg.span_ctx rule above: constructors are
# extracted from the `type fault =` block of chaos.ml and each must appear
# inside the expected_alerts body (the region between `let expected_alerts`
# and the following `let faults_of_spec`).
chaos_file="$dir/core/chaos.ml"
if [ -f "$chaos_file" ]; then
  fault_constructors=$(awk '/^type fault =/{in_t=1; next} in_t && /^[a-z]/{in_t=0} in_t' \
    "$chaos_file" | grep -oE '^  \| [A-Z][A-Za-z_]*' | sed 's/^  | //' || true)
  coverage_region=$(awk '/^let expected_alerts/{flag=1} /^let faults_of_spec/{flag=0} flag' \
    "$chaos_file")
  missing=''
  for c in $fault_constructors; do
    if ! printf '%s' "$coverage_region" | grep -qE "(\| *)$c([^A-Za-z_]|\$)"; then
      missing="$missing $c"
    fi
  done
  if [ -n "$missing" ]; then
    echo "lint failed — Chaos.fault constructor(s) without an entry in" >&2
    echo "Chaos.expected_alerts (every fault class must map to the health-plane" >&2
    echo "detectors expected to notice it; ISSUE 9):" >&2
    echo "  $missing" >&2
    exit 1
  fi
fi

# One block pipeline (DESIGN.md §14): Node_core builds a block's SSI graph
# and records ledger step 1 in exactly one place each, so a second
# block-processing path (a serial commit fork, a hand-copied crash-path
# prefix) cannot silently come back.
core_file="$dir/node/node_core.ml"
if [ -f "$core_file" ]; then
  for call in Detect.compute Ledger_table.record_txs; do
    n=$(grep -cF "$call" "$core_file" || true)
    if [ "$n" -gt 1 ]; then
      echo "lint failed — $n call sites of $call in $core_file; the block" >&2
      echo "pipeline must have one (crash injection and recovery reuse it):" >&2
      grep -nF "$call" "$core_file" >&2
      exit 1
    fi
  done
fi

# One metrics store (DESIGN.md §8): every sample lives in an
# Obs.Registry histogram, so Stat.create has exactly one home. A second
# sample store (a private per-peer accumulator duplicating the registry's
# phase timings) cannot silently come back.
stat_matches=$(grep -rnE '(^|[^[:alnum:]_])Stat\.create' "$dir" --include='*.ml' \
  --include='*.mli' | grep -v "^$dir/obs/registry\.ml:" || true)
if [ -n "$stat_matches" ]; then
  echo "lint failed — Stat.create outside $dir/obs/registry.ml; record samples" >&2
  echo "with Registry.observe so the registry stays the only metrics store:" >&2
  echo "$stat_matches" >&2
  exit 1
fi

echo "lint ok: no wall-clock, global Random, unordered Hashtbl iteration, Marshal in snapshot code, stray sys.* literals, or Domain/Mutex/Atomic outside sim/cpu.ml under $dir/; every Msg.t constructor carries a span context; every Chaos.fault class has a coverage-map entry; one block pipeline in node_core.ml; one metrics store (Stat.create only in obs/registry.ml)"
