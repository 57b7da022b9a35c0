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

# Executor, storage and SSI code must never iterate a hashtable in
# insertion-history order: anything that reaches committed state, read
# sets, hashes or the rw-antidependency graph has to drain in key order
# (Brdb_util.Sorted_tbl, a Map) or via an explicit index (Table.iter_live).
# SSI detection's per-block indexes may only be probed.
# Hashtbl.filter_map_inplace is allowed — it rewrites in place and exposes
# no ordering.
hashtbl_pattern='Hashtbl\.(iter|fold)[^a-z_]'
hashtbl_matches=''
for sub in engine storage ssi; do
  d="$dir/$sub"
  [ -d "$d" ] || continue
  m=$(grep -rnE "$hashtbl_pattern" "$d" --include='*.ml' --include='*.mli' || true)
  [ -n "$m" ] && hashtbl_matches="$hashtbl_matches$m
"
done

if [ -n "$hashtbl_matches" ]; then
  echo "determinism lint failed — unordered Hashtbl iteration in executor/storage/SSI code" >&2
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
# truth: the virtual-table providers, i.e. the Catalog.register_virtual
# callers in lib/node and lib/core, where each view's name and typed
# columns are declared together. Nothing else may construct a sys-prefixed
# table name — the executor and the catalog's name guard must route every
# decision through Catalog.is_sys_name so the read-only and
# contract-visibility rules cannot be bypassed by string comparison drift.
# ("sys.* tables are read-only" error messages don't match: '*' != [a-z_].)
sys_matches=$(grep -rnE '"sys\.[a-z_]' "$dir" --include='*.ml' --include='*.mli' \
  | grep -vE "^$dir/(node|core)/" || true)

if [ -n "$sys_matches" ]; then
  echo "lint failed — sys-prefixed table name constructed outside the" >&2
  echo "virtual-table provider layers (lib/node, lib/core);" >&2
  echo "use Catalog.is_sys_name / Catalog.virtual_names instead:" >&2
  echo "$sys_matches" >&2
  exit 1
fi
# Parallelism primitives are banned outside the one designated scheduler
# module (ISSUE 8): the wave validator *models* multi-core execution on
# the simulated clock (lib/sim/cpu.ml); real Domain/Mutex/Atomic anywhere
# in the libraries would introduce actual nondeterminism. The exclusion
# still lints cpu.ml for the wall-clock/Random rules above — only this
# rule is scoped. Brdb_crypto.Sha256 also relies on this ban: every digest
# resets and reuses one module-private context, which is only safe while
# the libraries run on one domain. Lifting the ban means giving each
# domain its own SHA-256 context first.
par_pattern='(^|[^.[:alnum:]_])(Domain|Mutex|Atomic)\.'
par_matches=$(grep -rnE "$par_pattern" "$dir" --include='*.ml' --include='*.mli' \
  | grep -v "^$dir/sim/cpu\.ml:" || true)

if [ -n "$par_matches" ]; then
  echo "determinism lint failed — Domain/Mutex/Atomic outside the designated" >&2
  echo "scheduler module ($dir/sim/cpu.ml); parallelism is modeled, not real (ISSUE 8):" >&2
  echo "(Brdb_crypto.Sha256's one shared context is also only safe on one domain;" >&2
  echo "see sha256.mli)" >&2
  echo "$par_matches" >&2
  exit 1
fi

# The SHA-256 C stub (lib/crypto/sha256_stubs.c) backs [@@noalloc]
# externals: it must not allocate, register roots, call back into OCaml
# or release the runtime lock, or the GC could run mid-call with the
# shared context's values unregistered. And no environment variable may
# pick its kernel: CPUID alone chooses, once, so every run on one host
# hashes through the same code.
stub_pattern='caml_alloc|CAMLparam|CAMLlocal|caml_callback|caml_release_runtime_system|getenv'
stub_matches=$(grep -nE "$stub_pattern" "$dir"/crypto/*.c 2>/dev/null || true)
if [ -n "$stub_matches" ]; then
  echo "lint failed — allocation, GC roots, callbacks, runtime release or getenv" >&2
  echo "in a crypto C stub; its externals are [@@noalloc] and its kernel is" >&2
  echo "chosen by CPUID alone (see sha256.mli):" >&2
  echo "$stub_matches" >&2
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
# inside the expected_alerts body (from `let expected_alerts` up to the
# first blank or unindented line after it).
chaos_file="$dir/core/chaos.ml"
if [ -f "$chaos_file" ]; then
  fault_constructors=$(awk '/^type fault =/{in_t=1; next} in_t && /^[a-z]/{in_t=0} in_t' \
    "$chaos_file" | grep -oE '^  \| [A-Z][A-Za-z_]*' | sed 's/^  | //' || true)
  coverage_region=$(awk '/^let expected_alerts/{flag=1; print; next} flag && /^$|^[^ |]/{flag=0} flag' \
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

# One block pipeline (DESIGN.md §14) and one per-height record: Node_core
# builds a block's SSI graph, records ledger step 1, writes a height's
# block record and resets the records in exactly one place each, so a
# second block-processing path (a serial commit fork, a hand-copied
# crash-path prefix) or a second writer that lets a height's rows drift
# apart cannot silently come back. The history tree over the chained
# digests (the provenance anchor, DESIGN.md §16) shares that writer and
# that reset: a second append, truncate or reset could let the anchor
# drift from the digests sys.blocks publishes. Exactly one: a renamed
# call fails too.
core_file="$dir/node/node_core.ml"
if [ -f "$core_file" ]; then
  for call in Detect.compute Ledger_table.record_txs \
    'Hashtbl.replace t.records' 'Hashtbl.reset t.records' \
    Merkle.history_append Merkle.history_truncate Merkle.history_reset; do
    n=$(grep -cF "$call" "$core_file" || true)
    if [ "$n" -ne 1 ]; then
      echo "lint failed — $n call sites of $call in $core_file; the block" >&2
      echo "pipeline and its per-height record must have exactly one (crash" >&2
      echo "injection, recovery and snapshot install reuse it):" >&2
      grep -nF "$call" "$core_file" >&2
      exit 1
    fi
  done
fi

# One name resolver (DESIGN.md §9): Eval.resolve is the only code in the
# engine that maps a column reference to a slot and column, and the
# planner's pushdown, index choice, hash-join keys, correlation check and
# GROUP BY matching all read the slot it returned. So Schema.column_index
# has exactly four sites under engine/: the resolver's one in eval.ml,
# and the INSERT, UPDATE and CREATE INDEX target-column lookups in
# exec.ml (a target column names a column of the one table written, not
# an expression). A side resolver, such as a per-scan "is this my column"
# helper or a correlation walk with its own schema lookup, cannot
# silently come back. Exactly four: a fifth site fails, and so does a
# renamed lookup.
engine_dir="$dir/engine"
if [ -d "$engine_dir" ]; then
  n=$(grep -roF 'Schema.column_index' "$engine_dir" --include='*.ml' | wc -l)
  n_eval=$(grep -oF 'Schema.column_index' "$engine_dir/eval.ml" | wc -l)
  if [ "$n" -ne 4 ] || [ "$n_eval" -ne 1 ]; then
    echo "lint failed — $n Schema.column_index sites in $engine_dir ($n_eval in" >&2
    echo "eval.ml); expected 4: Eval.resolve's, plus the INSERT, UPDATE and" >&2
    echo "CREATE INDEX target columns. Resolve column references with" >&2
    echo "Eval.resolve and read the slot it returns:" >&2
    grep -rnF 'Schema.column_index' "$engine_dir" --include='*.ml' >&2
    exit 1
  fi
fi

# One writer of the key indexes (DESIGN.md §9, "Visibility index"): each
# index key keeps its live and retired vids apart and leaves aborted ones
# out, mirroring version fields that only Table's lifecycle functions
# (insert_version, mark_deleted, unmark_deleted, mark_aborted, prune,
# add_index/restore) change. So Index's mutating functions are called from
# lib/storage/table.ml only, at exactly these sites: add and retire in
# index_version (the one rebuild-or-insert path), retire in mark_deleted,
# unretire in unmark_deleted, and remove in remove_from_indexes. A second
# writer that could let a key's split drift from its versions cannot come
# back silently; an extra or renamed call site fails too.
table_file="$dir/storage/table.ml"
if [ -f "$table_file" ]; then
  index_call='(^|[^A-Za-z0-9_])Index\.(add|retire|unretire|remove)([^A-Za-z0-9_'"'"']|$)'
  for spec in add:1 retire:2 unretire:1 remove:1; do
    fn=${spec%:*}
    want=${spec#*:}
    n=$(grep -oE "(^|[^A-Za-z0-9_])Index\.$fn([^A-Za-z0-9_']|\$)" "$table_file" | wc -l)
    if [ "$n" -ne "$want" ]; then
      echo "lint failed — $n call sites of Index.$fn in $table_file; expected $want" >&2
      echo "(the key indexes have one writer, Table's lifecycle functions):" >&2
      grep -nE "(^|[^A-Za-z0-9_])Index\.$fn([^A-Za-z0-9_']|\$)" "$table_file" >&2
      exit 1
    fi
  done
  root_dir=$(dirname "$dir")
  index_matches=''
  for d in "$dir" "$root_dir/bin" "$root_dir/bench" "$root_dir/benchmark" "$root_dir/examples"; do
    [ -d "$d" ] || continue
    m=$(grep -rnE "$index_call" "$d" --include='*.ml' | grep -v "^$table_file:" || true)
    [ -n "$m" ] && index_matches="$index_matches$m
"
  done
  if [ -n "$index_matches" ]; then
    echo "lint failed — Index.add/retire/unretire/remove outside $table_file;" >&2
    echo "change versions through Table's lifecycle functions instead:" >&2
    printf '%s' "$index_matches" >&2
    exit 1
  fi
fi

# One recorder of SSI reads (DESIGN.md §9, "Read sets"): the executor's
# scans are the only code that adds to a transaction's read sets and
# predicates, so Txn.record_read has exactly one call site, in a compiled
# scan's yield (against the table's read set the scan found at its first
# run), and Txn.record_predicate exactly two (record_range, for a range
# scan, a point probe and each probed IN key; and a sequential scan), all
# in engine/exec.ml. And the read sets stay unboxed
# per-table vid buffers: txn.ml may not hash or probe with the polymorphic
# Hashtbl.hash/Hashtbl.mem, the (table, vid) tuple set it used to keep.
exec_file="$dir/engine/exec.ml"
if [ -f "$exec_file" ]; then
  for spec in record_read:1 record_predicate:2; do
    fn=${spec%:*}
    want=${spec#*:}
    n=$(grep -oE "Txn\.$fn([^A-Za-z0-9_']|\$)" "$exec_file" | wc -l)
    if [ "$n" -ne "$want" ]; then
      echo "lint failed — $n call sites of Txn.$fn in $exec_file; expected $want" >&2
      echo "(scans record reads and predicates; see DESIGN.md §9):" >&2
      grep -nE "Txn\.$fn([^A-Za-z0-9_']|\$)" "$exec_file" >&2
      exit 1
    fi
  done
  root_dir=$(dirname "$dir")
  rec_matches=''
  for d in "$dir" "$root_dir/bin" "$root_dir/bench" "$root_dir/benchmark" "$root_dir/examples"; do
    [ -d "$d" ] || continue
    m=$(grep -rnE "(^|[^A-Za-z0-9_])(Txn\.)?record_(read|predicate)([^A-Za-z0-9_']|\$)" "$d" \
      --include='*.ml' | grep -v "^$exec_file:" | grep -v "^$dir/txn/txn\.ml:" || true)
    [ -n "$m" ] && rec_matches="$rec_matches$m
"
  done
  if [ -n "$rec_matches" ]; then
    echo "lint failed — Txn.record_read/record_predicate outside $exec_file;" >&2
    echo "only the executor's scans record SSI reads and predicates:" >&2
    printf '%s' "$rec_matches" >&2
    exit 1
  fi
fi
# One grouping identity (DESIGN.md §9, "Streaming aggregation"): two keys
# are one GROUP BY group, one DISTINCT row or one hash-join bucket exactly
# when Exec.key_string spells them alike, and it must agree with
# Value.compare_total. So canon_encode is applied only inside key_string's
# definition, and key_string at exactly four sites in engine/exec.ml: the
# hash-join build and probe, the group bucketing, and DISTINCT. Neither
# name appears elsewhere under $dir/ (exec.mli declares the test hook).
if [ -f "$exec_file" ]; then
  # applications: the name followed by an argument, definitions excluded
  apps() { grep -vE '^let (key_string|canon_encode)' | grep -oE "(^|[^A-Za-z0-9_.])$1 [a-z([]" | wc -l; }
  n=$(apps key_string < "$exec_file")
  canon_all=$(apps canon_encode < "$exec_file")
  canon_in=$(awk '/^let key_string/{f=1} f&&/^$/{f=0} f' "$exec_file" | apps canon_encode)
  ident_matches=$(grep -rnE '(^|[^A-Za-z0-9_])(key_string|canon_encode)([^A-Za-z0-9_]|$)' "$dir" \
    --include='*.ml' --include='*.mli' | grep -v "^$exec_file:" \
    | grep -v "^$dir/engine/exec\.mli:" || true)
  if [ "$n" -ne 4 ] || [ "$canon_in" -eq 0 ] || [ "$canon_all" -ne "$canon_in" ] \
    || [ -n "$ident_matches" ]; then
    echo "lint failed — grouping identity: $n key_string applications in $exec_file" >&2
    echo "(expected 4: hash-join build and probe, group bucketing, DISTINCT);" >&2
    echo "$canon_all canon_encode applications, $canon_in of them inside key_string" >&2
    echo "(all must be); uses outside exec.ml:" >&2
    echo "$ident_matches" >&2
    grep -nE '(^|[^A-Za-z0-9_.])(key_string|canon_encode) [a-z([]' "$exec_file" >&2
    exit 1
  fi
fi
txn_file="$dir/txn/txn.ml"
if [ -f "$txn_file" ]; then
  read_set_matches=$(grep -nE 'Hashtbl\.(hash|mem)([^A-Za-z0-9_]|$)' "$txn_file" || true)
  if [ -n "$read_set_matches" ]; then
    echo "lint failed — polymorphic Hashtbl.hash/Hashtbl.mem in $txn_file; read" >&2
    echo "sets are per-table vid buffers, and a predicate is hashed once (replace" >&2
    echo "plus a length check):" >&2
    echo "$read_set_matches" >&2
    exit 1
  fi
fi

# One application layer for the orderers (DESIGN.md §12): each orderer
# node applies its ordered stream, cutting batches with Cutter.add and
# Cutter.cut, and fans delivered blocks out to its peers, in
# consensus/assembler.ml. Bft's primary also cuts through the cutter
# (it proposes a batch rather than delivering it), but delivers through
# the assembler too. So a flavour's private copy of the cut/deliver loop
# cannot come back: Cutter.add/cut are called only in assembler.ml and
# bft.ml, and no other consensus module builds a Msg.Block_deliver.
cons_dir="$dir/consensus"
if [ -d "$cons_dir" ]; then
  cut_matches=$(grep -rnE "Cutter\.(add|cut)([^A-Za-z0-9_']|\$)" "$dir" --include='*.ml' \
    | grep -vE "^$cons_dir/(assembler|bft)\.ml:" || true)
  deliver_matches=$(grep -nE 'Msg\.Block_deliver' "$cons_dir"/*.ml \
    | grep -v "^$cons_dir/assembler\.ml:" || true)
  if [ -n "$cut_matches$deliver_matches" ]; then
    echo "lint failed — Cutter.add/cut outside consensus/assembler.ml and bft.ml, or" >&2
    echo "a Msg.Block_deliver built in a consensus module other than assembler.ml;" >&2
    echo "apply the ordered stream and deliver blocks through Assembler:" >&2
    [ -n "$cut_matches" ] && echo "$cut_matches" >&2
    [ -n "$deliver_matches" ] && echo "$deliver_matches" >&2
    exit 1
  fi
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

# One checked block (DESIGN.md §4 item 3): ledger interfaces take no
# optional arguments. Block.check builds the only value that carries a
# block's payloads and tx root, so an optional "root/payload the caller
# just computed" argument, which nothing can enforce, cannot come back.
opt_matches=$(grep -nE '\?[a-z_][A-Za-z0-9_]*:' "$dir"/ledger/*.mli 2>/dev/null || true)
if [ -n "$opt_matches" ]; then
  echo "lint failed — optional argument in a ledger interface; pass a" >&2
  echo "Block.checked (built only by Block.check) instead of a caller-supplied" >&2
  echo "root or payload:" >&2
  echo "$opt_matches" >&2
  exit 1
fi

# Test hooks stay in tests (DESIGN.md §3): a `module Testing` block
# exposes a module's private representation to test/ only, so no system
# code (the libraries, the CLI, the benches, the examples) may name one —
# not a hook (Foo.Testing.x), an alias or an open (Foo.Testing). The
# sibling directories are found next to $dir (the @lint alias copies them).
root=$(dirname "$dir")
testing_matches=''
for d in "$dir" "$root/bin" "$root/bench" "$root/benchmark" "$root/examples"; do
  [ -d "$d" ] || continue
  m=$(grep -rnE "\.Testing([^A-Za-z0-9_']|\$)|(^|[^A-Za-z0-9_'])Testing\.[a-z_]" "$d" \
    --include='*.ml' --include='*.mli' || true)
  [ -n "$m" ] && testing_matches="$testing_matches$m
"
done
if [ -n "$testing_matches" ]; then
  echo "lint failed — a Testing submodule named outside test/; test hooks" >&2
  echo "reach private representation and must not be used by the system:" >&2
  printf '%s' "$testing_matches" >&2
  exit 1
fi

echo "lint ok: no wall-clock, global Random, unordered Hashtbl iteration, Marshal in snapshot code, stray sys.* literals, or Domain/Mutex/Atomic outside sim/cpu.ml under $dir/; every Msg.t constructor carries a span context; every Chaos.fault class has a coverage-map entry; one block pipeline and one per-height record and history writer in node_core.ml; one name resolver (Schema.column_index at its 4 engine sites); one writer of the key indexes (Index mutations only in storage/table.ml); one recorder of SSI reads (Txn.record_read/record_predicate only at their exec.ml sites, no polymorphic hash set in txn.ml); one grouping identity (key_string at its 4 exec.ml sites, canon_encode only inside it); one application layer for the orderers (Cutter.add/cut only in consensus/assembler.ml and bft.ml, Msg.Block_deliver built only in assembler.ml); one metrics store (Stat.create only in obs/registry.ml); no optional arguments in ledger interfaces; no Testing hook used outside test/; no allocation, callback, runtime release or getenv in the crypto C stubs"
