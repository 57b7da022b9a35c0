#!/bin/sh
# The one-stop gate: build everything (including the determinism lint),
# run the full test suite, then smoke-test the sys.* introspection views
# and the §11 snapshot round-trip end-to-end through the CLI. CI and
# pre-commit both call this.
set -eu
cd "$(dirname "$0")"
dune build @all @lint
# Every value a library interface exports must be used outside its own
# module, by the system: test/ does not count as a use, and only values in
# a `module Testing : sig ... end` block are exempt (prints each offender).
sh tools/dead_exports.sh
echo "dead-export check ok"
dune runtest
# Wall-clock benchmark smoke: all four workloads (including the executor
# workloads eo_group and eo_sessions) at 1/20 length, with every
# correctness check. Cached when nothing it depends on changed.
dune build @benchmark/smoke
echo "benchmark smoke ok"
dune exec bin/brdb_cli.exe -- sys > /dev/null
echo "sys.* smoke ok"
dune exec bin/brdb_cli.exe -- snapshot > /dev/null
dune exec bin/brdb_cli.exe -- snapshot --compaction pruned > /dev/null
echo "snapshot round-trip smoke ok (archive + pruned)"
dune exec bin/brdb_cli.exe -- chaos > /dev/null
echo "orderer-fault chaos smoke ok (bft view change + raft re-election + tamper rejection)"
dune exec bin/brdb_cli.exe -- alerts > /dev/null
echo "health-plane smoke ok (every fault class raises a matching alert; clean run silent)"
# Perf-regression gate (ISSUE 7): re-run the profiled table4 workload
# (seeded, so an unchanged tree reproduces BENCH_profile.json exactly)
# and diff against the committed baseline with per-metric tolerances.
fresh_json=$(mktemp /tmp/brdb_bench_fresh.XXXXXX.json)
trap 'rm -f "$fresh_json"' EXIT
dune exec bench/main.exe -- --quick --only table4 --json "$fresh_json" > /dev/null
dune exec tools/bench_diff.exe -- \
  --baseline BENCH_profile.json --fresh "$fresh_json" \
  --tolerances tools/bench_tolerances.txt
echo "perf-regression gate ok (table4 vs BENCH_profile.json)"
# Detection-latency gate (ISSUE 9): the health plane must keep noticing
# every injected fault class about as fast as the committed baseline,
# with zero false positives on fault-free runs.
dune exec bench/main.exe -- --quick --only alerts --json "$fresh_json" > /dev/null
dune exec tools/bench_diff.exe -- \
  --baseline BENCH_alerts.json --fresh "$fresh_json" \
  --tolerances tools/bench_tolerances.txt
echo "detection-latency gate ok (alerts vs BENCH_alerts.json)"
# Client-plane smoke + gate (ISSUE 10): receipts and provenance proofs
# must verify from hashes alone (and tampered variants fail), a
# cross-node verified query must flag exactly the tampered replica, and
# the contended admission A/B must keep failing doomed txs before ordering.
dune exec bin/brdb_cli.exe -- verify > /dev/null
echo "verifiable-read smoke ok (receipt + provenance verified; tampering rejected; tampered replica flagged)"
dune exec bench/main.exe -- --quick --only admission --json "$fresh_json" > /dev/null
dune exec tools/bench_diff.exe -- \
  --baseline BENCH_client.json --fresh "$fresh_json" \
  --tolerances tools/bench_tolerances.txt
echo "admission gate ok (client plane vs BENCH_client.json)"
