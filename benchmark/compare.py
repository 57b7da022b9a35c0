#!/usr/bin/env python3
"""Compare benchmark results: k runs per side, per workload and metric.

    python3 benchmark/compare.py BASE.jsonl [...] [--new NEW.jsonl [...]]

Each file holds the JSON lines that `main.exe --out FILE` appends, one
per run. For every workload and end-to-end metric this prints each side's
median and quartiles and the spread (interquartile distance as a share of
the median). With --new it adds a verdict against the bound that
BENCHMARK.json fixes for the metric:

  worse       the new median is worse than the base median by more than
              the bound;
  better      the new median is better by more than the base runs' own
              spread;
  unresolved  a side's spread exceeds the bound and neither side's runs
              all beat the other's;
  same        otherwise.

Per-layer metrics of traced runs are listed with their medians; the
traced runs' end-to-end metrics are set against the untraced ones, which
is the tracing overhead.
"""

import json
import os
import statistics
import sys


def load(paths):
    """{(workload, trace): {metric: [values]}} and units."""
    runs, units = {}, {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                side = runs.setdefault((rec["workload"], rec["trace"]), {})
                for name, m in rec["metrics"].items():
                    if m["value"] is not None:
                        side.setdefault(name, []).append(m["value"])
                        units[name] = m["unit"]
    return runs, units


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, new, bound, higher_better):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    gain = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if not higher_better:
        gain = -gain
    better_all = all((n > b) == higher_better and n != b for n in new for b in base)
    worse_all = all((n < b) == higher_better and n != b for n in new for b in base)
    if max(bspread, nspread) > bound and not (better_all or worse_all):
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bspread and gain > 0:
        return "better", gain
    return "same", gain


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if "--new" in argv:
        i = argv.index("--new")
        base_paths, new_paths = argv[:i], argv[i + 1 :]
    else:
        base_paths, new_paths = argv, []
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, units = load(base_paths)
    new, new_units = load(new_paths)
    units.update(new_units)
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for w in workloads:
        print(f"== {w}")
        b, n = base.get((w, 0), {}), new.get((w, 0), {})
        head = f"{'metric':20} {'unit':6} {'base median [q1, q3]':36} {'spread':>7} {'bound':>6}"
        if new_paths:
            head += f" {'new median [q1, q3]':36} {'spread':>7} {'change':>8}  verdict"
        print(head)
        for name, spec in e2e.items():
            if name not in b:
                continue
            med, q1, q3, spread = summary(b[name])
            row = (
                f"{name:20} {units[name]:6} {f'{med:.5g} [{q1:.5g}, {q3:.5g}]':36}"
                f" {spread:7.2%} {spec['bound']:6.1%}"
            )
            if new_paths and name in n:
                nmed, nq1, nq3, nspread = summary(n[name])
                v, gain = verdict(b[name], n[name], spec["bound"], spec["better"] == "higher")
                row += f" {f'{nmed:.5g} [{nq1:.5g}, {nq3:.5g}]':36} {nspread:7.2%} {gain:+8.2%}  {v}"
            row += f"   (runs: {len(b[name])}{'/' + str(len(n.get(name, []))) if new_paths else ''})"
            print(row)
        for label, side in (("base", base), ("new", new)):
            traced = side.get((w, 1))
            if not traced:
                continue
            print(f"-- {label}: traced runs ({len(next(iter(traced.values())))})")
            plain = side.get((w, 0), {})
            for name in sorted(traced):
                med = statistics.median(traced[name])
                if name in e2e and name in plain:
                    pmed = statistics.median(plain[name])
                    over = (med - pmed) / abs(pmed) if pmed else 0.0
                    print(f"   {name:26} {med:12.5g} {units[name]:6} untraced {pmed:.5g} ({over:+.1%})")
                elif name not in e2e:
                    print(f"   {name:26} {med:12.5g} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
