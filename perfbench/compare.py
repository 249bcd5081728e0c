#!/usr/bin/env python3
"""Compare two result sets of perfbench/run.py, one row per (workload, metric).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines run.py --results appends, one per run.  Run the
parent and the change alternately on the same seeds: a parent run pairs
with the change run of the same workload, trace setting and seed (runs
that repeat a seed pair in file order).  Files that do not hold the same
runs are refused.  A verdict or claim needs at least ten pairs.

Each row shows both medians with their quartiles, the change/parent ratio
with its base, the pairs the change won, and a verdict: better, worse,
unchanged, or unresolved when the run-to-run spread is wider than the
metric's bound (bounds and directions come from BENCHMARK.json).  The last
column applies the claim rule: the change wins at least 9 in 10 pairs and
the medians differ by more than the parent's interquartile distance.
"""

import argparse
import json
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path):
    """{(workload, trace): {seed: [metrics of each run, in file order]}}."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        side = runs.setdefault((rec["workload"], rec["trace"]), {})
        side.setdefault(rec["seed"], []).append(rec["metrics"])
    return runs


def pair_runs(parent, change):
    """{(workload, metric): (parent values, change values)}, pairing runs
    by (workload, trace, seed) and, within a seed, by file order.  Raises
    ValueError when the two sets do not hold the same runs.  A pair where
    either side is n/a for the workload's core is left out."""
    if set(parent) != set(change):
        raise ValueError("the files cover different (workload, trace) sets: "
                         f"{sorted(set(parent) ^ set(change))}")
    paired = {}
    for key in sorted(parent):
        p_seeds = {s: len(r) for s, r in parent[key].items()}
        c_seeds = {s: len(r) for s, r in change[key].items()}
        if p_seeds != c_seeds:
            raise ValueError(f"{key[0]} trace {key[1]}: runs per seed differ,"
                             f" parent {p_seeds} vs change {c_seeds}")
        for seed in sorted(p_seeds):
            for pm, cm in zip(parent[key][seed], change[key][seed]):
                for name in sorted(set(pm) & set(cm)):
                    pv, cv = pm[name]["value"], cm[name]["value"]
                    if harness.NA_VALUE in (pv, cv):
                        continue
                    p, c = paired.setdefault((key[0], name), ([], []))
                    p.append(pv)
                    c.append(cv)
    return paired


def rows(paired, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for (workload, name), (p, c) in sorted(paired.items()):
        m = metrics.get(name)
        if m is None:
            continue
        pq, cq = harness.quartiles(p), harness.quartiles(c)
        ratio = harness.Ratio(cq[1], pq[1])
        met, wins, pairs = harness.claim(p, c, m["better"])
        yield {
            "workload": workload, "metric": name, "unit": m["unit"],
            "parent": pq, "change": cq, "ratio": ratio,
            "wins": wins, "pairs": pairs, "bound": m.get("bound"),
            "verdict": harness.verdict(p, c, m["better"], m.get("bound")),
            "claim": met,
        }


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    try:
        paired = pair_runs(load_runs(args.parent), load_runs(args.change))
    except ValueError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':34s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'change/parent (base)':>28s} "
          f"{'wins':>7s} {'bound':>6s} {'verdict':10s} claim")
    for r in rows(paired, spec):
        ratio = r["ratio"]
        ratio_s = (f"{ratio.value:.4f} (base {ratio.base:.4g} {r['unit']})"
                   if ratio.base else f"n/a (base 0 {r['unit']})")
        bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
        print(f"{r['workload']:16s} {r['metric']:34s} {fmt(r['parent']):>30s} "
              f"{fmt(r['change']):>30s} {ratio_s:>28s} "
              f"{r['wins']:>3d}/{r['pairs']:<3d} {bound:>6s} "
              f"{r['verdict']:10s} {'met' if r['claim'] else 'not met'}")


if __name__ == "__main__":
    sys.exit(main())
