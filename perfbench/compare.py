#!/usr/bin/env python3
"""Compare two sets of benchmark runs (the repository's bench_diff).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds runs saved with `perfbench/run.py --save FILE`, typically
ten seeds per workload. For every workload and end-to-end metric it prints
both sides' median and quartiles, the change of the new median relative to
the base median, the share of seed-matched pairs the new side wins (ties
count for neither) and a verdict against the metric's bound in
BENCHMARK.json:

  improved      new wins at least 9 in 10 pairs and the medians differ by
                more than the base runs' own quartile spread
  regressed     new median worse than the base median by more than bound
  unresolved    the base runs spread wider than the bound, so a change
                within it cannot be told from noise (unless every new run
                beats every base run)
  within bound  otherwise

Per-layer metrics (runs saved with --trace 1) are listed side by side as
medians, with each ratio stated against its base. Exits 1 if any
end-to-end verdict is "regressed".
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {seed: {metric: value}}} from a --save file."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = {
                name: m["value"]
                for name, m in rec["result"]["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, lower_is_better, bound, pairs):
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (nmed - bmed) / bmed if bmed else 0.0
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= 0.9 and abs(nmed - bmed) > b3 - b1:
        return "improved", share
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if bmed and (b3 - b1) / bmed > bound and not all_better:
        return "unresolved", share
    if worse > bound:
        return "regressed", share
    return "within bound", share


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False

    print(f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'change':>8s} {'wins':>5s}  "
          "verdict")
    for w in spec["workloads"]:
        key = (w["name"], 0)
        if key not in base or key not in new:
            print(f"{w['name']:16s} (no --trace 0 runs on both sides)")
            continue
        seeds = sorted(set(base[key]) & set(new[key]))
        for m in spec["end_to_end"]:
            name = m["name"]
            bvals = [r[name] for r in base[key].values()]
            nvals = [r[name] for r in new[key].values()]
            pairs = [(base[key][s][name], new[key][s][name]) for s in seeds]
            result, share = verdict(
                bvals, nvals, m["better"] == "lower", m["bound"], pairs)
            regressed |= result == "regressed"
            b1, bmed, b3 = quartiles(bvals)
            n1, nmed, n3 = quartiles(nvals)
            change = (nmed - bmed) / bmed if bmed else 0.0
            print(f"{w['name']:16s} {name:18s} "
                  f"{f'{bmed:.4g} [{b1:.4g}, {b3:.4g}]':>30s} "
                  f"{f'{nmed:.4g} [{n1:.4g}, {n3:.4g}]':>30s} "
                  f"{change:+8.1%} {share:5.0%}  {result}"
                  f" (n={len(bvals)}/{len(nvals)}, pairs={len(pairs)},"
                  f" bound {m['bound']:.0%} {m['unit']})")

    print()
    print(f"{'workload':16s} {'per-layer metric':34s} {'base':>12s} "
          f"{'new':>12s}  ratio (new / base median)")
    for w in spec["workloads"]:
        key = (w["name"], 1)
        if key not in base or key not in new:
            print(f"{w['name']:16s} (no --trace 1 runs on both sides)")
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            bmed = statistics.median(r[name] for r in base[key].values())
            nmed = statistics.median(r[name] for r in new[key].values())
            ratio = (f"{nmed / bmed:.3f}x of base {bmed:.4g} {m['unit']}"
                     if bmed else f"base is 0 {m['unit']}")
            print(f"{w['name']:16s} {name:34s} {bmed:12.4g} {nmed:12.4g}  "
                  f"{ratio}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
