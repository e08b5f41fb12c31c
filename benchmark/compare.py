#!/usr/bin/env python3
"""Compares benchmark results of two commits.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC]

Each directory holds result JSONs written by run.py (--results DIR), any
number of runs per workload. For every workload and metric the report gives
each side's median and quartiles and a verdict:

  end_to_end metrics (BENCHMARK.json bounds):
    ok           the change's median is not worse than the parent's by more
                 than the bound
    REGRESSION   it is worse by more than the bound
    unresolved   a side's run-to-run spread (IQR / median) exceeds the bound,
                 unless every change run beats every parent run ("better,
                 every run")
  sim.* metrics (simulated outputs): "same" only when bit-identical on every
    run of both sides, else "MODEL CHANGED"
  other per-layer metrics: reported without a verdict

A metric present on only one side is reported as absent, not compared.
--claim W:M adds the win fraction over pairs of runs (parent run i against
change run i, in the order the runs were made); a claimed gain needs at
least 0.9 and a median difference larger than the parent's IQR.

Exit status: 1 when any REGRESSION or MODEL CHANGED is reported, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, traced): [result, ...]} in the order the runs were made."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        try:
            r = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"skipping {path}: {e}", file=sys.stderr)
            continue
        if not isinstance(r, dict) or "workload" not in r or "metrics" not in r:
            continue
        # run.py names results <workload>-seed<N>-trace<T>-<time_ns>.json.
        order = path.stem.rsplit("-", 1)[-1]
        runs[(r["workload"], bool(r.get("trace")))].append(
            (int(order) if order.isdigit() else 0, path.name, r))
    return {k: [r for _, _, r in sorted(v, key=lambda t: t[:2])]
            for k, v in runs.items()}


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent_med, change_med, better):
    if parent_med == 0:
        return 0.0 if change_med == parent_med else float("inf")
    delta = (change_med - parent_med) / abs(parent_med)
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(p, c, metric):
    name, better = metric["name"], metric.get("better", "lower")
    if name.startswith("sim."):
        return "same" if len(set(p) | set(c)) == 1 else "MODEL CHANGED"
    bound = metric.get("bound")
    if bound is None:
        return ""
    if all(beats(x, y, better) for x in c for y in p):
        return "better, every run"
    if max(spread(p), spread(c)) > bound:
        return "unresolved"
    return "REGRESSION" if worse_by(statistics.median(p),
                                    statistics.median(c), better) > bound else "ok"


def claim_report(p, c, better):
    pairs = list(zip(p, c))
    wins = sum(beats(y, x, better) for x, y in pairs)
    frac = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = summary(p)
    diff = abs(statistics.median(c) - pmed)
    holds = len(pairs) > 0 and frac >= 0.9 and diff > pq3 - pq1
    return (f"claim: change wins {wins}/{len(pairs)} pairs ({frac:.2f}); "
            f"|median diff| {diff:.6g} vs parent IQR {pq3 - pq1:.6g}: "
            f"{'holds' if holds else 'NOT MET'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC to test as a claimed gain")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    claims = {tuple(c.split(":", 1)) for c in args.claim if ":" in c}
    bad = False
    for key in sorted(set(parent) | set(change)):
        workload, traced = key
        p_runs, c_runs = parent.get(key, []), change.get(key, [])
        print(f"\n== {workload} ({'traced' if traced else 'untraced'}): "
              f"{len(p_runs)} parent runs, {len(c_runs)} change runs")
        for side, rs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            wrong = sum(not r["correct"] for r in rs)
            print(f"  {side}: {fail}/{att} ops failed, {wrong} runs incorrect")
        names = sorted({n for r in p_runs + c_runs for n in r["metrics"]})
        for name in names:
            p = [r["metrics"][name]["value"] for r in p_runs
                 if name in r["metrics"] and r["metrics"][name]["value"] is not None]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"] and r["metrics"][name]["value"] is not None]
            if not p or not c:
                print(f"  {name:<40} absent on {'parent' if not p else 'change'}")
                continue
            metric = known.get(name, {"name": name})
            v = verdict(p, c, metric)
            bad = bad or v in ("REGRESSION", "MODEL CHANGED")
            pq = summary(p)
            cq = summary(c)
            print(f"  {name:<40} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {v}")
            if (workload, name) in claims:
                print("    " + claim_report(p, c, metric.get("better", "lower")))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
