#!/usr/bin/env python3
"""Builds swc_benchmark and runs the repository benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

prints `workload metric value unit` lines and, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 they are its
per_layer list, taken from a traced run.

All workloads, each in its own process:

    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]

prints every metric each workload measured; --trace 1 adds a traced pass per
workload and reports trace_overhead_pct on op_ms_p50. Exits 1 when any
correctness check failed.

The build goes to build-bench/, result JSONs to build-bench/results/ (or
--results DIR, the input of compare.py) and Chrome traces to
build-bench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
EXE = BUILD / "swc_benchmark"
RUN_TIMEOUT_S = 170


def die(msg):
    sys.stderr.write(f"run.py: {msg}\n")
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no src/CMakeLists.txt under {ROOT}: the benchmark builds the "
            "program from source and needs the whole repository")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "swc_benchmark"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                die(f"build failed (full log: {log_path})")


def run_one(workload, seed, seconds, trace, results):
    """Runs one workload in a fresh process; returns its result object."""
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    out = results / f"{stamp}.json"
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out),
           "--scratch", str(BUILD)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(traces / f"{stamp}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    # Exit 1 means a check failed; the result file still says which.
    if proc.returncode not in (0, 1) or not out.is_file():
        die(f"{workload} exited with {proc.returncode} without a result")
    return json.loads(out.read_text())


def print_metrics(workload, attempted, metrics):
    print(f"{workload:<12} {'n':<40} {attempted} ops")
    for name, m in metrics.items():
        print(f"{workload:<12} {name:<40} {m['value']:.6g} {m['unit']}")


def contract_metrics(spec, result, trace):
    """Selects BENCHMARK.json's metric list from a result object."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None and trace:
            # The workload never calls this layer.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            die(f"{result['workload']} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} differs from BENCHMARK.json "
                f"{m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BUILD / "results")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None and args.workload not in names:
        die(f"unknown workload {args.workload} (one of {', '.join(names)})")
    build()

    if args.workload is not None:
        result = run_one(args.workload, args.seed, seconds, args.trace,
                         args.results)
        metrics = contract_metrics(spec, result, args.trace)
        print_metrics(args.workload, result["attempted"], metrics)
        for err in result["errors"]:
            print(f"{args.workload:<12} FAILED {err}")
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if result["correct"] else 1

    all_correct = True
    layer_names = set()
    for w in names:
        plain = run_one(w, args.seed, seconds, 0, args.results)
        print_metrics(w, plain["attempted"],
                      dict(sorted(plain["metrics"].items())))
        all_correct = all_correct and plain["correct"]
        errors = plain["errors"]
        if args.trace:
            traced = run_one(w, args.seed, seconds, 1, args.results)
            layer_names |= set(traced["metrics"])
            all_correct = all_correct and traced["correct"]
            errors = errors + traced["errors"]
            base = plain["metrics"]["op_ms_p50"]["value"]
            over = traced["metrics"]["op_ms_p50"]["value"] / base - 1.0
            layers = {"trace_overhead_pct": {"value": 100 * over, "unit": "%"}}
            layers.update(sorted((k, v) for k, v in traced["metrics"].items()
                                 if k not in plain["metrics"]))
            print_metrics(w, traced["attempted"], layers)
        for err in errors:
            print(f"{w:<12} FAILED {err}")
    if args.trace:
        unused = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in layer_names]
        if unused:
            print(f"per_layer metrics no workload reports: {', '.join(unused)}")
            all_correct = False
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
