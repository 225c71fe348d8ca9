#!/usr/bin/env python3
"""Compares two sets of gedbench runs.

    python3 bench/gedbench/compare.py BASE_DIR TEST_DIR [--reference OUT]

Each directory holds the stdout of at least 5 runs per workload, one *.jsonl
file per run, e.g.

    python3 bench/gedbench/run.py --workload kb_durable --seed 3 \
        --seconds 10 --trace 0 > base/kb_durable-3.jsonl

For every (workload, metric) the script prints each set's median and
quartiles. It flags an end-to-end metric whose medians differ by more than
the metric's bound in BENCHMARK.json, a run that failed a check, and exact
counts that differ between runs of the same workload and seed. It refuses to
compare runs whose host stamps differ (nproc, build type, CPU model, data-dir
filesystem). Exit status: 0 when nothing is flagged, 1 when something is,
2 when the runs cannot be compared. --reference writes the medians of both
sets together, stamped with the host, as a JSON file.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_RUNS = 5


def load_run(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.startswith("{")]
    if len(lines) < 3 or "stamp" not in lines[0] or "correct" not in lines[-1]:
        raise ValueError(f"{path}: not the output of a finished gedbench run")
    head, summary = lines[0], lines[-1]
    exact = next((line["exact"] for line in lines if "exact" in line), {})
    return {
        "path": path,
        "stamp": head["stamp"],
        "key": (head["workload"], head["trace"]),
        "seed": head["seed"],
        "summary": summary,
        "exact": exact,
    }


def load_set(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            run = load_run(os.path.join(directory, name))
            runs.setdefault(run["key"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(runs, name):
    return [r["summary"]["metrics"][name]["value"] for r in runs
            if name in r["summary"]["metrics"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("test")
    parser.add_argument("--reference", help="write the medians here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, test = load_set(args.base), load_set(args.test)

    all_runs = [r for s in (base, test) for runs in s.values() for r in runs]
    if not all_runs:
        print("no runs found", file=sys.stderr)
        return 2
    stamp = all_runs[0]["stamp"]
    for r in all_runs:
        if r["stamp"] != stamp:
            print(f"refusing: host stamp of {r['path']} is {r['stamp']}, "
                  f"not {stamp}", file=sys.stderr)
            return 2
    for key in sorted(set(base) | set(test)):
        for label, s in (("base", base), ("test", test)):
            if len(s.get(key, [])) < MIN_RUNS:
                print(f"refusing: {label} has {len(s.get(key, []))} runs of "
                      f"{key[0]} (trace {key[1]}), need {MIN_RUNS}",
                      file=sys.stderr)
                return 2

    flagged = []
    for r in all_runs:
        if not r["summary"]["correct"] or r["summary"]["failed"]:
            flagged.append(f"{r['path']}: {r['summary']['failed']} of "
                           f"{r['summary']['attempted']} operations failed")
    exact_by_seed = {}
    for r in all_runs:
        first = exact_by_seed.setdefault((r["key"][0], r["seed"]), r)
        if r["exact"] != first["exact"]:
            flagged.append(f"{r['path']}: exact counts differ from "
                           f"{first['path']}")

    reference = {"stamp": stamp, "medians": {}}
    print(f"{'workload':13s} {'metric':31s} {'unit':6s} "
          f"{'base p25 / p50 / p75':>32s} {'test p25 / p50 / p75':>32s} "
          f"{'change':>8s}  bound")
    for key in sorted(base):
        workload, _ = key
        names = list(base[key][0]["summary"]["metrics"])
        for name in names:
            unit = base[key][0]["summary"]["metrics"][name]["unit"]
            b = metric_values(base[key], name)
            t = metric_values(test[key], name)
            bq, tq = quartiles(b), quartiles(t)
            change = (tq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            bound = bounds.get(name, {}).get("bound")
            mark = ""
            if bound is not None and abs(change) > bound:
                worse = (change > 0) == (bounds[name]["better"] == "lower")
                mark = "  WORSE" if worse else "  BETTER"
                flagged.append(f"{workload} {name}: medians differ by "
                               f"{change:+.1%}, bound {bound:.0%}")
            fmt = lambda q: f"{q[0]:10.4g} {q[1]:10.4g} {q[2]:10.4g}"
            print(f"{workload:13s} {name:31s} {unit:6s} {fmt(bq):>32s} "
                  f"{fmt(tq):>32s} {change:+8.1%}  "
                  f"{'' if bound is None else f'{bound:.0%}'}{mark}")
            reference["medians"].setdefault(workload, {})[name] = {
                "value": statistics.median(b + t), "unit": unit}

    if args.reference:
        with open(args.reference, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
    for line in flagged:
        print(f"FLAG {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
