#!/usr/bin/env python3
"""Noise-aware comparison of benchmark result sets.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl

Inputs are files written by `run.py --record`. The first form pairs the
i-th parent run of each workload with the i-th change run (run them
alternately, parent first in one pair and change first in the next) and
prints, per workload and metric, each side's median and quartiles and a
verdict:

  improved    the change wins at least nine tenths of the pairs (ties
              count for neither side) and the medians differ, in the
              metric's better direction, by more than the parent's
              interquartile range;
  worse       the same rule with the sides swapped, or the change's median
              is worse than the parent's by more than the metric's bound
              in BENCHMARK.json while the parent's own spread is within it;
  unresolved  anything else.

Runs from an RTM host or under an OTM_* override carry marks in their host
fingerprint; sets whose marks differ are never compared.

The second form prints, per workload and metric, the median and the spread
(interquartile range over the median) of one set, against the metric's
bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path):
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except ValueError:
                    sys.exit(f"{path}:{n}: not a JSON record")
    if not records:
        sys.exit(f"{path}: no records")
    return records


def marks_of(records, path):
    marks = {tuple(r["host"].get("marks", [])) for r in records}
    if len(marks) != 1:
        sys.exit(f"{path}: runs with different host marks {sorted(marks)}; "
                 "refusing to mix them")
    return marks.pop()


def series(records):
    """{(trace, workload, metric): [values in run order]}."""
    out = defaultdict(list)
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out[(r["trace"], r["workload"], name)].append(m["value"])
    return out


def workloads(spec, *record_sets):
    """The workloads of BENCHMARK.json, then any other the records hold."""
    names = [w["name"] for w in spec["workloads"]]
    names += [r["workload"] for rs in record_sets for r in rs]
    return list(dict.fromkeys(names))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    iqr = p3 - p1
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", wins, len(pairs)
    if losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse", wins, len(pairs)
    if bound is not None and pm and iqr <= bound * abs(pm) and \
            -gain > bound * abs(pm):
        return "worse", wins, len(pairs)
    return "unresolved", wins, len(pairs)


def fmt(x):
    return f"{x:.4g}"


def compare(spec, parent_path, change_path):
    parent, change = load_records(parent_path), load_records(change_path)
    pm, cm = marks_of(parent, parent_path), marks_of(change, change_path)
    if pm != cm:
        sys.exit(f"host marks differ ({list(pm)} vs {list(cm)}); "
                 "these results are not comparable")
    ps, cs = series(parent), series(change)
    print(f"{'workload':<14} {'metric':<34} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>7}  verdict")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in workloads(spec, parent, change):
            for m in metrics:
                key = (trace, w, m["name"])
                p, c = ps.get(key), cs.get(key)
                if not p or not c:
                    continue
                v, wins, n = verdict(p, c, m["better"], m.get("bound"))
                pq, cq = quartiles(p), quartiles(c)
                delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
                note = "" if n >= 10 else f" (only {n} pairs)"
                print(f"{w:<14} {m['name']:<34} "
                      f"{fmt(pq[1]) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[2]) + ']':>30} "
                      f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':>30} "
                      f"{delta:>+8.1%} {wins:>3}/{n:<3}  {v}{note}")


def spread(spec, path):
    records = load_records(path)
    marks_of(records, path)
    s = series(records)
    worst = 0
    print(f"{'workload':<14} {'metric':<18} {'n':>3} {'median':>12} "
          f"{'iqr/median':>11} {'bound':>6}  status")
    for w in workloads(spec, records):
        for m in spec["end_to_end"]:
            values = s.get((0, w, m["name"]))
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            status = ("steady" if rel < bound / 3 else
                      "within bound" if rel <= bound else "TOO WIDE")
            if rel > bound:
                worst = 1
            print(f"{w:<14} {m['name']:<18} {len(values):>3} "
                  f"{fmt(med):>12} {rel:>11.3f} {bound:>6}  {status}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--spread", action="store_true",
                    help="report the spread of one result set")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    if args.spread:
        if len(args.files) != 1:
            ap.error("--spread takes one result file")
        return spread(spec, args.files[0])
    if len(args.files) != 2:
        ap.error("give a parent and a change result file")
    compare(spec, *args.files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
