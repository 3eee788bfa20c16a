#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent (A) and a change (B).

  python3 benchmark/compare.py A/ B/

Each directory holds one file per run: the stdout of benchmark/run.py.
Files are paired in name order (A's i-th with B's i-th), so name them
in the order the pairs ran, alternating which side went first.

For every (metric, workload) it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict:

  gain        at least 10 pairs, B better in >= 9/10 of them, and the
              median gap exceeds A's interquartile range
  within      B's median is not worse than A's by more than the bound
  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) exceeds the bound and not
              every run of B beats every run of A

Quartiles use the inclusive method, which stays inside the observed
range on the few runs a quick check makes.  setup_s is compared by its
medians only: it is a few milliseconds of process start-up, and its
spread is host noise.  Bounds and directions come from BENCHMARK.json;
per-layer metrics have no bound and get no verdict.  Exit status 1
when any pair of (metric, workload) regressed or is unresolved.
"""
import json
import os
import statistics
import sys

BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCHMARK.json")
MIN_PAIRS_FOR_GAIN = 10
MEDIAN_ONLY = {"setup_s"}


def load_runs(directory):
    """[{(workload, metric): value}] per run file, in name order."""
    runs = []
    for name in sorted(os.listdir(directory)):
        values = {}
        with open(os.path.join(directory, name)) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 4 and not line.startswith("{"):
                    try:
                        values[(parts[0], parts[1])] = float(parts[2])
                    except ValueError:
                        pass
        if values:
            runs.append(values)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better_layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    a_runs, b_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    pairs = min(len(a_runs), len(b_runs))
    if pairs == 0:
        print("no runs found", file=sys.stderr)
        return 2
    keys = sorted(set().union(*a_runs, *b_runs), key=lambda k: (k[0], k[1]))
    bad = 0
    print(f"{pairs} pairs")
    print(f"{'workload':12} {'metric':32} {'A q1/med/q3':>30} {'B q1/med/q3':>30}"
          f" {'wins':>6} verdict")
    for wl, metric in keys:
        a = [r[(wl, metric)] for r in a_runs if (wl, metric) in r]
        b = [r[(wl, metric)] for r in b_runs if (wl, metric) in r]
        if not a or not b:
            continue
        better, bound = bounds.get(metric, (better_layer.get(metric), None))
        sign = -1 if better == "lower" else 1
        n = min(len(a), len(b))
        wins = sum(1 for x, y in zip(a[:n], b[:n]) if sign * (y - x) > 0) / n
        qa, qb = quartiles(a), quartiles(b)
        verdict = "-"
        if better is not None:
            gap = sign * (qb[1] - qa[1])
            if n >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 and gap > qa[2] - qa[0]:
                verdict = "gain"
            elif bound is not None:
                spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
                worse = -gap / qa[1]
                all_better = min(sign * y for y in b) > max(sign * x for x in a)
                if spread > bound and not all_better and metric not in MEDIAN_ONLY:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "within"
                bad += verdict in ("unresolved", "regressed")
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{wl:12} {metric:32} {fmt(qa):>30} {fmt(qb):>30} {wins:6.2f} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
