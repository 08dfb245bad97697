#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result directories as run.py writes them (every *.json
below them is a report) or single report files.  For every workload and
metric the table shows each side's median and quartiles over its runs
(statistics.quantiles, n=4).  End-to-end metrics (untraced runs) get a
verdict against their BENCHMARK.json bound:

  REGRESSION  NEW's median is worse than OLD's by more than the bound
  improved    NEW's median is better by more than the bound
  unresolved  either side's spread (q3 - q1) / median exceeds the bound
  ok          otherwise

Per-layer metrics (traced runs) are listed without a verdict, and so is
the host probe's median time (timed values are scaled by it to reference
host speed; a program change should leave it where it was).  Exit status
1 when any metric regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reports(path):
    files = []
    if os.path.isfile(path):
        files = [path]
    else:
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".json")]
    reports = []
    for name in sorted(files):
        with open(name) as f:
            report = json.load(f)
        if "workload" in report and "metrics" in report:
            reports.append(report)
    return reports


def values(reports, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in reports
            if r["workload"] == workload and bool(r["trace"]) == trace
            and metric in r["metrics"]]


def probe_values(reports, workload):
    return [r["host"]["probe_median_s"] for r in reports
            if r["workload"] == workload and not r["trace"] and "host" in r]


def summary(v):
    """(median, q1, q3) of a sample list; None when empty."""
    if not v:
        return None
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3


def spread(s):
    median, q1, q3 = s
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old, new, metric):
    if old is None or new is None:
        return "missing"
    bound = metric["bound"]
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    if old[0] == 0:
        return "ok"
    change = (new[0] - old[0]) / abs(old[0])
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    return "ok"


def fmt(s):
    if s is None:
        return "%32s" % "-"
    return "%10.4g [%8.4g %8.4g]" % s


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load_reports(argv[1]), load_reports(argv[2])
    regressions = 0
    print("%-14s %-24s %-32s %-32s %s" % ("workload", "metric", "old median [q1 q3]",
                                          "new median [q1 q3]", "verdict"))
    for w in spec["workloads"]:
        for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            for m in metrics:
                o = summary(values(old, w["name"], trace, m["name"]))
                n = summary(values(new, w["name"], trace, m["name"]))
                if o is None and n is None:
                    continue
                v = verdict(o, n, m) if "bound" in m else "-"
                regressions += v == "REGRESSION"
                print("%-14s %-24s %s %s %s" % (w["name"], m["name"], fmt(o), fmt(n), v))
        o = summary(probe_values(old, w["name"]))
        n = summary(probe_values(new, w["name"]))
        if o is not None or n is not None:
            print("%-14s %-24s %s %s -" % (w["name"], "host.probe_median_s", fmt(o), fmt(n)))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
