#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

The first run configures and builds `perfbench` (the library sources plus
the driver in this directory) under `.bench_build/` (or
`$CARGO_TARGET_DIR`); later runs only rebuild what changed.  The driver
runs with RRSN_THREADS set to the number of available cores.

Output on stdout: the full report (provenance, gate failures, output
digests, every metric with its quartiles) as one JSON line, then the
result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json for
`--trace 0` and its per-layer metrics for `--trace 1`.  The report is also
saved under `.bench_results/<workload>/trace<t>/seed<n>.json` for
`compare.py`.  Exit status is 0 when a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow", "certify_local", "certify_dense", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"), "perfbench")


def build():
    """Configures once, then builds the perfbench target; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(bdir, "perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_steal_jiffies():
    """Steal time summed over this machine's CPUs (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def result_line(report, spec):
    """The driver's result object, from a full report."""
    scope = "per_layer" if report["trace"] else "end_to_end"
    metrics = {}
    for m in spec[scope]:
        got = report["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise RuntimeError("unit of %s is %s, BENCHMARK.json says %s"
                               % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": report["failed"] == 0 and report["attempted"] >= 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run(args):
    binary = build()
    env = dict(os.environ, RRSN_THREADS=str(nproc()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    steal0, t0 = cpu_steal_jiffies(), time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    steal1, wall = cpu_steal_jiffies(), time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["provenance"]["git_commit"] = git_commit()
    report["provenance"]["source_sha256"] = source_digest()
    report["provenance"]["rrsn_threads_env"] = env["RRSN_THREADS"]
    if steal0 is not None and steal1 is not None:
        # Share of the host's CPU time taken by other guests during the
        # run; a busy host slows every timing.
        hz = os.sysconf("SC_CLK_TCK")
        report["provenance"]["cpu_steal_share"] = (
            (steal1 - steal0) / (hz * wall * (os.cpu_count() or 1)))
    line = result_line(report, benchmark_spec())

    out_dir = os.path.join(args.results, args.workload, "trace%d" % args.trace)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "seed%d.json" % args.seed), "w") as f:
        json.dump(report, f, sort_keys=True)
        f.write("\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line, sort_keys=True), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--short", action="store_true",
                   help="small corpora (self-tests)")
    p.add_argument("--corrupt", choices=("verdict", "reply", "summary"),
                   help="corrupt one output before the gate (self-tests)")
    p.add_argument("--results", default=os.path.join(ROOT, ".bench_results"),
                   help="where reports are saved")
    args = p.parse_args()
    start = time.monotonic()
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("failed after %.1f s: %s" % (time.monotonic() - start, e))
        sys.exit(1)


if __name__ == "__main__":
    main()
