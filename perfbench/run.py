"""pmconn benchmark: end-to-end and per-layer metrics on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload witt-dense --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each pass starts when the previous one
has finished.  ``--trace 0`` times untraced passes and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it is the run record (interpreter, core count, commit, seed, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

# The seed whose outputs are stored under reference/ and compared byte for
# byte; other seeds are checked against the program's own verdicts.
DEFAULT_SEED = 1

# Set-up is timed at least this many times per run; the median is reported.
MIN_SETUPS = 11
# Untraced passes per run at least; with --trace 1, at least one of each kind.
MIN_PASSES = 2
# No pass starts once this much wall time is gone, so a run ends well inside
# three minutes even when a pass is slow.
HARD_LIMIT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("max_entry_bits"):
        return "bits"
    if name in ("linalg.snf_per_homology", "trace.overhead_frac"):
        return "ratio"
    return "count"


def run_record(args, samples):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pmconn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "samples": samples}


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Counts checked results and those that were wrong."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def check(self, results):
        for key, text, verdict in results:
            self.attempted += 1
            if self.reference is not None:
                ok = self.reference.get(key) == text
            else:
                ok = bool(verdict)
            if not ok:
                self.failed += 1
                self.wrong.append(key)


def main(argv=None):
    from workloads import WORKLOADS, OUT_DIR, fresh_import

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # a stray setting must not switch on the thread-pool path
    os.environ.pop("PMCONN_JOBS", None)
    sys.path.insert(0, SRC)
    try:
        cli, = fresh_import("pmconn.cli")
    except ImportError as exc:
        print(f"cannot import pmconn from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"pmconn was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    setup, run_pass = WORKLOADS[args.workload]
    checker = Checker(load_reference(args.workload)
                      if args.seed == DEFAULT_SEED else None)
    if args.trace:
        from tracing import Tracer

    setup(args.seed)  # warm-up: compiles bytecode, not timed
    setups, walls, traced_walls, layer_runs = [], [], [], []
    tracer_kept = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(walls) >= MIN_PASSES and \
            (not args.trace or len(traced_walls) >= 1)
        last = max(walls + traced_walls, default=0.0)
        if enough and (elapsed >= args.seconds
                       or elapsed + last > HARD_LIMIT_S):
            break
        traced = bool(args.trace) and len(traced_walls) < len(walls)
        t0 = time.perf_counter()
        inputs = setup(args.seed)
        setups.append(time.perf_counter() - t0)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = run_pass(inputs)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        checker.check(results)
        if tracer is None:
            walls.append(wall)
        else:
            traced_walls.append(wall)
            layer_runs.append(tracer.metrics())
            tracer_kept = tracer_kept or tracer
    while len(setups) < MIN_SETUPS:
        t0 = time.perf_counter()
        setup(args.seed)
        setups.append(time.perf_counter() - t0)

    if args.trace:
        metrics = {}
        first = layer_runs[0]
        for name in first:
            if per_layer_unit(name) == "s":
                value = statistics.median(r[name] for r in layer_runs)
            else:
                value = first[name]
            metrics[name] = value
        metrics["trace.overhead_frac"] = \
            statistics.median(traced_walls) / statistics.median(walls) - 1
        absent = tracer_kept.absent
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_kb / 1024.0}
        absent = []

    samples = {"passes": len(walls), "traced_passes": len(traced_walls),
               "setups": len(setups)}
    record = run_record(args, samples)
    record["fail_frac"] = checker.failed / checker.attempted
    record["wrong"] = checker.wrong
    record["absent_layers"] = absent
    record["wall_s_samples"] = walls
    record["traced_wall_s_samples"] = traced_walls
    record["setup_s_samples"] = setups
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {name: {"value": value,
                                 "unit": END_TO_END_UNITS.get(
                                     name, per_layer_unit(name))}
                          for name, value in metrics.items()}}
    if tracer_kept is not None:
        record["spans_stored"] = len(tracer_kept.span_name)
        record["spans_dropped"] = tracer_kept.spans_dropped
        # one spans file per workload, so runs at many seeds do not pile up
        tracer_kept.write_spans(os.path.join(
            OUT_DIR, f"{args.workload}.spans.tsv"))
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
