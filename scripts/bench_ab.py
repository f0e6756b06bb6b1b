#!/usr/bin/env python3
"""A/B runs of the benchmark in two checkouts, written to BENCH_<N>.json.

Usage (from the repository root):

    python3 scripts/bench_ab.py --parent HEAD~1 --number N \\
        --workloads witt-dense operator-sparse --seeds 1 3 --pairs 10

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` started as its own process in a checkout, one run at a time,
with ``T`` and the end-to-end metrics read from ``BENCHMARK.json``.  The
parent side is the commit ``--parent``, exported with ``git archive`` into
a temporary directory; the change side is a copy of this working tree
without ``.git`` and ``__pycache__``.  So neither side starts with compiled
bytecode: where ``PYTHONDONTWRITEBYTECODE`` is set, a stale cache in the
working tree would otherwise spare the change side part of the compiling
that ``setup_s`` times.  Within a workload and seed, even pairs run the parent first and odd pairs the change
first.  The file keeps every run line under ``raw`` and, per workload, seed
and end-to-end metric, the median and quartiles of each side, the pairs the
change wins (in the direction ``BENCHMARK.json`` calls better), whether all
runs were correct and how many operations failed.  It also records each
side's ``src_lines``, the ``wc -l`` total of its ``src/pmconn/*.py``.  Each
median is printed beside the previous BENCH file's.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import re
import statistics
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns its run record and result objects."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def git_commit(rev):
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Extract the files of commit rev into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def src_lines(checkout):
    """The line count of checkout's src/pmconn/*.py, as wc -l totals it."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "pmconn", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def side_stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "min": round(min(values), 4), "max": round(max(values), 4),
            "runs": len(values)}


def summarize(raw, better):
    """One entry per (workload, seed, metric) over the paired runs; better
    maps each metric to "lower" or "higher"."""
    keys = sorted({(r["workload"], r["seed"]) for r in raw})
    out = []
    for workload, seed in keys:
        runs = [r for r in raw if (r["workload"], r["seed"]) == (workload,
                                                                    seed)]
        pairs = sorted({r["pair"] for r in runs})
        by = {(r["pair"], r["side"]): r["result"] for r in runs}
        correct = all(r["result"]["correct"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        for metric, direction in better.items():
            val = {k: res["metrics"][metric]["value"]
                   for k, res in by.items()}
            par = [val[i, "parent"] for i in pairs]
            chg = [val[i, "change"] for i in pairs]
            ps, cs = side_stats(par), side_stats(chg)
            out.append({
                "workload": workload, "seed": seed, "metric": metric,
                "pairs": len(pairs),
                "change_wins": sum(c < p if direction == "lower" else c > p
                                   for p, c in zip(par, chg)),
                "parent": ps, "change": cs,
                "median_change_frac": round(
                    cs["median"] / ps["median"] - 1, 4),
                "gap_exceeds_parent_iqr":
                    abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
                "all_correct": correct, "failed_ops": failed})
    return out


def previous_bench(number):
    """The BENCH file with the largest number below number, or None."""
    found = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) < number:
            found.append((int(m.group(1)), path))
    return max(found)[1] if found else None


def print_medians(summary, prev_path):
    prev = {}
    if prev_path:
        with open(prev_path) as fh:
            for e in json.load(fh).get("summary", []):
                prev[e["workload"], e["seed"], e["metric"]] = \
                    e["change"]["median"]
    name = os.path.basename(prev_path) if prev_path else "no previous file"
    print(f"{'workload':20} {'seed':>4} {'metric':12} {'parent':>9} "
          f"{'change':>9} {'wins':>6}  previous ({name})")
    for e in summary:
        old = prev.get((e["workload"], e["seed"], e["metric"]))
        print(f"{e['workload']:20} {e['seed']:>4} {e['metric']:12} "
              f"{e['parent']['median']:>9} {e['change']['median']:>9} "
              f"{e['change_wins']:>3}/{e['pairs']:<2}  "
              f"{'-' if old is None else old}")


def write_bench(doc, fh):
    """doc as indented JSON, with each run under "raw" on one line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "raw"},
                      indent=1)
    runs = ",\n".join("  " + json.dumps(r) for r in doc["raw"])
    fh.write(head[:-2] + ',\n "raw": [\n' + runs + "\n ]\n}\n")


def run_pairs(args, sides, seconds, metrics):
    """Every run of every pair, in the alternating order."""
    raw = []
    for workload in args.workloads:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    record, result = run_once(sides[side], workload, seed,
                                              seconds)
                    raw.append({"pair": pair, "side": side,
                                "workload": workload, "seed": seed,
                                "trace": 0, "record": record,
                                "result": result})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          + " ".join(f"{m}={result['metrics'][m]['value']:.4f}"
                                     for m in metrics), file=sys.stderr)
    return raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the parent commit, e.g. HEAD~1")
    ap.add_argument("--number", type=int, required=True,
                    help="N of the BENCH_N.json file to write")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--description", default="")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {side: tempfile.mkdtemp(prefix=f"bench-ab-{side}-")
             for side in ("parent", "change")}
    try:
        export(args.parent, sides["parent"])
        shutil.copytree(ROOT, sides["change"], dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
        lines = {side: src_lines(d) for side, d in sides.items()}
        raw = run_pairs(args, sides, seconds, list(better))
    finally:
        for d in sides.values():
            shutil.rmtree(d)
    summary = summarize(raw, better)
    sha = {side: next(r["record"]["src_sha256"] for r in raw
                      if r["side"] == side) for side in ("parent", "change")}
    doc = {
        "description": args.description,
        "harness": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "parent_commit": git_commit(args.parent),
        "change_commit": git_commit("HEAD"),
        "src_sha256": sha,
        "src_lines": lines,
        "interpreter": f"{platform.python_implementation()} "
                       f"{platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.machine(),
        "checkouts": "the parent ran from a git archive export of "
                     "parent_commit, the change from a copy of the working "
                     "tree at change_commit without .git and __pycache__; "
                     "src_sha256 identifies each side's src/pmconn",
        "run_order": f"one run at a time: workloads {args.workloads}, each "
                     f"at seeds {args.seeds}, {args.pairs} pairs each; even "
                     f"pairs ran the parent first, odd pairs the change "
                     f"first",
        "statistics": "median and quartiles over the runs' end-to-end "
                      "values, quartiles by statistics.quantiles(n=4, "
                      "method='inclusive'); change_wins counts pairs where "
                      "the change's value is lower",
        "summary": summary,
        "raw": raw,
    }
    out = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        write_bench(doc, fh)
    print_medians(summary, previous_bench(args.number))
    print(f"src/pmconn lines: parent {lines['parent']}, "
          f"change {lines['change']}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
