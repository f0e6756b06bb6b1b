"""The example scripts print exactly what they printed when recorded.

Each script runs with its default arguments, and the SHA-256 of its standard
output is compared with the value recorded for it.  A change that reorders
generators or reformats a line shows up here, not only on a manual run.
"""

import argparse
import hashlib
import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")

STDOUT_SHA256 = {
    "cohomology_sweep.py":
        "5e68204c96ab9f10a71346577eb8f3dc4bffbb2b743d2830d9a44d55c191d199",
    "torus_example.py":
        "ca25a7b741b4f2f52b86fa306f1215204f34db6778bb4f0f59a0e067f5776bcf",
    "witt_demo.py":
        "dc212521b133496f292f163cf08170f4751424e77d57bc9ad9aa27dae47fad70",
}


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_script_output_is_stable(script, capsys, monkeypatch):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr("sys.argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        STDOUT_SHA256[script], f"{script} printed something else"


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256) + ["bench_ab.py"])
def test_script_takes_help(script, capsys, monkeypatch):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr("sys.argv", [path, "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(path, run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def _runs(workload, parent, change, failed=0):
    """Synthetic bench_ab run lines: pair i has the values parent[i] and
    change[i] of one metric, wall_s."""
    raw = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            raw.append({"pair": pair, "side": side, "workload": workload,
                        "seed": 1, "result": {
                            "correct": True, "failed": failed,
                            "metrics": {"wall_s": {"value": value}}}})
    return raw


def test_bench_ab_summarize_marks_bound_spread_and_wins():
    summarize = runpy.run_path(os.path.join(SCRIPTS, "bench_ab.py"))[
        "summarize"]
    raw = (
        # a tight parent and a change 20% slower: over the bound, resolved
        _runs("slower", [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2])
        # a parent spread of about 40% and overlapping runs: unresolved
        + _runs("noisy", [1.0, 1.4, 0.8, 1.2], [1.1, 0.9, 1.3, 1.0])
        # the same spread, but every change run below every parent run
        + _runs("faster", [1.0, 1.4, 0.8, 1.2], [0.5, 0.6, 0.55, 0.7],
                failed=1))
    got = {e["workload"]: e for e in summarize(
        raw, {"wall_s": {"better": "lower", "bound": 0.1}})}
    slower, noisy, faster = got["slower"], got["noisy"], got["faster"]
    assert (slower["within_bound"], slower["unresolved"],
            slower["change_wins"], slower["pairs"]) == (False, False, 0, 4)
    assert slower["median_change_frac"] == 0.2
    assert (noisy["within_bound"], noisy["unresolved"]) == (True, True)
    assert (faster["within_bound"], faster["unresolved"],
            faster["change_wins"]) == (True, False, 4)
    assert faster["parent"]["median"] == 1.1
    assert (faster["failed_ops"], faster["all_correct"]) == (8, True)


def test_bench_ab_reports_a_failing_run(tmp_path, capsys):
    # a checkout whose benchmark writes to stderr and exits 3
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('setting up', file=sys.stderr)\n"
        "print('workload broke', file=sys.stderr)\n"
        "sys.exit(3)\n")
    run_pairs = runpy.run_path(os.path.join(SCRIPTS, "bench_ab.py"))[
        "run_pairs"]
    args = argparse.Namespace(workloads=["operator-sparse"], seeds=[7],
                              pairs=2)
    sides = {"parent": str(tmp_path), "change": str(tmp_path)}
    with pytest.raises(SystemExit) as exit_info:
        run_pairs(args, sides, 0.1, ["wall_s"])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err.splitlines()
    # pair 0 runs the parent first
    assert err == ["parent run failed: workload operator-sparse seed 7 pair "
                   "0, exit code 3; last lines of its stderr:",
                   "setting up", "workload broke"]
