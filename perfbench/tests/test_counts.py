"""Tests of the benchmark's tracing layer.

Run from the repository root:  python3 -m pytest -q perfbench/tests

Two traced passes at one seed must give identical counts, so that a later
change may cite them as counts.  Every layer must be seen on the workload it
is mapped to, and a renamed or removed function must leave its metrics
absent without failing the pass.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from tracing import TARGETS, Tracer, is_exact_count  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1

# Layers whose calls the workload must reach (README: layer map).
MAPPED = {
    "witt-dense": ("laurent.mul.calls", "laurent.pow.calls",
                   "witt.ghost.calls", "witt.witt_compare.calls",
                   "cli.case.count"),
    "operator-sparse": ("laurent.mul.calls", "dops.op_mul.calls",
                        "dops.op_apply.calls", "arith.pd_product_coeff.calls",
                        "connection.is_quasi_nilpotent.calls",
                        "frobenius.level_raise.calls", "cli.case.count"),
    "cohomology-coupled": ("linalg.snf_int.calls",
                           "linalg.homology_divisors.calls",
                           "cohomology.compute_H.calls"),
    "cohomology-split": ("linalg.snf_int.calls",
                         "linalg.homology_divisors.calls",
                         "cohomology.compare_theorem25.calls"),
}


def traced_pass(workload, targets=TARGETS):
    setup, run_pass = WORKLOADS[workload]
    inputs = setup(SEED)
    with Tracer(targets) as tracer:
        results = run_pass(inputs)
    return tracer, results


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, results = traced_pass(workload)
    second, _ = traced_pass(workload)
    counts = {k: v for k, v in first.metrics().items() if is_exact_count(k)}
    again = {k: v for k, v in second.metrics().items() if is_exact_count(k)}
    assert counts == again
    assert all(verdict for _, _, verdict in results)
    for metric in MAPPED[workload]:
        assert counts[metric] > 0, metric


def test_wrappers_are_removed_after_the_pass():
    from pmconn import cli, cohomology, laurent, linalg
    originals = (laurent.LaurentPoly.__mul__, linalg.snf_int,
                 cohomology.snf_int, cli.level_raise, dict(cli.SUITES))
    with Tracer():
        assert laurent.LaurentPoly.__mul__ is not originals[0]
        assert cohomology.snf_int is not originals[2]
    assert (laurent.LaurentPoly.__mul__, linalg.snf_int, cohomology.snf_int,
            cli.level_raise, dict(cli.SUITES)) == originals


def test_missing_function_is_absent_not_fatal():
    targets = TARGETS + (
        ("linalg.snf_local", "pmconn.linalg", "snf_local"),
        ("laurent.kronecker", "pmconn.laurent", "LaurentPoly.kronecker_mul"),
        ("gone.fn", "pmconn.gone", "fn"),
    )
    tracer, results = traced_pass("cohomology-split", targets)
    assert tracer.absent == ["linalg.snf_local", "laurent.kronecker",
                             "gone.fn"]
    metrics = tracer.metrics()
    assert not any(k.startswith(("linalg.snf_local", "laurent.kronecker",
                                 "gone.")) for k in metrics)
    assert metrics["linalg.snf_int.calls"] > 0
    assert all(verdict for _, _, verdict in results)
