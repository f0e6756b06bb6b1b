"""Each check suite must be able to fail: a seeded defect, monkeypatched into
the code a suite exercises, must turn that suite's own report into a
failure.  A suite that still passes with its defect in place checks nothing
about the code the defect breaks.
"""

import inspect
import json

from pmconn import cli, cohomology, frobenius, witt
from pmconn.connection import Connection
from pmconn.laurent import LaurentPoly


def _failures(capsys, suite):
    code = cli.main(["check", suite, "--seed", "11", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == (1 if rep["failures"] else 0)
    return rep["failures"]


def _wrong_sign_descent():
    """descend_rank1 with its normalising gauge u = +c/e_i."""
    src = inspect.getsource(frobenius.descend_rank1)
    assert src.count("u = (-c * ") == 1
    ns = dict(vars(frobenius))
    exec(src.replace("u = (-c * ", "u = (c * "), ns)
    return ns["descend_rank1"]


def test_descent_fails_with_a_wrong_sign_gauge(capsys, monkeypatch):
    assert _failures(capsys, "descent") == []
    monkeypatch.setattr(cli, "descend_rank1", _wrong_sign_descent())
    assert _failures(capsys, "descent")


def test_level_raise_fails_with_a_raise_that_drops_the_lift(capsys,
                                                            monkeypatch):
    def raise_without_lift(C, F):
        return Connection(C.ctx, C.d, C.m - 1, C.rank, C.theta)
    assert _failures(capsys, "level-raise") == []
    monkeypatch.setattr(cli, "level_raise", raise_without_lift)
    monkeypatch.setattr(frobenius, "level_raise", raise_without_lift)
    assert _failures(capsys, "level-raise")


def test_witt_compare_fails_with_a_nabla_that_drops_its_coefficient(
        capsys, monkeypatch):
    def nabla_without_f(self, g):
        return witt._d(g, self.p, self.n) * self.p ** self.m
    assert _failures(capsys, "witt-compare") == []
    monkeypatch.setattr(witt.WittConnection, "nabla", nabla_without_f)
    assert _failures(capsys, "witt-compare")


def _failed_checks(failure):
    """The theorem25 checks that are false in a failing case's report."""
    return {k for degree in failure["got"]["report"].values()
            for k in ("decomposition", "bound", "h0") if not degree[k]}


def test_theorem25_fails_with_a_twist_without_its_shift(capsys, monkeypatch):
    def twists_without_shift(C, F):
        return {a: C for a in frobenius.twist_decompose(C, F)}
    assert _failures(capsys, "theorem25") == []
    monkeypatch.setattr(cohomology, "twist_decompose", twists_without_shift)
    failures = _failures(capsys, "theorem25")
    assert len(failures) == 6
    assert all("decomposition" in _failed_checks(f) for f in failures)


def test_theorem25_and_level_raise_fail_with_a_raise_to_zero(capsys,
                                                             monkeypatch):
    def raise_to_zero(C, F):
        zero = (LaurentPoly.zero(C.ctx, C.d),) * C.rank
        return Connection(C.ctx, C.d, C.m - 1, C.rank,
                          ((zero,) * C.rank,) * C.d)
    for module in (cli, cohomology, frobenius):
        monkeypatch.setattr(module, "level_raise", raise_to_zero)
    failures = _failures(capsys, "theorem25")
    assert len(failures) == 6
    assert all({"decomposition", "h0"} <= _failed_checks(f)
               for f in failures)
    failures = _failures(capsys, "level-raise")
    assert len(failures) == 15
    assert all(f["got"]["law"] == "rank1-rule" for f in failures)
