"""Each check suite must be able to fail: a seeded defect, monkeypatched into
the code a suite exercises, must turn that suite's own report into a
failure.  A suite that still passes with its defect in place checks nothing
about the code the defect breaks.
"""

import inspect
import json

from pmconn import cli, frobenius
from pmconn.connection import Connection


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
