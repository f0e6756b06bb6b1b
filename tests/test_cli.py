import hashlib
import json
from argparse import Namespace

import pytest

from pmconn.cli import SUITES, main, connection_from_json, connection_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_suite_exits_2(capsys):
    code, out, err = run(capsys, "check", "no-such-suite")
    assert code == 2


def test_check_suite_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "level-raise", "--seed", "7",
                         "--format", "json")
    assert code1 == 0
    code2, out2, _ = run(capsys, "check", "level-raise", "--seed", "7",
                         "--format", "json")
    assert out1 == out2  # byte-identical
    rep = json.loads(out1)
    assert rep["failures"] == []
    assert rep["cases"] > 0
    # a different seed still passes but may differ textually
    code3, _, _ = run(capsys, "check", "level-raise", "--seed", "8")
    assert code3 == 0


# The case names of each suite's default grid, in SUITES order, written out
# in full so that the table shares no code with the declarations it checks.
DEFAULT_CASES = {
    "prop4": (
        "p=2 n=1 m=0 d=1, p=2 n=1 m=0 d=2, p=2 n=1 m=1 d=1, p=2 n=1 m=1 d=2, "
        "p=2 n=2 m=0 d=1, p=2 n=2 m=0 d=2, p=2 n=2 m=1 d=1, p=2 n=2 m=1 d=2, "
        "p=2 n=2 m=2 d=1, p=2 n=2 m=2 d=2, p=2 n=3 m=0 d=1, p=2 n=3 m=0 d=2, "
        "p=2 n=3 m=1 d=1, p=2 n=3 m=1 d=2, p=2 n=3 m=2 d=1, p=2 n=3 m=2 d=2, "
        "p=2 n=3 m=3 d=1, p=2 n=3 m=3 d=2, p=2 n=4 m=0 d=1, p=2 n=4 m=0 d=2, "
        "p=2 n=4 m=1 d=1, p=2 n=4 m=1 d=2, p=2 n=4 m=2 d=1, p=2 n=4 m=2 d=2, "
        "p=2 n=4 m=3 d=1, p=2 n=4 m=3 d=2, p=2 n=4 m=4 d=1, p=2 n=4 m=4 d=2, "
        "p=3 n=1 m=0 d=1, p=3 n=1 m=0 d=2, p=3 n=1 m=1 d=1, p=3 n=1 m=1 d=2, "
        "p=3 n=2 m=0 d=1, p=3 n=2 m=0 d=2, p=3 n=2 m=1 d=1, p=3 n=2 m=1 d=2, "
        "p=3 n=2 m=2 d=1, p=3 n=2 m=2 d=2, p=3 n=3 m=0 d=1, p=3 n=3 m=0 d=2, "
        "p=3 n=3 m=1 d=1, p=3 n=3 m=1 d=2, p=3 n=3 m=2 d=1, p=3 n=3 m=2 d=2, "
        "p=3 n=3 m=3 d=1, p=3 n=3 m=3 d=2, p=3 n=4 m=0 d=1, p=3 n=4 m=0 d=2, "
        "p=3 n=4 m=1 d=1, p=3 n=4 m=1 d=2, p=3 n=4 m=2 d=1, p=3 n=4 m=2 d=2, "
        "p=3 n=4 m=3 d=1, p=3 n=4 m=3 d=2, p=3 n=4 m=4 d=1, p=3 n=4 m=4 d=2, "
        "p=5 n=1 m=0 d=1, p=5 n=1 m=0 d=2, p=5 n=1 m=1 d=1, p=5 n=1 m=1 d=2, "
        "p=5 n=2 m=0 d=1, p=5 n=2 m=0 d=2, p=5 n=2 m=1 d=1, p=5 n=2 m=1 d=2, "
        "p=5 n=2 m=2 d=1, p=5 n=2 m=2 d=2, p=5 n=3 m=0 d=1, p=5 n=3 m=0 d=2, "
        "p=5 n=3 m=1 d=1, p=5 n=3 m=1 d=2, p=5 n=3 m=2 d=1, p=5 n=3 m=2 d=2, "
        "p=5 n=3 m=3 d=1, p=5 n=3 m=3 d=2, p=5 n=4 m=0 d=1, p=5 n=4 m=0 d=2, "
        "p=5 n=4 m=1 d=1, p=5 n=4 m=1 d=2, p=5 n=4 m=2 d=1, p=5 n=4 m=2 d=2, "
        "p=5 n=4 m=3 d=1, p=5 n=4 m=3 d=2, p=5 n=4 m=4 d=1, p=5 n=4 m=4 d=2"
    ),
    "taylor-cocycle": (
        "p=2 n=1 m=0, p=2 n=1 m=1, p=2 n=2 m=0, p=2 n=2 m=1, p=2 n=2 m=2, "
        "p=2 n=3 m=0, p=2 n=3 m=1, p=2 n=3 m=2, p=2 n=3 m=3, p=3 n=1 m=0, "
        "p=3 n=1 m=1, p=3 n=2 m=0, p=3 n=2 m=1, p=3 n=2 m=2, p=3 n=3 m=0, "
        "p=3 n=3 m=1, p=3 n=3 m=2, p=3 n=3 m=3, p=5 n=1 m=0, p=5 n=1 m=1, "
        "p=5 n=2 m=0, p=5 n=2 m=1, p=5 n=2 m=2, p=5 n=3 m=0, p=5 n=3 m=1, "
        "p=5 n=3 m=2, p=5 n=3 m=3"
    ),
    "tau": (
        "p=2 n=1 m=1, p=2 n=2 m=1, p=2 n=2 m=2, p=2 n=3 m=1, p=2 n=3 m=2, "
        "p=3 n=1 m=1, p=3 n=2 m=1, p=3 n=2 m=2, p=3 n=3 m=1, p=3 n=3 m=2, "
        "p=5 n=1 m=1, p=5 n=2 m=1, p=5 n=2 m=2, p=5 n=3 m=1, p=5 n=3 m=2"
    ),
    "level-raise": (
        "p=2 n=1 m=1, p=2 n=2 m=1, p=2 n=2 m=2, p=2 n=3 m=1, p=2 n=3 m=2, "
        "p=3 n=1 m=1, p=3 n=2 m=1, p=3 n=2 m=2, p=3 n=3 m=1, p=3 n=3 m=2, "
        "p=5 n=1 m=1, p=5 n=2 m=1, p=5 n=2 m=2, p=5 n=3 m=1, p=5 n=3 m=2"
    ),
    "descent": (
        "p=2 n=2, p=2 n=3, p=3 n=2, p=3 n=3"
    ),
    "theorem25": (
        "p=2 n=2 m=1, p=2 n=3 m=2, p=2 n=4 m=2, p=3 n=2 m=1, p=3 n=3 m=2, "
        "p=3 n=4 m=2, higgs vanishing p=2, higgs vanishing p=3"
    ),
    "ov-example": (
        "p=2 n=2, p=2 n=3, p=3 n=2, p=3 n=3, p=5 n=2, p=5 n=3"
    ),
    "witt-identities": (
        "p=2 n=2, p=2 n=3, p=2 n=4, p=3 n=2, p=3 n=3, p=3 n=4, p=5 n=2, "
        "p=5 n=3, p=5 n=4"
    ),
    "witt-compare": (
        "p=2 n=2 m=1, p=2 n=3 m=1, p=2 n=3 m=2, p=3 n=2 m=1, p=3 n=3 m=1, "
        "p=3 n=3 m=2"
    ),
}


def _case_names(suite, **pins):
    opts = Namespace(suite=suite, seed=0, p=None, n=None, m=None, d=None)
    for flag, value in pins.items():
        setattr(opts, flag, value)
    _, cases = SUITES[suite](opts)
    return [name for name, _ in cases]


def test_default_case_names_are_pinned():
    assert list(SUITES) == list(DEFAULT_CASES)
    for suite, names in DEFAULT_CASES.items():
        assert _case_names(suite) == names.split(", "), suite


def test_check_respects_grid_flags(capsys):
    assert _case_names("prop4", p=3, n=2) == [
        f"p=3 n=2 m={m} d={d}" for m in range(3) for d in (1, 2)]
    assert _case_names("witt-compare", n=3) == [
        "p=2 n=3 m=1", "p=2 n=3 m=2", "p=3 n=3 m=1", "p=3 n=3 m=2"]
    assert _case_names("witt-compare", n=4) == []
    assert _case_names("tau", m=0) == []
    # the Higgs cases of theorem25 are the points n = m = 1
    assert _case_names("theorem25", n=2) == ["p=2 n=2 m=1", "p=3 n=2 m=1"]
    assert _case_names("theorem25", n=1, p=3) == ["higgs vanishing p=3"]
    code, out, _ = run(capsys, "check", "prop4", "--p", "3", "--n", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["cases"] == 6


@pytest.mark.parametrize("suite,flag", [
    ("taylor-cocycle", "--d"), ("tau", "--d"), ("level-raise", "--d"),
    ("descent", "--d"), ("theorem25", "--d"), ("ov-example", "--d"),
    ("witt-identities", "--d"), ("witt-compare", "--d"),
    ("descent", "--m"), ("ov-example", "--m"), ("witt-identities", "--m"),
])
def test_check_rejects_grid_flags_the_suite_ignores(capsys, suite, flag):
    code, out, err = run(capsys, "check", suite, flag, "1")
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("suite,flag,value", [
    ("prop4", "--p", "0"), ("prop4", "--p", "4"), ("prop4", "--n", "0"),
    ("prop4", "--m", "-1"), ("prop4", "--d", "0"), ("theorem25", "--n", "0"),
    ("tau", "--p", "1"), ("level-raise", "--m", "-1"), ("descent", "--n", "-2"),
])
def test_check_rejects_out_of_range_grid_values(capsys, suite, flag, value):
    code, out, err = run(capsys, "check", suite, flag, value)
    assert code == 2
    assert out == ""
    assert f"{flag} {value}" in err


def test_check_prop4_reads_every_grid_flag(capsys):
    code, out, _ = run(capsys, "check", "prop4", "--p", "2", "--n", "1",
                       "--m", "0", "--d", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["cases"] == 1


@pytest.mark.parametrize("argv", [
    ("prop4", "--n", "1", "--m", "3"), ("level-raise", "--n", "2", "--m", "3"),
    ("theorem25", "--n", "5"),
])
def test_check_with_no_selected_case_exits_2(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "no case" in err


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _trivial_conn(p=3, n=2, m=1):
    return {"p": p, "n": n, "m": m, "d": 1, "rank": 1, "basis": "dlog",
            "theta": [[["0"]]]}


def test_cohomology_of_trivial_connection(tmp_path, capsys):
    f = _write(tmp_path, "conn.json", _trivial_conn(m=0))
    code, out, _ = run(capsys, "cohomology", f, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    h0 = rep["reports"][0]
    at_zero = next(e for e in h0["weights"] if e["w"] == [0])
    assert at_zero["divisors"] == [2]
    assert h0["stable"] is True


def test_cohomology_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        json.loads("{not json")
    code = main(["cohomology", str(path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("cmd", ["cohomology", "raise", "descend"])
def test_negative_level_and_empty_chart_are_unreadable(tmp_path, capsys, cmd):
    lift = _write(tmp_path, "l.json", {"p": 3, "n": 2, "d": 1, "a": ["0"]})
    for obj in (_trivial_conn(m=-1), {**_trivial_conn(), "d": 0, "theta": []}):
        f = _write(tmp_path, "bad.json", obj)
        code, out, err = run(capsys, cmd, f, *([lift] if cmd == "raise" else []))
        assert (code, out) == (2, "")
        assert err.startswith("cannot read")


def test_cohomology_rejects_negative_window(tmp_path, capsys):
    f = _write(tmp_path, "conn.json", _trivial_conn(m=0))
    code, out, err = run(capsys, "cohomology", f, "--window", "-1")
    assert (code, out) == (2, "")
    assert "--window -1" in err


def test_cohomology_non_integrable_exits_1(tmp_path, capsys):
    # rank 2, d = 2 with non-commuting constant matrices
    obj = {"p": 3, "n": 2, "m": 0, "d": 2, "rank": 2, "basis": "dlog",
           "theta": [[["0", "1"], ["0", "0"]],
                     [["0", "0"], ["1", "0"]]]}
    f = _write(tmp_path, "ni.json", obj)
    code, out, err = run(capsys, "cohomology", f)
    assert code == 1
    assert "curvature" in err


def test_raise_rank1_rule_and_level_zero_rejection(tmp_path, capsys):
    conn = _write(tmp_path, "c.json",
                  {"p": 3, "n": 2, "m": 1, "d": 1, "rank": 1,
                   "basis": "dlog", "theta": [[["2*t1^1"]]]})
    lift = _write(tmp_path, "l.json", {"p": 3, "n": 2, "d": 1, "a": ["0"]})
    code, out, _ = run(capsys, "raise", conn, lift, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["m"] == 0
    assert rep["theta"][0][0][0] == "2*t1^3"
    level0 = _write(tmp_path, "c0.json", _trivial_conn(m=0))
    code2, _, _ = run(capsys, "raise", level0, lift)
    assert code2 == 2


def test_descend_round_trip_and_obstruction(tmp_path, capsys):
    # raise of nabla_{3t} is nabla_{3t^3}; descending it recovers a connection
    conn = _write(tmp_path, "down.json",
                  {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1,
                   "basis": "dlog", "theta": [[["3*t1^3"]]]})
    code, out, _ = run(capsys, "descend", conn, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["connection"]["m"] == 1
    # the non-quasi-nilpotent example is obstructed
    bad = _write(tmp_path, "bad.json",
                 {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1,
                  "basis": "dlog", "theta": [[["1*t1^1"]]]})
    code2, out2, _ = run(capsys, "descend", bad, "--format", "json")
    assert code2 == 1
    assert json.loads(out2)["ok"] is False
    # descent of a level-1 input is a usage error
    lvl1 = _write(tmp_path, "l1.json", _trivial_conn(m=1))
    code3, _, err3 = run(capsys, "descend", lvl1)
    assert code3 == 2
    assert "rank 1, level 0" in err3


def test_descend_on_the_plane(tmp_path, capsys):
    # theta = 3 t1^3 t2^3 (dlog t1 + dlog t2) is the raise of 3 t1 t2; the
    # gauge 1 + 3 t1 t2 adds 3 t1 t2 to both, which descent gauges away
    conn = _write(tmp_path, "down.json",
                  {"p": 3, "n": 2, "m": 0, "d": 2, "rank": 1,
                   "basis": "dlog", "theta": [[["3*t1^3*t2^3+3*t1*t2"]],
                                              [["3*t1^3*t2^3+3*t1*t2"]]]})
    code, out, _ = run(capsys, "descend", conn, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["connection"]["theta"] == [[["3*t1^1*t2^1"]]] * 2
    assert rep["gauge"] == "1+6*t1^1*t2^1"
    # theta = t2 dlog t1 is not integrable: an input error
    bad = _write(tmp_path, "bad.json",
                 {"p": 3, "n": 2, "m": 0, "d": 2, "rank": 1,
                  "basis": "dlog", "theta": [[["t2"]], [["0"]]]})
    code, out, err = run(capsys, "descend", bad)
    assert (code, out) == (2, "")
    assert "integrable" in err


def test_descend_rejects_an_impure_lift(tmp_path, capsys):
    conn = _write(tmp_path, "down.json",
                  {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1,
                   "basis": "dlog", "theta": [[["3*t1^3"]]]})
    lift = _write(tmp_path, "lift.json", {"p": 3, "n": 2, "d": 1, "a": ["t1"]})
    code, out, err = run(capsys, "descend", conn, "--lift", lift)
    assert (code, out) == (2, "")
    assert "pure-power lift" in err


@pytest.mark.parametrize("text", ["3t1", "2t1^2", "t1t1", "3*"])
@pytest.mark.parametrize("cmd", ["cohomology", "raise", "descend"])
def test_polynomial_text_without_operators_is_unreadable(tmp_path, capsys,
                                                         cmd, text):
    conn = _write(tmp_path, "c.json",
                  {**_trivial_conn(m=int(cmd == "raise")), "theta": [[[text]]]})
    lift = _write(tmp_path, "l.json", {"p": 3, "n": 2, "d": 1, "a": ["0"]})
    code, out, err = run(capsys, cmd, conn, *([lift] if cmd == "raise" else []))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read")


@pytest.mark.parametrize("lift", [
    {"p": 3, "n": 3, "d": 1, "a": ["0"]},
    {"p": 3, "n": 2, "d": 2, "a": ["0", "0"]},
], ids=["ring", "chart"])
def test_descend_rejects_lift_on_another_chart(tmp_path, capsys, lift):
    conn = _write(tmp_path, "down.json",
                  {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1,
                   "basis": "dlog", "theta": [[["3*t1^3"]]]})
    good = _write(tmp_path, "good.json", {"p": 3, "n": 2, "d": 1, "a": ["0"]})
    assert run(capsys, "descend", conn, "--lift", good)[0] == 0
    code, out, err = run(capsys, "descend", conn, "--lift",
                         _write(tmp_path, "lift.json", lift))
    assert (code, out) == (2, "")
    assert "connection and lift live on different charts" in err


@pytest.mark.parametrize("a", ["12", [1, 2], ["0"], None],
                         ids=["string", "numbers", "too-short", "null"])
@pytest.mark.parametrize("cmd", ["raise", "descend"])
def test_lift_whose_a_is_not_d_polynomials_is_unreadable(tmp_path, capsys,
                                                         cmd, a):
    # a string once read as one polynomial per character: "12" gave a = (1, 2)
    conn = _write(tmp_path, "c.json",
                  {"p": 3, "n": 2, "m": int(cmd == "raise"), "d": 2,
                   "rank": 1, "basis": "dlog", "theta": [[["0"]], [["0"]]]})
    lift = _write(tmp_path, "l.json", {"p": 3, "n": 2, "d": 2, "a": a})
    code, out, err = run(capsys, cmd, conn,
                         *([lift] if cmd == "raise" else ["--lift", lift]))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read input")


@pytest.mark.parametrize("fields", [
    {"p": "3", "n": 2.9, "m": True},
    {"p": "3"}, {"n": 2.9}, {"n": 2.0}, {"m": True}, {"d": True},
    {"rank": 1.0}, {"rank": None},
], ids=["string-float-bool", "p-string", "n-float", "n-float-integral",
        "m-bool", "d-bool", "rank-float", "rank-null"])
def test_connection_fields_that_are_not_json_integers_are_unreadable(
        tmp_path, capsys, fields):
    # int() once read {"p": "3", "n": 2.9, "m": true} as p = 3, n = 2, m = 1
    obj = {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1, "theta": [[["3*t1"]]]}
    assert run(capsys, "cohomology", _write(tmp_path, "c.json", obj))[0] == 0
    f = _write(tmp_path, "bad.json", {**obj, **fields})
    code, out, err = run(capsys, "cohomology", f)
    assert (code, out) == (2, "")
    assert err.startswith("cannot read connection file")


@pytest.mark.parametrize("fields", [
    {"n": 2.5, "d": True}, {"p": "3"}, {"n": 2.5}, {"d": True},
], ids=["float-bool", "p-string", "n-float", "d-bool"])
@pytest.mark.parametrize("cmd", ["raise", "descend"])
def test_lift_fields_that_are_not_json_integers_are_unreadable(
        tmp_path, capsys, cmd, fields):
    # int() once read {"n": 2.5, "d": true} as n = 2, d = 1, the chart of
    # the connection, so the command answered
    conn = _write(tmp_path, "c.json",
                  {"p": 3, "n": 2, "m": int(cmd == "raise"), "d": 1,
                   "rank": 1, "basis": "dlog", "theta": [[["3*t1^3"]]]})
    lift = {"p": 3, "n": 2, "d": 1, "a": ["0"]}
    flag = [] if cmd == "raise" else ["--lift"]
    assert run(capsys, cmd, conn, *flag,
               _write(tmp_path, "l.json", lift))[0] == 0
    code, out, err = run(capsys, cmd, conn, *flag,
                         _write(tmp_path, "bad.json", {**lift, **fields}))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read input")


def test_connection_json_round_trip():
    obj = {"p": 5, "n": 3, "m": 2, "d": 2, "rank": 2, "basis": "dlog",
           "theta": [[["1*t1^1*t2^-1", "0"], ["3", "0"]],
                     [["0", "0"], ["0", "2"]]]}
    C = connection_from_json(obj)
    back = connection_to_json(C)
    assert connection_from_json(back).theta == C.theta


def _rank1(theta, **fields):
    return {"p": 3, "n": 2, "m": 1, "d": 1, "rank": 1, "theta": theta,
            **fields}


@pytest.mark.parametrize("obj", [
    _rank1([[["3*t1", "5"], ["1", "1"]], [["7"]]]),  # 2-by-2, then another
    _rank1([[["3*t1"]], [["7"]]]),  # one matrix too many
    _rank1([[["3*t1", "5"]]]),  # an entry past rank
    _rank1([[["3*t1"], ["5"]]]),  # a row past rank
    _rank1([]),  # no matrix
    _rank1([["3*t1"]]),  # a row where a matrix should be
    _rank1([[[3]]]),  # a number where a string should be
    _rank1([[["3*t1"]]], d=None),  # no dimension
    [1, 2],  # not an object
], ids=["wide-and-extra", "extra-matrix", "extra-entry", "extra-row",
        "missing-matrix", "flat", "number-entry", "null-d", "not-an-object"])
def test_cohomology_rejects_a_malformed_connection_file(tmp_path, capsys,
                                                        obj):
    f = _write(tmp_path, "conn.json", obj)
    code, out, err = run(capsys, "cohomology", f)
    assert (code, out) == (2, "")
    assert "cannot read connection file" in err


def test_dt_basis_is_converted():
    obj = {"p": 3, "n": 2, "m": 0, "d": 1, "rank": 1, "basis": "dt",
           "theta": [[["1"]]]}
    C = connection_from_json(obj)
    # theta dt = theta * t dlog t
    assert dict(C.theta[0][0][0].terms).get((1,), 0) == 1


# SHA-256 of `pmconn cohomology FILE --window W --format json` for rank-1,
# d = 2 connections over Z/27 at level 1 whose theta shifts weights, so the
# whole window is one weight component and one large Smith form per degree.
COUPLED_COHOMOLOGY_SHA256 = [
    (["3*t1^1", "3*t2^-1"], 4,
     "26fd78d7d6ed019bb7b81259ec734bd055c76e91fe00196c5f3eb4ff858ca182"),
    (["3*t1^1", "3*t2^-1"], 6,
     "a15d0227dc526d6de467ddbd9949fdd4cf16838c23d1aafcabdfdaf9842fc891"),
    (["15*t1+3*t1^-1", "15*t2+3*t2^-1"], 3,
     "4db2edda4af50c2cf11076380db8f0a455269027da7c3ea0b8fcb572f9cb3027"),
    (["15*t1+3*t1^-1", "15*t2+3*t2^-1"], 8,
     "9738f699be8ff9a63fd591c725e115840c79a13bcc99b64b08154def9e65ce00"),
]


@pytest.mark.parametrize("theta,window,digest", COUPLED_COHOMOLOGY_SHA256,
                         ids=["A-window4", "A-window6", "B-window3",
                              "B-window8"])
def test_coupled_cohomology_output_is_pinned(tmp_path, capsys, theta,
                                             window, digest):
    f = _write(tmp_path, "coupled.json",
               {"p": 3, "n": 3, "m": 1, "d": 2, "rank": 1, "basis": "dlog",
                "theta": [[[g]] for g in theta]})
    code, out, _ = run(capsys, "cohomology", f, "--window", str(window),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `pmconn cohomology FILE --format json` for a rank-2, d = 2
# connection with constant nilpotent matrices: weight-preserving, so every
# weight is its own component and many components are translates.
SPLIT_COHOMOLOGY_SHA256 = [
    ([], "ca55dda7508bcf82e5031e74f7804dac709a056e323559c20f1897d9708e3da8"),
    (["--window", "4"],
     "6a848a4eae299797c686ecbdd791d25785c5ac2904169611fdefccd64faadd4a"),
]


@pytest.mark.parametrize("flags,digest", SPLIT_COHOMOLOGY_SHA256,
                         ids=["default-window", "window4"])
def test_split_cohomology_output_is_pinned(tmp_path, capsys, flags, digest):
    f = _write(tmp_path, "split.json",
               {"p": 3, "n": 3, "m": 1, "d": 2, "rank": 2, "basis": "dlog",
                "theta": [[["0", "5"], ["0", "0"]],
                          [["0", "6"], ["0", "0"]]]})
    code, out, _ = run(capsys, "cohomology", f, *flags, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `pmconn check SUITE --seed 11 --format json` for every suite in
# cli.SUITES: the byte-stable equivalence oracle that a refactor which keeps
# behaviour must leave unchanged.
SUITE_REPORT_SHA256 = {
    "prop4":
        "d89311dbc29b7cb039b8f69dcb8d4007c406754da634fbaf48db2a6d2811089d",
    "taylor-cocycle":
        "c4300d54e5100f6781d146450214eef56d1e3ff3d9eb9a1bf5a0e8dcd8886bca",
    "tau":
        "beeede0cd9757e95d51a68738a7fb913903548fb01777be4c743d9e4ab9c3f71",
    "level-raise":
        "95b5ab7239776d8beb7785b87645dfce66b69f2c23f7d9148054e7e36ad2eccb",
    "descent":
        "c118505b275f9287bdd7fc343bc7252a0f23d47246eb9267de171d3ceda7a816",
    "theorem25":
        "b57ac206cc6424c3b469c8893f07493cc0dbb9344f62a1c16335e4418a56c5f4",
    "ov-example":
        "6b8689a1d61afbda9dab92d2eaa2310da171e5a65684728c362494c91abfc102",
    "witt-identities":
        "65878de47cc25cff36ad7ef69cb0cbf3e20ad635302a7ea5ae023b83a3ab72f8",
    "witt-compare":
        "1211f0923e05bdeaf991eb46001646135b54e2e04e1bfc58c4471bc2245e1aa1",
}


def test_suite_reports_are_pinned(capsys):
    assert sorted(SUITE_REPORT_SHA256) == sorted(SUITES)
    for suite, digest in SUITE_REPORT_SHA256.items():
        code, out, _ = run(capsys, "check", suite, "--seed", "11",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, suite
