"""The benchmark's workloads: seeded inputs for pmconn's public entry points.

Each workload has a ``setup(seed)`` that imports pmconn afresh and builds the
inputs, and a ``run(inputs)`` that makes one pass and returns the checked
results as ``(key, output text, program verdict)``.  Set-up imports pmconn
again every pass, so each pass starts from cold module caches, as a fresh
``pmconn`` process would.  The end-to-end passes touch only public entry
points (``pmconn.cli.main``, ``pmconn.cohomology.compare_theorem25``) and
constructors.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def fresh_import(*names):
    """Drop every loaded pmconn module and import ``names`` anew."""
    for key in [k for k in sys.modules
                if k == "pmconn" or k.startswith("pmconn.")]:
        del sys.modules[key]
    return [importlib.import_module(n) for n in names]


def _main(cli, argv):
    """Run ``pmconn <argv>``; return its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- suite workloads ---------------------------------------------------------


def _suite_setup(suites, suite_seed=lambda seed: seed):
    def setup(seed):
        cli, = fresh_import("pmconn.cli")
        s_seed = str(suite_seed(seed))
        return cli, [["check", s, "--seed", s_seed, "--format", "json"]
                     for s in suites]
    return setup


def _suite_run(inputs):
    cli, argvs = inputs
    out = []
    for argv in argvs:
        rc, text = _main(cli, argv)
        ok = rc == 0 and json.loads(text)["failures"] == []
        out.append((" ".join(argv[:2]), text, ok))
    return out


WITT_SUITES = ("witt-identities", "witt-compare")
# witt-identities draws its Witt vectors from the suite seed, and its dense
# multiply work varies from 3.1M to 9.8M term products over suite seeds 1..40
# (median 5.1M).  The benchmark seed picks from the seven suite seeds whose
# work lies within 3% of 4.5M, the densest band, so a seed changes the inputs
# but not the amount of work.
WITT_SEED_POOL = (1, 2, 18, 32, 33, 35, 36)
OPERATOR_SUITES = ("prop4", "taylor-cocycle", "tau", "level-raise", "descent",
                   "theorem25", "ov-example")


# -- cohomology-coupled ------------------------------------------------------
#
# Rank-1, d = 2 connections over Z/27 at level m = 1.  A non-constant theta
# shifts weights, so the whole window is one weight component and each
# degree is one large boundary matrix.  The SNF cost depends steeply on the
# unit coefficients (entry growth; README.md has the table), so the units are
# fixed and the seed draws only the exponent signs of shape A and, per axis,
# which of shape B's two units sits on t_i and which on t_i^-1.

COUPLED_P, COUPLED_N, COUPLED_M = 3, 3, 1
SHAPE_A_WINDOW, SHAPE_B_WINDOW = 4, 3
SHAPE_B_UNITS = (1, 5)


def coupled_connections(seed):
    """(tag, theta strings, window) for the seeded shapes A and B."""
    rng = random.Random(f"{seed}:cohomology-coupled")
    shape_a = [f"3*t{i}^{rng.choice((1, -1))}" for i in (1, 2)]
    shape_b = []
    for i in (1, 2):
        a, b = rng.sample(SHAPE_B_UNITS, 2)
        shape_b.append(f"{3 * a}*t{i}+{3 * b}*t{i}^-1")
    return [("A", shape_a, SHAPE_A_WINDOW), ("B", shape_b, SHAPE_B_WINDOW)]


def _coupled_setup(seed):
    cli, = fresh_import("pmconn.cli")
    os.makedirs(OUT_DIR, exist_ok=True)
    argvs = []
    for tag, theta, window in coupled_connections(seed):
        obj = {"p": COUPLED_P, "n": COUPLED_N, "m": COUPLED_M, "d": 2,
               "rank": 1, "basis": "dlog", "theta": [[[f]] for f in theta]}
        path = os.path.join(OUT_DIR, f"coupled-{tag}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        argvs.append((tag, ["cohomology", path, "--window", str(window),
                            "--format", "json"]))
    return cli, argvs


def _coupled_run(inputs):
    cli, argvs = inputs
    out = []
    for tag, argv in argvs:
        rc, text = _main(cli, argv)
        ok = rc == 0 and len(json.loads(text)["reports"]) == 3
        out.append((f"cohomology shape {tag}", text, ok))
    return out


# -- cohomology-split --------------------------------------------------------
#
# Rank-2 nilpotent constant-matrix d = 2 connections: weight-preserving, so
# every weight is its own component and homology runs on many tiny matrices.

SPLIT_CONFIGS = ((2, 3, 2, 4), (3, 3, 1, 3), (3, 4, 2, 3))  # (p, n, m, D)
# p-adic valuation of the theta_1 and theta_2 entries.  Cost depends on it
# far more than on the unit part, so it is fixed and the seed draws the units.
SPLIT_VALUATIONS = (0, 1)


def split_entries(seed):
    """Upper-right entries u * p^k of theta_1 and theta_2, per config."""
    rng = random.Random(f"{seed}:cohomology-split")
    out = []
    for p, n, _, _ in SPLIT_CONFIGS:
        units = [u for u in range(1, p ** n) if u % p]
        out.append(tuple(rng.choice(units) * p ** k
                         for k in SPLIT_VALUATIONS))
    return out


def _split_setup(seed):
    arith, connection, laurent, cohomology = fresh_import(
        "pmconn.arith", "pmconn.connection", "pmconn.laurent",
        "pmconn.cohomology")
    LaurentPoly = laurent.LaurentPoly
    cases = []
    for (p, n, m, D), entries in zip(SPLIT_CONFIGS, split_entries(seed)):
        ctx = arith.RingCtx(p, n)
        zero = LaurentPoly.zero(ctx, 2)
        theta = tuple(((zero, LaurentPoly.const(ctx, 2, e)), (zero, zero))
                      for e in entries)
        C = connection.Connection(ctx, 2, m, 2, theta)
        pres = connection.ExtensionPresentation(C, (1, 1),
                                                ("trivial", "trivial"))
        label = f"theorem25 p={p} n={n} m={m} D={D} entries={list(entries)}"
        cases.append((label, C, laurent.FrobLift.pure(ctx, 2), pres, D))
    return cohomology, cases


def _split_run(inputs):
    cohomology, cases = inputs
    out = []
    for label, C, F, pres, D in cases:
        rep = cohomology.compare_theorem25(C, F, pres, D)
        out.append((label, json.dumps(rep, sort_keys=True), rep["pass"]))
    return out


# -- registry ------------------------------------------------------------------

WORKLOADS = {
    "witt-dense": (_suite_setup(
        WITT_SUITES, lambda seed: WITT_SEED_POOL[seed % len(WITT_SEED_POOL)]),
        _suite_run),
    "operator-sparse": (_suite_setup(OPERATOR_SUITES), _suite_run),
    "cohomology-coupled": (_coupled_setup, _coupled_run),
    "cohomology-split": (_split_setup, _split_run),
}
