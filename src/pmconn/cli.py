"""Command-line front door: verification suites, cohomology reports, and
level raising/descent on connection files.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or input
error.  With --format json the output is byte-stable for a fixed seed and
flag set (wall time is nulled out), so reports can be diffed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

from .arith import RingCtx, is_prime
from .connection import (Connection, ExtensionPresentation, gauge,
                         is_quasi_nilpotent, mat_map, mat_scale)
from .cohomology import (compare_theorem25, compute_H, higgs_vanishing,
                         hom_space)
from .dops import (DiffOp, check_taylor_cocycle, check_taylor_inverse,
                   level_change, op_apply, op_mul, tau_transition, verify_tau)
from .frobenius import LiftChain, descend_rank1, level_raise, psi
from .laurent import (FrobLift, LaurentPoly, frob_substitute, parse_poly,
                      format_poly)
from .witt import (WittConnection, WittVector, drw_F, drw_d,
                   fractional_presentation_orders, integral_to_witt,
                   nf_to_witt, witt_compare, witt_level_raise)

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_WINDOW = 8


# -- file formats ---------------------------------------------------------------


def connection_from_json(obj):
    p, n, m, d, rank = (int(obj[k]) for k in ("p", "n", "m", "d", "rank"))
    ctx = RingCtx(p, n)
    basis = obj.get("basis", "dlog")
    if basis not in ("dlog", "dt"):
        raise ValueError(f"unknown basis {basis!r}")

    def shape(x):  # the nesting of the lists in x
        return [shape(y) for y in x] if isinstance(x, list) else None

    if shape(obj["theta"]) != [[[None] * rank] * rank] * d:
        raise ValueError(f"theta is not a list of {d} {rank}-by-{rank} "
                         "matrices")
    theta = tuple(mat_map(M, lambda s: parse_poly(s, ctx, d))
                  for M in obj["theta"])
    if basis == "dt":  # theta_i dt_i = theta_i t_i dlog t_i
        theta = tuple(mat_scale(M, LaurentPoly.var(ctx, d, i + 1))
                      for i, M in enumerate(theta))
    return Connection(ctx, d, m, rank, theta)


def connection_to_json(C):
    return {"p": C.ctx.p, "n": C.ctx.n, "m": C.m, "d": C.d, "rank": C.rank,
            "basis": "dlog",
            "theta": [[[format_poly(C.theta[i][r][c])
                        for c in range(C.rank)] for r in range(C.rank)]
                      for i in range(C.d)]}


def lift_from_json(obj):
    p, n, d = int(obj["p"]), int(obj["n"]), int(obj["d"])
    ctx = RingCtx(p, n)
    a = obj["a"]
    if not (isinstance(a, list) and len(a) == d
            and all(isinstance(s, str) for s in a)):
        raise ValueError(f"a is not a list of {d} polynomials")
    return FrobLift(ctx, d, tuple(parse_poly(s, ctx, d) for s in a))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- shared generators ------------------------------------------------------


def _rng(seed, tag):
    return random.Random(f"{seed}:{tag}")


def _rand_poly(rng, ctx, d, terms, deg=2):
    acc = {}
    for _ in range(terms):
        e = tuple(rng.randint(-deg, deg) for _ in range(d))
        acc[e] = acc.get(e, 0) + rng.randrange(1, ctx.modulus)
    return LaurentPoly.from_dict(ctx, d, acc)


def _rand_op(rng, ctx, d, m, order):
    acc = {}
    for _ in range(2):
        l = tuple(rng.randint(0, order) for _ in range(d))
        if sum(l) > order:
            continue
        acc[l] = acc.get(l, LaurentPoly.zero(ctx, d)) + \
            _rand_poly(rng, ctx, d, 1)
    if not acc:
        acc[(0,) * d] = LaurentPoly.one(ctx, d)
    return DiffOp.from_dict(ctx, d, m, acc)


def _rank2_nilpotent(rng, ctx, m):
    """Strictly upper triangular rank-2 connection on the 1-dim chart."""
    zero = LaurentPoly.zero(ctx, 1)
    g = _rand_poly(rng, ctx, 1, 1, deg=1)
    return Connection(ctx, 1, m, 2, (((zero, g), (zero, zero)),))


# -- suites ---------------------------------------------------------------------
#
# A suite is an anchor string, naming the identity under test for
# cross-referencing reports, and one or more case families.  A family is a
# case function case(opts, p, n, m, d) -> {"pass": bool, ...context...} and
# its grid: the default values of each flag it reads, "m" as a function of n.
# The flags a suite accepts, its points and its case names all come from
# these declarations.


class Family(NamedTuple):
    case: Callable
    axes: dict
    keep: Callable | None = None  # keep(n, m): filter on the points
    name: str | None = None       # default: "p=.. n=.." over the axes


class UsageError(ValueError):
    """Grid flags a suite cannot run with; `pmconn check` exits 2."""


GRID_RANGES = {
    "p": (is_prime, "a prime"),
    "n": (lambda v: v >= 1, "n >= 1"),
    "m": (lambda v: v >= 0, "m >= 0"),
    "d": (lambda v: v >= 1, "d >= 1"),
}


def _grid(opts, family):
    """The points (p, n, m, d) of a family: a pinned flag replaces its axis,
    an axis the family does not declare is None, points with m > n are
    dropped and the family's filter is applied."""
    def values(flag, n=None):
        if getattr(opts, flag) is not None:
            return [getattr(opts, flag)]
        if flag not in family.axes:
            return [None]
        return family.axes[flag](n) if flag == "m" else family.axes[flag]
    out = []
    for p in values("p"):
        for n in values("n"):
            for m in values("m", n):
                if m is not None and m > n:
                    continue
                if family.keep is not None and not family.keep(n, m):
                    continue
                out.extend((p, n, m, d) for d in values("d"))
    return out


def _suite(anchor, *families):
    """A suite's build(opts) -> (anchor, [(case name, thunk)])."""
    flags = {f for fam in families for f in fam.axes}

    def build(opts):
        ignored = [f"--{f}" for f in "pnmd"
                   if getattr(opts, f) is not None and f not in flags]
        if ignored:
            raise UsageError(
                f"suite {opts.suite} does not read {' '.join(ignored)}")
        for flag, (ok, want) in GRID_RANGES.items():
            value = getattr(opts, flag)
            if value is not None and not ok(value):
                raise UsageError(
                    f"--{flag} {value} is out of range: need {want}")
        cases = []
        for fam in families:
            name = fam.name or " ".join(f"{f}={{{f}}}" for f in "pnmd"
                                        if f in fam.axes)
            cases += [(name.format(p=p, n=n, m=m, d=d),
                       partial(fam.case, opts, p, n, m, d))
                      for p, n, m, d in _grid(opts, fam)]
        return anchor, cases
    return build


def case_prop4(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    rng = _rng(opts.seed, f"prop4:{p}:{n}:{m}:{d}")
    for trial in range(12):
        P = _rand_op(rng, ctx, d, m, 4)
        Q = _rand_op(rng, ctx, d, m, 4)
        R = _rand_op(rng, ctx, d, m, 4)
        f = _rand_poly(rng, ctx, d, 2)
        PQ = op_mul(P, Q)
        if op_mul(PQ, R).terms != op_mul(P, op_mul(Q, R)).terms:
            return {"pass": False, "law": "associativity", "trial": trial}
        if op_apply(PQ, f).terms != op_apply(P, op_apply(Q, f)).terms:
            return {"pass": False, "law": "module-action", "trial": trial}
        # divided operators compose by plain iteration
        l1 = tuple(rng.randint(0, 2) for _ in range(d))
        l2 = tuple(rng.randint(0, 2) for _ in range(d))
        D1 = DiffOp.partial(ctx, d, m, l1)
        D2 = DiffOp.partial(ctx, d, m, l2)
        l12 = tuple(a + b for a, b in zip(l1, l2))
        if op_mul(D1, D2).terms != DiffOp.partial(ctx, d, m, l12).terms:
            return {"pass": False, "law": "divided-composition",
                    "trial": trial}
        if m >= 1:
            Pl = level_change(P, m - 1)
            Ql = level_change(Q, m - 1)
            if level_change(PQ, m - 1).terms != op_mul(Pl, Ql).terms:
                return {"pass": False, "law": "level-change-hom",
                        "trial": trial}
    return {"pass": True}


def _rank1_catalog(ctx, m):
    pm = ctx.p ** m
    t = LaurentPoly.var(ctx, 1, 1)
    tinv = LaurentPoly.var(ctx, 1, 1, -1)
    return [
        ("zero", Connection.trivial(ctx, 1, m)),
        ("const", Connection.rank1(ctx, 1, m, [LaurentPoly.const(ctx, 1, pm)])),
        ("pt", Connection.rank1(ctx, 1, m, [t * ctx.p])),
        ("pt-inv", Connection.rank1(ctx, 1, m, [tinv * ctx.p])),
        ("p-mixed", Connection.rank1(ctx, 1, m, [(t + t * t) * ctx.p])),
    ]


def case_taylor(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    K = 4
    for name, C in _rank1_catalog(ctx, m):
        if not is_quasi_nilpotent(C):
            continue
        e = C.basis_vector(0)
        if not check_taylor_cocycle(C, e, K):
            return {"pass": False, "object": name, "law": "cocycle"}
        if not check_taylor_inverse(C, e, K):
            return {"pass": False, "object": name, "law": "inverse"}
    rng = _rng(opts.seed, f"taylor:{p}:{n}:{m}")
    for trial in range(5):
        C = _rank2_nilpotent(rng, ctx, m)
        if not is_quasi_nilpotent(C):
            continue
        for k in range(2):
            e = C.basis_vector(k)
            if not check_taylor_cocycle(C, e, K):
                return {"pass": False, "trial": trial, "law": "cocycle"}
            if not check_taylor_inverse(C, e, K):
                return {"pass": False, "trial": trial, "law": "inverse"}
    return {"pass": True}


def case_tau(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    ctx_ext = RingCtx(p, n + m)
    rng = _rng(opts.seed, f"tau:{p}:{n}:{m}")
    for trial in range(4):
        C = Connection.rank1(ctx, 1, m,
                             [LaurentPoly.const(ctx, 1, ctx.p ** m)])
        if trial % 2:
            C = _rank2_nilpotent(rng, ctx, m)
        a1 = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
        a2 = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
        f1 = FrobLift(ctx_ext, 1, (a1 * (ctx.p ** (n - 1)),))
        f2 = FrobLift(ctx_ext, 1, (a2 * (ctx.p ** (n - 1)),))
        T = tau_transition(C, f1, f2)
        if not verify_tau(C, f1, f2, T):
            return {"pass": False, "trial": trial, "why": "gauge relation"}
        # tau is the identity when the lifts agree mod p^{n+m}
        Tid = tau_transition(C, f1, f1)
        ident = all(
            Tid[i][j] == (LaurentPoly.one(ctx, 1) if i == j
                          else LaurentPoly.zero(ctx, 1))
            for i in range(C.rank) for j in range(C.rank))
        if not ident:
            return {"pass": False, "trial": trial, "why": "not-id"}
    return {"pass": True}


def case_level_raise(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    F = FrobLift.pure(ctx, 1)
    rng = _rng(opts.seed, f"lr:{p}:{n}:{m}")
    for trial in range(6):
        f = _rand_poly(rng, ctx, 1, 2)
        C = Connection.rank1(ctx, 1, m, [f])
        C2 = level_raise(C, F)
        want = frob_substitute(f, F)
        if C2.theta[0][0][0] != want:
            return {"pass": False, "law": "rank1-rule", "trial": trial}
        D = _rank2_nilpotent(rng, ctx, m)
        D2 = level_raise(D, F)
        if not D2.is_integrable():
            return {"pass": False, "law": "integrability"}
        if is_quasi_nilpotent(D) and not is_quasi_nilpotent(D2):
            return {"pass": False, "law": "quasi-nilpotence"}
    if m >= 2:
        chain = LiftChain(tuple(FrobLift.pure(ctx, 1) for _ in range(m)))
        f = _rand_poly(_rng(opts.seed, f"lrc:{p}:{n}:{m}"), ctx, 1, 1)
        C = Connection.rank1(ctx, 1, m, [f])
        top = psi(C, chain)
        sub = f
        for _ in range(m):
            sub = frob_substitute(sub, FrobLift.pure(ctx, 1))
        if top.theta[0][0][0] != sub or top.m != 0:
            return {"pass": False, "law": "lift-chain"}
    return {"pass": True}


def case_descent(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    rng = _rng(opts.seed, f"descent:{p}:{n}")
    # gauged raises gauge(level_raise(up), g), half on the 2-dimensional
    # chart; up is closed (constants plus the dlog-derivatives of h), and g
    # adds terms at exponents prime to p that descent must gauge away
    for trial, dim in enumerate((1, 1, 1, 1, 2, 2, 2, 2)):
        F = FrobLift.pure(ctx, dim)
        h = _rand_poly(rng, ctx, dim, 2, deg=1)
        up = Connection.rank1(ctx, dim, 1, [
            LaurentPoly.const(ctx, dim, rng.randrange(ctx.modulus))
            + h.log_partial(i + 1) for i in range(dim)])
        g = LaurentPoly.one(ctx, dim) + _rand_poly(rng, ctx, dim, 2) * p
        down = gauge(level_raise(up, F), ((g,),))
        res = descend_rank1(down, F)
        if not res["ok"]:
            return {"pass": False, "trial": trial, "why": res["obstruction"]}
        back = gauge(down, ((res["gauge"],),))
        if back.theta != level_raise(res["connection"], F).theta:
            return {"pass": False, "trial": trial, "why": "round-trip"}
    bad = Connection.rank1(ctx, 1, 0, [LaurentPoly.var(ctx, 1, 1)])
    res = descend_rank1(bad, FrobLift.pure(ctx, 1))
    if res["ok"] or res["obstruction"] is None:
        return {"pass": False, "why": "missing obstruction"}
    return {"pass": True}


def case_theorem25(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    zero = LaurentPoly.zero(ctx, 1)
    one = LaurentPoly.one(ctx, 1)
    C = Connection(ctx, 1, m, 2, (((zero, one), (zero, zero)),))
    pres = ExtensionPresentation(C, (1, 1), ("trivial", "trivial"))
    rep = compare_theorem25(C, FrobLift.pure(ctx, 1), pres, 2)
    if not rep["pass"]:
        return {"pass": False, "report": rep["degrees"]}
    return {"pass": True}


def case_higgs(opts, p, n, m, d):
    for a in range(1, p):
        rep = higgs_vanishing(p, 1, (a,))
        if any(rep[i] for i in range(2)):
            return {"pass": False, "a": a}
    return {"pass": True}


def case_ov_example(opts, p, n, m, d):
    ctx = RingCtx(p, n)
    one = LaurentPoly.one(ctx, 1)
    C1 = Connection.rank1(ctx, 1, 0, [one])
    C0 = Connection.trivial(ctx, 1, 0)
    gens = hom_space(C1, C0, 5)
    witness = [g for g, e in gens
               if e == n and len(g[0][0].terms) == 1
               and g[0][0].terms[0][0] == (-1,)]
    if not witness:
        return {"pass": False, "why": "no t^-1 witness"}
    g = witness[0]
    moved = gauge(C1, g)
    if moved.theta[0][0][0] != C0.theta[0][0][0]:
        return {"pass": False, "why": "witness not horizontal"}
    C1m = Connection.rank1(ctx, 1, 1, [one])
    C0m = Connection.trivial(ctx, 1, 1)
    if hom_space(C1m, C0m, 5):
        return {"pass": False, "why": "level-1 hom not zero"}
    Ct = Connection.rank1(ctx, 1, 0, [LaurentPoly.var(ctx, 1, 1)])
    if descend_rank1(Ct, FrobLift.pure(ctx, 1))["obstruction"] is None:
        return {"pass": False, "why": "no obstruction certificate"}
    return {"pass": True}


def case_witt_identities(opts, p, n, m, d):
    rng = _rng(opts.seed, f"witt:{p}:{n}")
    ctx1 = RingCtx(p, 1)

    def rand_comp():
        return _rand_poly(rng, ctx1, 1, 1, deg=3)

    def rand_wv():
        return WittVector(p, n, tuple(rand_comp() for _ in range(n)))
    for trial in range(6):
        x, y = rand_wv(), rand_wv()
        s = x + y
        for k, g in enumerate(s.ghosts()):
            diff = g - (x.ghost(k) + y.ghost(k))
            if any(c % p ** (k + 1) for _, c in diff.terms):
                return {"pass": False, "law": "ghost-add"}
        m_ = x * y
        for k, g in enumerate(m_.ghosts()):
            diff = g - x.ghost(k) * y.ghost(k)
            if any(c % p ** (k + 1) for _, c in diff.terms):
                return {"pass": False, "law": "ghost-mul"}
        i, fr = x.normal_form()
        if nf_to_witt(i, fr, p, n).comps != x.comps:
            return {"pass": False, "law": "normal-form"}
        if n >= 2:
            if x.verschiebung().frobenius().comps != \
                    (x * p).restrict().comps:
                return {"pass": False, "law": "FV=p"}
            if drw_F(drw_d(x)) * p != drw_d(x.frobenius()):
                return {"pass": False, "law": "dF=pFd"}
            if drw_F(drw_d(x.verschiebung())) != drw_d(x.restrict()):
                return {"pass": False, "law": "FdV=d"}
        if drw_d(s) != drw_d(x) + drw_d(y):
            return {"pass": False, "law": "d-additive"}
    for r in range(1, n):
        rep = fractional_presentation_orders(p, n, r, p + 1)
        if not rep["verified"] or rep["orders"] != rep["predicted"]:
            return {"pass": False, "law": "fractional-orders", "r": r,
                    "report": rep}
    return {"pass": True}


def case_witt_compare(opts, p, n, m, d):
    ctx1 = RingCtx(p, 1)
    t = LaurentPoly.var(ctx1, 1, 1)
    T = WittVector.teichmuller
    pm = p ** m
    catalog = [
        ("zero", WittVector.zero(p, n)),
        ("p^m[t]", T(t, n) * pm),
        ("p^m[t^-1]", T(LaurentPoly.var(ctx1, 1, 1, -1), n) * pm),
    ]
    for name, f in catalog:
        rep = witt_compare(WittConnection(m, f), 2)
        if not rep["pass"]:
            return {"pass": False, "object": name,
                    "components": [c for c in rep["components"]
                                   if not (c["h0_ok"] and c["h1_ok"])]}
    # agreement with the classical connection of f through [t]: the raise
    # follows the rank-1 rule, and the integral clusters carry f's de Rham
    # complex, so their H^0 is compute_H's on the same window
    ctx = RingCtx(p, n)
    f = LaurentPoly.from_dict(ctx, 1, {(1,): pm, (0,): pm})
    C = WittConnection(m, integral_to_witt(f, n))
    want = integral_to_witt(frob_substitute(f, FrobLift.pure(ctx, 1)), n)
    if witt_level_raise(C).f.comps != want.comps:
        return {"pass": False, "object": "integral-embedding"}
    h0 = sorted(x for c in witt_compare(C, 2)["components"]
                if not any("/" in w for w in c["weights"]) for x in c["h0"])
    H = compute_H(Connection.rank1(ctx, 1, m, [f]), 0, 2, stability=False)
    classical = sorted(x for e in H.entries for x in e["divisors"])
    if h0 != classical:
        return {"pass": False, "object": "integral-embedding", "h0": h0,
                "classical": classical}
    return {"pass": True}


SUITES = {
    "prop4": _suite(
        "operator algebra: associativity, module action, composition",
        Family(case_prop4, {"p": DEFAULT_PRIMES, "n": range(1, 5),
                            "m": lambda n: range(n + 1), "d": (1, 2)})),
    "taylor-cocycle": _suite(
        "stratification series: comultiplication cocycle and inverse",
        Family(case_taylor, {"p": DEFAULT_PRIMES, "n": range(1, 4),
                             "m": lambda n: range(n + 1)})),
    # tau and level-raise pull back along a raise, which needs m >= 1 also
    # when --m pins the level
    "tau": _suite(
        "transition isomorphisms between Frobenius lifts",
        Family(case_tau, {"p": DEFAULT_PRIMES, "n": range(1, 4),
                          "m": lambda n: range(1, min(n, 2) + 1)},
               keep=lambda n, m: m >= 1)),
    "level-raise": _suite(
        "level raising: rank-1 rule, functoriality, lift chains",
        Family(case_level_raise, {"p": DEFAULT_PRIMES, "n": range(1, 4),
                                  "m": lambda n: range(1, min(n, 2) + 1)},
               keep=lambda n, m: m >= 1)),
    "descent": _suite(
        "rank-1 Frobenius descent with gauge witnesses",
        Family(case_descent, {"p": (2, 3), "n": (2, 3)})),
    "theorem25": _suite(
        "level-raise cohomology against the twist decomposition",
        Family(case_theorem25, {"p": (2, 3), "n": (2, 3, 4),
                                "m": lambda n: (1, 2)},
               keep=lambda n, m: (n, m) in {(2, 1), (3, 2), (4, 2)}),
        # the Higgs object lives over Z/p at level 1, the point n = m = 1
        Family(case_higgs, {"p": (2, 3), "n": (1,), "m": lambda n: (1,)},
               keep=lambda n, m: n == m == 1, name="higgs vanishing p={p}")),
    "ov-example": _suite(
        "torus example: hom collapse and essential-image obstruction",
        Family(case_ov_example, {"p": DEFAULT_PRIMES, "n": (2, 3)})),
    "witt-identities": _suite(
        "Witt arithmetic against the ghost oracle; F/V/d identities",
        Family(case_witt_identities, {"p": DEFAULT_PRIMES, "n": (2, 3, 4)})),
    "witt-compare": _suite(
        "Witt-side level-raise cohomology comparison",
        Family(case_witt_compare, {"p": (2, 3), "n": (2, 3),
                                   "m": lambda n: (1, 2)},
               keep=lambda n, m: (n, m) in {(2, 1), (3, 1), (3, 2)})),
}


# -- runners ----------------------------------------------------------------


def cmd_check(opts):
    if opts.suite not in SUITES:
        print(f"unknown suite {opts.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        anchor, cases = SUITES[opts.suite](opts)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not cases:
        print(f"the grid flags select no case of suite {opts.suite}",
              file=sys.stderr)
        return 2
    results = [fn() for _, fn in cases]
    wall = time.time() - t0
    failures = []
    for idx, ((name, _), res) in enumerate(zip(cases, results)):
        if not res.get("pass"):
            detail = {k: v for k, v in res.items() if k != "pass"}
            failures.append({"index": idx, "name": name,
                             "got": _plain(detail)})
    report = {"suite": opts.suite, "anchor": anchor, "seed": opts.seed,
              "cases": len(cases), "failures": failures,
              "wall_time": None if opts.format == "json" else round(wall, 2)}
    _emit(report, opts.format)
    return 0 if not failures else 1


def _plain(obj):
    """Make report details JSON-serializable."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, str, bool, float)) or obj is None:
        return obj
    return str(obj)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"suite: {report['suite']}" if "suite" in report else "report")
    for k, v in report.items():
        if k in ("suite",):
            continue
        if k == "failures":
            print(f"  failures: {len(v)}")
            for f in v:
                print(f"    - {f['name']}: {json.dumps(f.get('got'))}")
        else:
            print(f"  {k}: {v}")


def cmd_cohomology(opts):
    try:
        C = connection_from_json(_load_json(opts.file))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"cannot read connection file: {exc}", file=sys.stderr)
        return 2
    if opts.window < 0:
        print(f"--window {opts.window} is out of range: need >= 0",
              file=sys.stderr)
        return 2
    if not C.is_integrable():
        K = C.curvature()
        print("connection is not integrable; curvature:", file=sys.stderr)
        for (i, j), M in sorted(K):
            for r in range(C.rank):
                for c in range(C.rank):
                    if not M[r][c].is_zero():
                        print(f"  K[{i},{j}][{r}][{c}] = {M[r][c]}",
                              file=sys.stderr)
        return 1
    D = opts.window
    reports = []
    for i in range(C.d + 1):
        rep = compute_H(C, i, D)
        reports.append({"degree": i, "window": D,
                        "weights": rep.as_dict()["weights"],
                        "free_rank": rep.free_rank, "stable": rep.stable})
    out = {"p": C.ctx.p, "n": C.ctx.n, "m": C.m, "d": C.d, "rank": C.rank,
           "reports": reports}
    _emit(out, opts.format)
    return 0


def _connection_and_lift(path, lift_path):
    """The connection file at path and the lift file at lift_path (the pure
    lift when lift_path is None), or None after reporting why they cannot be
    used together."""
    try:
        C = connection_from_json(_load_json(path))
        F = lift_from_json(_load_json(lift_path)) if lift_path else \
            FrobLift.pure(C.ctx, C.d)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return None
    if C.ctx != F.ctx or C.d != F.d:
        print("connection and lift live on different charts", file=sys.stderr)
        return None
    return C, F


def cmd_raise(opts):
    if (read := _connection_and_lift(opts.file, opts.lift)) is None:
        return 2
    C, F = read
    if C.m == 0:
        print("connection is already at level 0; nothing to raise",
              file=sys.stderr)
        return 2
    C2 = level_raise(C, F)
    _emit(connection_to_json(C2), opts.format)
    return 0


def cmd_descend(opts):
    if (read := _connection_and_lift(opts.file, opts.lift)) is None:
        return 2
    C, F = read
    try:
        res = descend_rank1(C, F)
    except ValueError as exc:  # rank, level, impure lift, not integrable
        print(f"cannot descend: {exc}", file=sys.stderr)
        return 2
    if not res["ok"]:
        _emit({"ok": False, "obstruction": _plain(res["obstruction"])},
              opts.format)
        return 1
    _emit({"ok": True,
           "connection": connection_to_json(res["connection"]),
           "gauge": format_poly(res["gauge"])}, opts.format)
    return 0


def _add_format(sp):
    sp.add_argument("--format", choices=("json", "md"), default="md")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pmconn",
        description="verification suites and cohomology for p^m-connections "
                    "on the torus chart")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("suite")
    for flag in ("--p", "--n", "--m", "--d"):
        sp.add_argument(flag, type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_format(sp)
    sp.set_defaults(fn=cmd_check)
    sp = sub.add_parser("cohomology", help="cohomology of a connection file")
    sp.add_argument("file")
    sp.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    _add_format(sp)
    sp.set_defaults(fn=cmd_cohomology)
    sp = sub.add_parser("raise", help="level-raise a connection along a lift")
    sp.add_argument("file")
    sp.add_argument("lift")
    _add_format(sp)
    sp.set_defaults(fn=cmd_raise)
    sp = sub.add_parser("descend", help="rank-1 descent with gauge witness")
    sp.add_argument("file")
    sp.add_argument("--lift", default=None)
    _add_format(sp)
    sp.set_defaults(fn=cmd_descend)
    opts = parser.parse_args(argv)
    return opts.fn(opts)


if __name__ == "__main__":
    sys.exit(main())
