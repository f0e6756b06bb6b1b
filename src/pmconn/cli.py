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

from .arith import RingCtx
from .connection import (Connection, ExtensionPresentation, gauge,
                         is_quasi_nilpotent, mat_det)
from .cohomology import (compare_theorem25, compute_H, higgs_vanishing,
                         hom_space, rank1_trivial_test)
from .dops import (DiffOp, check_taylor_cocycle, check_taylor_inverse,
                   level_change, multi_indices_upto, op_apply, op_mul,
                   tau_transition, verify_tau)
from .frobenius import (FrobLift, LiftChain, descend_rank1,
                        essential_image_rank1, level_raise, psi)
from .laurent import LaurentPoly, frob_substitute, parse_poly, format_poly
from .witt import (WittConnection, WittVector, drw_F, drw_d,
                   fractional_presentation_orders, integral_to_witt,
                   mul_dlog, nf_to_witt, witt_compare,
                   witt_connection_from_json, witt_connection_to_json,
                   witt_level_raise)

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_WINDOW = 8


# -- file formats ---------------------------------------------------------------


def connection_from_json(obj):
    p, n, m, d, rank = (int(obj[k]) for k in ("p", "n", "m", "d", "rank"))
    ctx = RingCtx(p, n)
    basis = obj.get("basis", "dlog")
    if basis not in ("dlog", "dt"):
        raise ValueError(f"unknown basis {basis!r}")
    theta = []
    for i in range(d):
        rows = obj["theta"][i]
        M = []
        for r in range(rank):
            row = []
            for c in range(rank):
                f = parse_poly(rows[r][c], ctx, d)
                if basis == "dt":
                    f = f * LaurentPoly.var(ctx, d, i + 1)
                row.append(f)
            M.append(tuple(row))
        theta.append(tuple(M))
    return Connection(ctx, d, m, rank, tuple(theta))


def connection_to_json(C):
    return {"p": C.ctx.p, "n": C.ctx.n, "m": C.m, "d": C.d, "rank": C.rank,
            "basis": "dlog",
            "theta": [[[format_poly(C.theta[i][r][c])
                        for c in range(C.rank)] for r in range(C.rank)]
                      for i in range(C.d)]}


def lift_from_json(obj):
    p, n, d = int(obj["p"]), int(obj["n"]), int(obj["d"])
    ctx = RingCtx(p, n)
    a = tuple(parse_poly(s, ctx, d) for s in obj["a"])
    return FrobLift(ctx, d, a)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- shared generators ------------------------------------------------------


def _rng(seed, tag):
    return random.Random(f"{seed}:{tag}")


def _rand_poly(rng, ctx, d, terms, deg=2, scale=1):
    acc = {}
    for _ in range(terms):
        e = tuple(rng.randint(-deg, deg) for _ in range(d))
        acc[e] = acc.get(e, 0) + rng.randrange(1, ctx.modulus) * scale
    return LaurentPoly.from_dict(ctx, d, acc)


def _rand_op(rng, ctx, d, m, order, terms=2):
    acc = {}
    for _ in range(terms):
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


def _grid(opts, primes=DEFAULT_PRIMES, n_max=4, m_of_n=None, d_max=1):
    ps = [opts.p] if opts.p else list(primes)
    ns = [opts.n] if opts.n else list(range(1, n_max + 1))
    out = []
    for p in ps:
        for n in ns:
            ms = [opts.m] if opts.m is not None else \
                list(range(0, (m_of_n(n) if m_of_n else n) + 1))
            for m in ms:
                if m > n:
                    continue
                ds = [opts.d] if opts.d else list(range(1, d_max + 1))
                for d in ds:
                    out.append((p, n, m, d))
    return out


# -- suites ---------------------------------------------------------------------
#
# Each suite builds a deterministic list of (name, thunk) cases; a thunk
# returns {"pass": bool, ...context...}.  The anchor string names the
# identity under test, for cross-referencing reports.


def suite_prop4(opts):
    cases = []
    for p, n, m, d in _grid(opts, d_max=2):
        def run(p=p, n=n, m=m, d=d):
            ctx = RingCtx(p, n)
            rng = _rng(opts.seed, f"prop4:{p}:{n}:{m}:{d}")
            for trial in range(12):
                P = _rand_op(rng, ctx, d, m, 4)
                Q = _rand_op(rng, ctx, d, m, 4)
                R = _rand_op(rng, ctx, d, m, 4)
                f = _rand_poly(rng, ctx, d, 2)
                lhs = op_mul(op_mul(P, Q), R)
                rhs = op_mul(P, op_mul(Q, R))
                if lhs.terms != rhs.terms:
                    return {"pass": False, "law": "associativity",
                            "trial": trial}
                if op_apply(op_mul(P, Q), f).terms != \
                        op_apply(P, op_apply(Q, f)).terms:
                    return {"pass": False, "law": "module-action",
                            "trial": trial}
                # divided operators compose by plain iteration
                l1 = tuple(rng.randint(0, 2) for _ in range(d))
                l2 = tuple(rng.randint(0, 2) for _ in range(d))
                D1 = DiffOp.partial(ctx, d, m, l1)
                D2 = DiffOp.partial(ctx, d, m, l2)
                l12 = tuple(a + b for a, b in zip(l1, l2))
                if op_mul(D1, D2).terms != \
                        DiffOp.partial(ctx, d, m, l12).terms:
                    return {"pass": False, "law": "divided-composition",
                            "trial": trial}
                if m >= 1:
                    Pl = level_change(P, m - 1)
                    Ql = level_change(Q, m - 1)
                    if level_change(op_mul(P, Q), m - 1).terms != \
                            op_mul(Pl, Ql).terms:
                        return {"pass": False, "law": "level-change-hom",
                                "trial": trial}
            return {"pass": True}
        cases.append((f"p={p} n={n} m={m} d={d}", run))
    return "operator algebra: associativity, module action, composition", cases


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


def suite_taylor(opts):
    cases = []
    for p, n, m, d in _grid(opts, n_max=3):
        def run(p=p, n=n, m=m):
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
        cases.append((f"p={p} n={n} m={m}", run))
    return "stratification series: comultiplication cocycle and inverse", cases


def suite_tau(opts):
    cases = []
    for p, n, m, d in _grid(opts, n_max=3, m_of_n=lambda n: min(n, 2)):
        if m == 0:
            continue
        def run(p=p, n=n, m=m):
            ctx = RingCtx(p, n)
            ctx_ext = RingCtx(p, n + m)
            rng = _rng(opts.seed, f"tau:{p}:{n}:{m}")
            t_ext = LaurentPoly.var(ctx_ext, 1, 1)
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
                if not verify_tau(C, f1, f2, T, level_raise):
                    return {"pass": False, "trial": trial,
                            "why": "gauge relation"}
                # tau is the identity when the lifts agree mod p^{n+m}
                Tid = tau_transition(C, f1, f1)
                ident = all(
                    Tid[i][j] == (LaurentPoly.one(ctx, 1) if i == j
                                  else LaurentPoly.zero(ctx, 1))
                    for i in range(C.rank) for j in range(C.rank))
                if not ident:
                    return {"pass": False, "trial": trial, "why": "not-id"}
            return {"pass": True}
        cases.append((f"p={p} n={n} m={m}", run))
    return "transition isomorphisms between Frobenius lifts", cases


def suite_level_raise(opts):
    cases = []
    for p, n, m, d in _grid(opts, n_max=3, m_of_n=lambda n: min(n, 2)):
        if m == 0:
            continue
        def run(p=p, n=n, m=m):
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
                chain = LiftChain(tuple(FrobLift.pure(ctx, 1)
                                        for _ in range(m)))
                f = _rand_poly(_rng(opts.seed, f"lrc:{p}:{n}:{m}"), ctx, 1, 1)
                C = Connection.rank1(ctx, 1, m, [f])
                top = psi(C, chain)
                sub = f
                for _ in range(m):
                    sub = frob_substitute(sub, FrobLift.pure(ctx, 1))
                if top.theta[0][0][0] != sub or top.m != 0:
                    return {"pass": False, "law": "lift-chain"}
            return {"pass": True}
        cases.append((f"p={p} n={n} m={m}", run))
    return "level raising: rank-1 rule, functoriality, lift chains", cases


def suite_descent(opts):
    cases = []
    ps = [opts.p] if opts.p else [2, 3]
    ns = [opts.n] if opts.n else [2, 3]
    for p in ps:
        for n in ns:
            def run(p=p, n=n):
                ctx = RingCtx(p, n)
                F = FrobLift.pure(ctx, 1)
                rng = _rng(opts.seed, f"descent:{p}:{n}")
                for trial in range(8):
                    up = Connection.rank1(
                        ctx, 1, 1, [_rand_poly(rng, ctx, 1, 1, deg=1)])
                    down = level_raise(up, F)
                    res = descend_rank1(down, F)
                    if not res["ok"]:
                        return {"pass": False, "trial": trial,
                                "why": res["obstruction"]}
                    g = res["gauge"]
                    back = gauge(down, ((g,),))
                    again = level_raise(res["connection"], F)
                    if back.theta[0][0][0] != again.theta[0][0][0]:
                        return {"pass": False, "trial": trial,
                                "why": "round-trip"}
                bad = Connection.rank1(ctx, 1, 0,
                                       [LaurentPoly.var(ctx, 1, 1)])
                res = descend_rank1(bad, F)
                if res["ok"] or res["obstruction"] is None:
                    return {"pass": False, "why": "missing obstruction"}
                return {"pass": True}
            cases.append((f"p={p} n={n}", run))
    return "rank-1 Frobenius descent with gauge witnesses", cases


def suite_theorem25(opts):
    cases = []
    ps = [opts.p] if opts.p else [2, 3]
    for p in ps:
        for n, m in [(2, 1), (3, 2), (4, 2)]:
            if opts.n and n != opts.n:
                continue
            if opts.m is not None and m != opts.m:
                continue
            def run(p=p, n=n, m=m):
                ctx = RingCtx(p, n)
                zero = LaurentPoly.zero(ctx, 1)
                one = LaurentPoly.one(ctx, 1)
                C = Connection(ctx, 1, m, 2, (((zero, one), (zero, zero)),))
                pres = ExtensionPresentation(C, (1, 1),
                                             ("trivial", "trivial"))
                F = FrobLift.pure(ctx, 1)
                rep = compare_theorem25(C, F, pres, 2)
                if not rep["pass"]:
                    return {"pass": False, "report": rep["degrees"]}
                return {"pass": True}
            cases.append((f"p={p} n={n} m={m}", run))
    for p in ps:
        def run_h(p=p):
            for a in range(1, p):
                rep = higgs_vanishing(p, 1, (a,))
                if any(rep[i] for i in range(2)):
                    return {"pass": False, "a": a}
            return {"pass": True}
        cases.append((f"higgs vanishing p={p}", run_h))
    return "level-raise cohomology against the twist decomposition", cases


def suite_ov_example(opts):
    cases = []
    ps = [opts.p] if opts.p else list(DEFAULT_PRIMES)
    ns = [opts.n] if opts.n else [2, 3]
    for p in ps:
        for n in ns:
            def run(p=p, n=n):
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
                rep = essential_image_rank1(Ct)
                if rep["in_image"] is not False:
                    return {"pass": False, "why": "no obstruction certificate"}
                return {"pass": True}
            cases.append((f"p={p} n={n}", run))
    return "torus example: hom collapse and essential-image obstruction", cases


def suite_witt_identities(opts):
    cases = []
    ps = [opts.p] if opts.p else list(DEFAULT_PRIMES)
    ns = [opts.n] if opts.n else [2, 3, 4]
    for p in ps:
        for n in ns:
            def run(p=p, n=n):
                rng = _rng(opts.seed, f"witt:{p}:{n}")
                ctx1 = RingCtx(p, 1)

                def rand_comp():
                    return _rand_poly(rng, ctx1, 1, 1, deg=3)

                def rand_wv():
                    return WittVector(p, n, tuple(rand_comp()
                                                  for _ in range(n)))
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
                        if drw_F(drw_d(x.verschiebung())) != \
                                drw_d(x.restrict()):
                            return {"pass": False, "law": "FdV=d"}
                    if drw_d(x + y) != drw_d(x) + drw_d(y):
                        return {"pass": False, "law": "d-additive"}
                for r in range(1, n):
                    rep = fractional_presentation_orders(p, n, r, p + 1)
                    if not rep["verified"] or \
                            rep["orders"] != rep["predicted"]:
                        return {"pass": False, "law": "fractional-orders",
                                "r": r, "report": rep}
                return {"pass": True}
            cases.append((f"p={p} n={n}", run))
    return "Witt arithmetic against the ghost oracle; F/V/d identities", cases


def suite_witt_compare(opts):
    cases = []
    ps = [opts.p] if opts.p else [2, 3]
    for p in ps:
        for n, m in [(2, 1), (3, 1), (3, 2)]:
            if opts.n and n != opts.n:
                continue
            if opts.m is not None and m != opts.m:
                continue
            def run(p=p, n=n, m=m):
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
                                               if not (c["h0_ok"]
                                                       and c["h1_ok"])]}
                # agreement with the classical rule through [t]
                ctx = RingCtx(p, n)
                f = LaurentPoly.from_dict(ctx, 1, {(1,): pm, (0,): pm})
                wf = integral_to_witt(f, n)
                raised = witt_level_raise(WittConnection(m, wf))
                want = integral_to_witt(
                    frob_substitute(f, FrobLift.pure(ctx, 1)), n)
                if raised.f.comps != want.comps:
                    return {"pass": False, "object": "integral-embedding"}
                return {"pass": True}
            cases.append((f"p={p} n={n} m={m}", run))
    return "Witt-side level-raise cohomology comparison", cases


# The grid flags each suite reads; cmd_check rejects the others rather than
# ignore them.
SUITE_FLAGS = {
    "prop4": ("p", "n", "m", "d"),
    "taylor-cocycle": ("p", "n", "m"),
    "tau": ("p", "n", "m"),
    "level-raise": ("p", "n", "m"),
    "descent": ("p", "n"),
    "theorem25": ("p", "n", "m"),
    "ov-example": ("p", "n"),
    "witt-identities": ("p", "n"),
    "witt-compare": ("p", "n", "m"),
}

SUITES = {
    "prop4": suite_prop4,
    "taylor-cocycle": suite_taylor,
    "tau": suite_tau,
    "level-raise": suite_level_raise,
    "descent": suite_descent,
    "theorem25": suite_theorem25,
    "ov-example": suite_ov_example,
    "witt-identities": suite_witt_identities,
    "witt-compare": suite_witt_compare,
}


# -- runners ----------------------------------------------------------------


def cmd_check(opts):
    if opts.suite not in SUITES:
        print(f"unknown suite {opts.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    ignored = [f"--{f}" for f in ("p", "n", "m", "d")
               if getattr(opts, f) is not None
               and f not in SUITE_FLAGS[opts.suite]]
    if ignored:
        print(f"suite {opts.suite} does not read {' '.join(ignored)}",
              file=sys.stderr)
        return 2
    t0 = time.time()
    anchor, cases = SUITES[opts.suite](opts)
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
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"cannot read connection file: {exc}", file=sys.stderr)
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


def cmd_raise(opts):
    try:
        C = connection_from_json(_load_json(opts.file))
        F = lift_from_json(_load_json(opts.lift))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    if C.m == 0:
        print("connection is already at level 0; nothing to raise",
              file=sys.stderr)
        return 2
    if C.ctx != F.ctx or C.d != F.d:
        print("connection and lift live on different charts", file=sys.stderr)
        return 2
    C2 = level_raise(C, F)
    _emit(connection_to_json(C2), opts.format)
    return 0


def cmd_descend(opts):
    try:
        C = connection_from_json(_load_json(opts.file))
        F = lift_from_json(_load_json(opts.lift)) if opts.lift else \
            FrobLift.pure(C.ctx, C.d)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    if C.rank != 1 or C.d != 1 or C.m != 0:
        print("descent is implemented for rank-1 level-0 connections on the "
              "1-dimensional chart", file=sys.stderr)
        return 2
    res = descend_rank1(C, F)
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
