"""End-to-end acceptance checks with explicit runtime budgets.

Each test pins down one contract of the package on a fixed grid: the torus
example catalog, the operator algebra laws, stratification, transition
isomorphisms, level raising, descent, the twist-decomposition comparison,
Witt arithmetic, the Witt-side comparison, and determinism of the CLI
suites.  Tolerances are exact (bit equality mod p^n) throughout.
"""

import hashlib
import json
import math
import random
import time

import pytest

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, FrobLift, frob_substitute, parse_poly
from pmconn.connection import (Connection, gauge, is_quasi_nilpotent,
                               ExtensionPresentation, mat_matmul, mat_det)
from pmconn.dops import (DiffOp, op_mul, op_apply, level_change,
                         check_taylor_cocycle, check_taylor_inverse,
                         tau_transition, verify_tau)
from pmconn.frobenius import (level_raise, LiftChain, psi,
                              essential_image_rank1, descend_rank1)
from pmconn.cohomology import (compute_H, hom_space, compare_theorem25,
                               higgs_vanishing)
from pmconn.witt import (WittVector, nf_to_witt, drw_d, drw_F, mul_dlog,
                         integral_to_witt, WittConnection, witt_level_raise,
                         witt_compare, fractional_presentation_orders)
from pmconn.cli import main, _rng, _rand_poly, _rand_op, _rank2_nilpotent, \
    _rank1_catalog, SUITES


class budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.1f}s exceeds the {self.seconds}s budget"


def test_acceptance_1_torus_example_catalog():
    with budget(10):
        for p in (2, 3, 5):
            for n in (2, 3, 4):
                ctx = RingCtx(p, n)
                one = LaurentPoly.one(ctx, 1)
                # (a) hom collapse between levels, with a verified witness
                C1 = Connection.rank1(ctx, 1, 0, [one])
                C0 = Connection.trivial(ctx, 1, 0)
                gens = hom_space(C1, C0, 5)
                wit = [g for g, e in gens
                       if e == n and len(g[0][0].terms) == 1
                       and g[0][0].terms[0][0] == (-1,)]
                assert wit, f"no t^-1 witness at p={p} n={n}"
                moved = gauge(C1, wit[0])
                assert moved.theta[0][0][0] == C0.theta[0][0][0]
                D1 = Connection.rank1(ctx, 1, 1, [one])
                D0 = Connection.trivial(ctx, 1, 1)
                assert hom_space(D1, D0, 5) == []
                # (b) (O, nabla_t) is not a level raise of anything rank 1
                Ct = Connection.rank1(ctx, 1, 0, [LaurentPoly.var(ctx, 1, 1)])
                rep = essential_image_rank1(Ct)
                assert rep["in_image"] is False
                assert rep["obstruction"]
                # (c) divided powers of nabla_{p^{m-1}} at level m
                for m in (1, 2):
                    C = Connection.rank1(
                        ctx, 1, m, [LaurentPoly.const(ctx, 1, p ** (m - 1))])
                    e = C.basis_vector(0)
                    for l in range(1, 2 * n + 1):
                        c = 1
                        for i in range(l):
                            c *= p ** (m - 1) - i * p ** m
                        got = C.theta_power_apply_dt((l,), e)[0]
                        assert got == LaurentPoly.monomial(ctx, 1, (-l,), c)
                # (d) nabla_{pt} at level 0: the derivative ladder is p^l
                Cpt = Connection.rank1(ctx, 1, 0,
                                       [parse_poly(f"{p}*t1^1", ctx, 1)])
                e = Cpt.basis_vector(0)
                for l in range(1, 2 * n + 1):
                    got = Cpt.theta_power_apply_dt((l,), e)[0]
                    assert got == LaurentPoly.const(ctx, 1, p ** l)


def test_acceptance_2_operator_algebra():
    with budget(30):
        for p in (2, 3, 5):
            for n in range(1, 5):
                for m in range(0, min(n, 2) + 1):
                    for d in (1, 2):
                        ctx = RingCtx(p, n)
                        rng = _rng(0, f"acc2:{p}:{n}:{m}:{d}")
                        # 170 triples = 510 random operators per grid point
                        for _ in range(170):
                            P = _rand_op(rng, ctx, d, m, 4)
                            Q = _rand_op(rng, ctx, d, m, 4)
                            R = _rand_op(rng, ctx, d, m, 4)
                            assert op_mul(op_mul(P, Q), R).terms == \
                                op_mul(P, op_mul(Q, R)).terms
                            f = _rand_poly(rng, ctx, d, 2)
                            assert op_apply(op_mul(P, Q), f) == \
                                op_apply(P, op_apply(Q, f))
                        # divided-power composition and level change
                        rng2 = _rng(1, f"acc2b:{p}:{n}:{m}:{d}")
                        for _ in range(8):
                            l1 = tuple(rng2.randint(0, 2) for _ in range(d))
                            l2 = tuple(rng2.randint(0, 2) for _ in range(d))
                            D1 = DiffOp.partial(ctx, d, m, l1)
                            D2 = DiffOp.partial(ctx, d, m, l2)
                            l12 = tuple(a + b for a, b in zip(l1, l2))
                            assert op_mul(D1, D2).terms == \
                                DiffOp.partial(ctx, d, m, l12).terms
                            if m >= 1:
                                P = _rand_op(rng2, ctx, d, m, 3)
                                Q = _rand_op(rng2, ctx, d, m, 3)
                                assert level_change(op_mul(P, Q), m - 1).terms \
                                    == op_mul(level_change(P, m - 1),
                                              level_change(Q, m - 1)).terms


def test_acceptance_3_stratification():
    with budget(60):
        rank2_seen = 0
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for m in range(0, min(n, 2) + 1):
                    ctx = RingCtx(p, n)
                    for name, C in _rank1_catalog(ctx, m):
                        if not is_quasi_nilpotent(C):
                            continue
                        e = C.basis_vector(0)
                        assert check_taylor_cocycle(C, e, 6), (p, n, m, name)
                        assert check_taylor_inverse(C, e, 6), (p, n, m, name)
                    rng = _rng(0, f"acc3:{p}:{n}:{m}")
                    got = 0
                    for _ in range(12):
                        if got == 3:
                            break
                        C = _rank2_nilpotent(rng, ctx, m)
                        if not is_quasi_nilpotent(C):
                            continue
                        for j in range(2):
                            e = C.basis_vector(j)
                            assert check_taylor_cocycle(C, e, 6)
                            assert check_taylor_inverse(C, e, 6)
                        got += 1
                        rank2_seen += 1
        assert rank2_seen >= 50


def test_acceptance_4_transition_isomorphisms():
    with budget(60):
        pairs = 0
        for p in (2, 3, 5):
            for n in (1, 2):
                for m in range(1, min(n, 2) + 1):
                    ctx = RingCtx(p, n)
                    ctx_ext = RingCtx(p, n + m)
                    rng = _rng(0, f"acc4:{p}:{n}:{m}")

                    def lift():
                        a = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
                        return FrobLift(ctx_ext, 1, (a * (p ** (n - 1)),))

                    for trial in range(12):
                        C = Connection.rank1(
                            ctx, 1, m, [LaurentPoly.const(ctx, 1, p ** m)])
                        if trial % 2:
                            C = _rank2_nilpotent(rng, ctx, m)
                        f1, f2 = lift(), lift()
                        T = tau_transition(C, f1, f2)
                        assert mat_det(T).is_unit()
                        assert verify_tau(C, f1, f2, T)
                        # tau = id when the lifts agree mod p^{n+m}
                        Tid = tau_transition(C, f1, f1)
                        ident = all(
                            Tid[i][j] == (LaurentPoly.one(ctx, 1) if i == j
                                          else LaurentPoly.zero(ctx, 1))
                            for i in range(C.rank) for j in range(C.rank))
                        assert ident
                        pairs += 1
                    # composition law on triples
                    for trial in range(3):
                        C = _rank2_nilpotent(rng, ctx, m)
                        f1, f2, f3 = lift(), lift(), lift()
                        T12 = tau_transition(C, f1, f2)
                        T23 = tau_transition(C, f2, f3)
                        T13 = tau_transition(C, f1, f3)
                        comp = mat_matmul(T12, T23)
                        assert all((a - b).is_zero()
                                   for ra, rb in zip(comp, T13)
                                   for a, b in zip(ra, rb))
        assert pairs >= 100


def test_acceptance_5_level_raising_functoriality():
    with budget(30):
        for p in (2, 3, 5):
            for n in range(1, 5):
                ctx = RingCtx(p, n)
                F = FrobLift.pure(ctx, 1)
                rng = _rng(0, f"acc5:{p}:{n}")
                for m in range(1, min(n, 2) + 1):
                    for _ in range(4):
                        f = _rand_poly(rng, ctx, 1, 2)
                        C = Connection.rank1(ctx, 1, m, [f])
                        C2 = level_raise(C, F)
                        assert C2.theta[0][0][0] == frob_substitute(f, F)
                        D = _rank2_nilpotent(rng, ctx, m)
                        D2 = level_raise(D, F)
                        assert D2.is_integrable()
                        if is_quasi_nilpotent(D):
                            assert is_quasi_nilpotent(D2)
                # Psi over a full chain of a=0 lifts: f(t) -> f(t^{p^n})
                f = _rand_poly(rng, ctx, 1, 2)
                C = Connection.rank1(ctx, 1, n, [f])
                chain = LiftChain(tuple(FrobLift.pure(ctx, 1)
                                        for _ in range(n)))
                top = psi(C, chain)
                sub = f
                for _ in range(n):
                    sub = frob_substitute(sub, FrobLift.pure(ctx, 1))
                assert top.m == 0 and top.theta[0][0][0] == sub


def test_acceptance_6_rank1_descent():
    with budget(60):
        succeeded = 0
        for p in (2, 3):
            for n in (1, 2, 3):
                ctx = RingCtx(p, n)
                F = FrobLift.pure(ctx, 1)
                rng = _rng(0, f"acc6:{p}:{n}")
                for trial in range(9):
                    up = Connection.rank1(
                        ctx, 1, 1, [_rand_poly(rng, ctx, 1, 1, deg=1)])
                    down = level_raise(up, F)
                    res = descend_rank1(down, F)
                    assert res["ok"], (p, n, trial, res["obstruction"])
                    g = res["gauge"]
                    assert g.is_unit()
                    back = gauge(down, ((g,),))
                    again = level_raise(res["connection"], F)
                    assert back.theta[0][0][0] == again.theta[0][0][0]
                    succeeded += 1
                # the non-quasi-nilpotent example fails with a certificate
                bad = Connection.rank1(ctx, 1, 0, [LaurentPoly.var(ctx, 1, 1)])
                res = descend_rank1(bad, F)
                assert not res["ok"]
                assert res["obstruction"] is not None
        assert succeeded >= 50


def _upper_shift(ctx, rank, m):
    z = LaurentPoly.zero(ctx, 1)
    one = LaurentPoly.one(ctx, 1)
    th = [[one if c == r + 1 else z for c in range(rank)]
          for r in range(rank)]
    C = Connection(ctx, 1, m, rank, (th,))
    P = ExtensionPresentation(C, (1,) * rank, ("trivial",) * rank)
    return C, P


def test_acceptance_7_twist_decomposition_comparison():
    with budget(120):
        cases = [
            (3, 2, 1, 1),  # p, n, m, extension length - 1... rank below
            (2, 3, 2, 2),
            (3, 3, 2, 2),
            (2, 4, 3, 3),
            (3, 4, 3, 3),
        ]
        for p, n, m, rank in cases:
            ctx = RingCtx(p, n)
            C, P = _upper_shift(ctx, max(rank, 1), m)
            rep = compare_theorem25(C, FrobLift.pure(ctx, 1), P, 2)
            assert rep["pass"], (p, n, m, rank, rep)
            assert rep["zero_twist_is_original"]
            for i, f in rep["degrees"].items():
                assert f["decomposition"], (p, n, m, i)
                assert f["bound"], (p, n, m, i)
                assert f["h0"], (p, n, m, i)
        # (d) Ogus vanishing input over Z/pZ
        for p in (2, 3, 5):
            for a in range(1, p):
                rep = higgs_vanishing(p, 1, (a,))
                assert all(not entries for entries in rep)


def _sparse_comp(rng, p, terms, deg=2):
    out = {}
    for _ in range(terms):
        out[(rng.randrange(-deg, deg + 1),)] = rng.randrange(p)
    return LaurentPoly.from_dict(RingCtx(p, 1), 1, out)


def test_acceptance_8_witt_identities():
    with budget(120):
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                rng = _rng(0, f"acc8:{p}:{n}")
                terms = 1 if (p == 5 and n == 4) else 2
                for _ in range(200):
                    x = WittVector(p, n, tuple(_sparse_comp(rng, p, terms)
                                               for _ in range(n)))
                    y = WittVector(p, n, tuple(_sparse_comp(rng, p, terms)
                                               for _ in range(n)))
                    gx, gy = x.ghosts(), y.ghosts()
                    for op, gop in (((x + y), [a + b for a, b in zip(gx, gy)]),
                                    ((x * y), [a * b for a, b in zip(gx, gy)]),
                                    ((x - y), [a - b for a, b in zip(gx, gy)])):
                        for k, g in enumerate(op.ghosts()):
                            diff = g - gop[k]
                            assert all(c % p ** (k + 1) == 0
                                       for _, c in diff.terms)
                rng2 = _rng(1, f"acc8b:{p}:{n}")
                rng3 = _rng(2, f"acc8c:{p}:{n}")
                for _ in range(10):
                    x = WittVector(p, n, tuple(_sparse_comp(rng2, p, 2)
                                               for _ in range(n)))
                    i, fr = x.normal_form()
                    assert nf_to_witt(i, fr, p, n).comps == x.comps
                    if n >= 2:
                        assert x.verschiebung().frobenius().comps == \
                            (x * p).restrict().comps            # FV = p
                        assert drw_F(drw_d(x)) * p == \
                            drw_d(x.frobenius())                # dF = pFd
                        assert drw_F(drw_d(x.verschiebung())) == \
                            drw_d(x.restrict())                 # FdV = d
                    # d kills the image of Z: d(c) = 0 and d(x + c) = dx
                    c = WittVector.from_int(rng3.randrange(1, p ** n), p, n)
                    assert drw_d(c).is_zero()
                    assert drw_d(x + c) == drw_d(x)
                if n >= 3:
                    t = LaurentPoly.monomial(RingCtx(p, 1), 1, (1,), 1)
                    tx = WittVector.teichmuller(t, n)
                    lhs = drw_F(drw_d(tx))          # Fd[x] = [x]^{p-1} d[x]
                    rhs = mul_dlog(
                        math.prod([tx] * (p - 1)).restrict() *
                        WittVector.teichmuller(
                            LaurentPoly.monomial(RingCtx(p, 1), 1, (1,), 1),
                            n - 1))
                    assert lhs.integral == rhs.integral and lhs.frac == rhs.frac
        # fractional-part group orders on the full sub-grid
        for p in (2, 3, 5):
            for n in (2, 3):
                for r in range(1, n):
                    bound = 20 * p ** r  # |weight| = |j| / p^r <= 20
                    for j in range(-bound, bound + 1):
                        if j == 0 or j % p == 0:
                            continue
                        rep = fractional_presentation_orders(p, n, r, j)
                        assert rep["verified"], (p, n, r, j)
                        assert rep["orders"] == rep["predicted"] == [n - r]


def test_acceptance_9_witt_comparison():
    with budget(120):
        for p in (2, 3):
            for n, m in ((2, 1), (3, 1), (3, 2)):
                ctx1 = RingCtx(p, 1)
                t = LaurentPoly.var(ctx1, 1, 1)
                tinv = LaurentPoly.var(ctx1, 1, 1, -1)
                pm = p ** m
                catalog = [
                    WittVector.zero(p, n),
                    WittVector.teichmuller(t, n) * pm,
                    WittVector.teichmuller(tinv, n) * pm,
                    WittVector.from_int(pm, p, n),
                ]
                for f in catalog:
                    rep = witt_compare(WittConnection(m, f), 3)
                    assert rep["pass"], (p, n, m, rep)
                    assert rep["chain_map"]
                # integral-embedding agreement with the classical rule
                ctx = RingCtx(p, n)
                rng = _rng(0, f"acc9:{p}:{n}:{m}")
                for _ in range(4):
                    poly = _rand_poly(rng, ctx, 1, 2, deg=2) * pm
                    wf = integral_to_witt(poly, n)
                    raised = witt_level_raise(WittConnection(m, wf))
                    want = integral_to_witt(
                        frob_substitute(poly, FrobLift.pure(ctx, 1)), n)
                    assert raised.f.comps == want.comps


# SHA-256 of each suite's JSON report at --seed 11.  The reports are exact
# results, so any change to them has to be explained and these re-recorded.
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


def test_acceptance_10_determinism_and_stability(capsys):
    with budget(120):
        for suite in SUITES:
            outs = []
            for _ in range(2):
                code = main(["check", suite, "--seed", "11",
                             "--format", "json"])
                captured = capsys.readouterr()
                assert code == 0, (suite, captured.out)
                outs.append(captured.out)
            assert outs[0] == outs[1], f"suite {suite} is not deterministic"
            assert hashlib.sha256(outs[0].encode()).hexdigest() == \
                SUITE_REPORT_SHA256[suite], f"suite {suite} report changed"
            rep = json.loads(outs[0])
            assert rep["failures"] == []
        # cohomology reports are stable at the default window
        for p, n, m in ((3, 2, 0), (3, 2, 1), (2, 3, 1)):
            ctx = RingCtx(p, n)
            catalog = [Connection.trivial(ctx, 1, m),
                       Connection.rank1(
                           ctx, 1, m,
                           [LaurentPoly.const(ctx, 1, p ** m)]),
                       _rank2_nilpotent(_rng(0, f"acc10:{p}:{n}:{m}"),
                                        ctx, m)]
            for C in catalog:
                for i in (0, 1):
                    assert compute_H(C, i, 8).stable
