import hashlib
import json
import math
import random
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

from pmconn import cli, witt
from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly
from pmconn.linalg import freeze_columns
from pmconn.witt import (WittVector, nf_to_witt, drw_d, drw_F,
                         mul_dlog, integral_to_witt, WittConnection,
                         witt_level_raise, witt_compare,
                         fractional_presentation_orders, NotNilpotent)


def _ctx1(p):
    return RingCtx(p, 1)


def _sparse(rng, p, terms=2, deg=2):
    out = {}
    for _ in range(terms):
        out[(rng.randrange(-deg, deg + 1),)] = rng.randrange(p)
    return LaurentPoly.from_dict(_ctx1(p), 1, out)


def _rand_witt(rng, p, n):
    return WittVector(p, n, tuple(_sparse(rng, p) for _ in range(n)))


wparams = st.tuples(st.sampled_from([2, 3, 5]),
                    st.integers(min_value=1, max_value=4),
                    st.integers(min_value=0, max_value=10 ** 6))


@given(wparams)
@settings(max_examples=40, deadline=None)
def test_ring_ops_against_ghost_oracle(args):
    p, n, seed = args
    rng = random.Random(seed)
    x = _rand_witt(rng, p, n)
    y = _rand_witt(rng, p, n)
    gx, gy = x.ghosts(), y.ghosts()

    def agree(got, want):
        # ghost_k is only well-defined modulo p^{k+1} given components mod p
        for k, (a, b) in enumerate(zip(got, want)):
            if not all(c % p ** (k + 1) == 0 for c in (a - b).as_dict().values()):
                return False
        return True

    assert agree((x + y).ghosts(), [a + b for a, b in zip(gx, gy)])
    assert agree((x * y).ghosts(), [a * b for a, b in zip(gx, gy)])
    assert agree((x - y).ghosts(), [a - b for a, b in zip(gx, gy)])
    # distributivity is exact on components
    z = _rand_witt(rng, p, n)
    assert (x * (y + z)).comps == (x * y + x * z).comps


def _ghosts_by_definition(x, ctx, top):
    """w_k = sum_{i<=k} p^i x_i^{p^{k-i}} mod ctx, term by term."""
    p = x.p
    return [sum((x.comps[i].reduce_to(ctx) ** p ** (k - i) * p ** i
                 for i in range(min(k + 1, x.n))), LaurentPoly.zero(ctx, 1))
            for k in range(top + 1)]


def _memo_grid():
    for p in (2, 3, 5):
        for n in range(1, 5):
            rng = random.Random(100 * p + n)
            for _ in range(2):
                yield p, n, _rand_witt(rng, p, n), _rand_witt(rng, p, n)


def test_ghost_memo_is_the_vectors_own():
    # A result's ghosts are those of its components, not the ghost list it
    # was inverted from (the two agree only mod p^{k+1}).
    for p, n, x, y in _memo_grid():
        rng = random.Random(7 * p + n)
        scalars = (0, 1, -1, p, p * p, rng.randrange(-p ** n, p ** n))
        results = [x, x + y, x * y, x - y, x.frobenius_same_level(),
                   nf_to_witt(*x.normal_form(), p, n)]
        results += [x * c for c in scalars]
        results += [WittVector.from_int(c, p, n) for c in scalars]
        results += [x.frobenius()] if n >= 2 else []
        for z in results:
            fresh = WittVector(z.p, z.n, z.comps)
            assert z.ghosts() == fresh.ghosts()
            assert z.ghosts() == _ghosts_by_definition(
                z, RingCtx(p, z.n), z.n - 1)
            assert [z.ghost(k) for k in range(z.n)] == z.ghosts()


def test_int_scaling_matches_the_vector_product():
    # x * c scales x's ghosts by c and inverts once; the inversion reads
    # ghost k only mod p^{k+1}, where w_k(from_int(c)) = c.
    # 3 primes x 4 lengths x 50 vectors = 600 seeded vectors
    for p in (2, 3, 5):
        for n in range(1, 5):
            rng = random.Random(1000 * p + n)
            for _ in range(50):
                x = _rand_witt(rng, p, n)
                c = rng.choice((0, 1, -1, p, p * p,
                                rng.randrange(-p ** (n + 1), p ** (n + 1))))
                want = x * WittVector.from_int(c, p, n)
                assert (x * c).comps == want.comps, (p, n, c)
                assert (c * x).comps == want.comps, (p, n, c)


def test_ghost_memo_is_not_shared_with_callers():
    for p, n, x, _ in _memo_grid():
        want = list(x.ghosts())
        gs = x.ghosts()
        gs.append(gs[0])
        gs[0] = LaurentPoly.zero(RingCtx(p, n), 1)
        assert x.ghosts() == want


def test_ghosts_at_explicit_ring_are_computed_afresh():
    # frobenius_same_level reads w_0, ..., w_n mod p^(n+1) this way
    for p, n, x, _ in _memo_grid():
        ctx = RingCtx(p, n + 1)
        assert x._ghost_chain(ctx, n) == _ghosts_by_definition(x, ctx, n)
        # the memo at p^n is untouched by the wider call
        assert x.ghosts() == _ghosts_by_definition(x, RingCtx(p, n), n - 1)


def test_ghost_oracle_fails_on_a_wrong_inversion(monkeypatch):
    # witt-identities compares each result's ghosts with fresh sums and
    # products of its operands' ghosts; an inversion that loses the top
    # component must fail the first of those laws.
    opts = Namespace(seed=11)
    assert cli.case_witt_identities(opts, 3, 3, None, None) == {"pass": True}
    invert = witt._ghost_invert

    def lossy(gs, p, n):
        x = invert(gs, p, n)
        zero = LaurentPoly.zero(_ctx1(p), 1)
        return WittVector(p, n, x.comps[:-1] + (zero,))
    monkeypatch.setattr("pmconn.witt._ghost_invert", lossy)
    got = cli.case_witt_identities(opts, 3, 3, None, None)
    assert got == {"pass": False, "law": "ghost-add"}


@given(wparams)
@settings(max_examples=30, deadline=None)
def test_teichmuller_is_multiplicative(args):
    p, n, seed = args
    rng = random.Random(seed)
    a = LaurentPoly.monomial(_ctx1(p), 1, (rng.randrange(-2, 3),), 1)
    b = LaurentPoly.monomial(_ctx1(p), 1, (rng.randrange(-2, 3),), 1)
    ta = WittVector.teichmuller(a, n)
    tb = WittVector.teichmuller(b, n)
    assert (ta * tb).comps == WittVector.teichmuller(a * b, n).comps


def test_verschiebung_and_frobenius_identities():
    for p in (2, 3):
        n = 3
        rng = random.Random(p)
        x = _rand_witt(rng, p, n)
        y = _rand_witt(rng, p, n)
        # V(x)V(y) = pV(xy)
        lhs = x.verschiebung() * y.verschiebung()
        rhs = (x * y).verschiebung() * p
        assert lhs.comps == rhs.comps
        # FV = p on W_{n-1}
        fv = x.verschiebung().frobenius()
        px = (x * p).restrict()
        assert fv.comps == px.comps
        # F[a] = [a^p]
        t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
        assert WittVector.teichmuller(t, n).frobenius().comps == \
            WittVector.teichmuller(t ** p, n - 1).comps


def test_v_of_one_is_p_at_length_two():
    # V(1) = p in W_2(F_p[t^{+-1}]) when p is small enough to see it
    for p in (2, 3, 5):
        one = WittVector.from_int(1, p, 2)
        vp = one.verschiebung()
        assert vp.comps == WittVector.from_int(p, p, 2).comps


@given(wparams)
@settings(max_examples=30, deadline=None)
def test_normal_form_round_trip(args):
    p, n, seed = args
    rng = random.Random(seed)
    x = _rand_witt(rng, p, n)
    integral, fractional = x.normal_form()
    back = nf_to_witt(integral, fractional, p, n)
    assert back.comps == x.comps


def test_drw_d_on_teichmuller_and_verschiebung():
    p, n = 3, 3
    t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
    # d[t] = [t] dlog[t]
    dt = drw_d(WittVector.teichmuller(t, n))
    assert witt._decode(dt, p, n) == ({1: 1}, {})
    # d(V[t]) = dV([t]): a pure fractional generator at level 1
    dv = drw_d(WittVector.teichmuller(t, n).verschiebung())
    assert witt._decode(dv, p, n) == ({}, {(1, 1): 1})
    # d(V[t^p]) = p [t] dlog[t]: the weight is integral
    dvp = drw_d(WittVector.teichmuller(t ** p, n).verschiebung())
    assert witt._decode(dvp, p, n) == ({1: p}, {})


def test_drw_f_identities():
    p, n = 3, 3
    rng = random.Random(4)
    x = _rand_witt(rng, p, n)
    # dF = pFd
    lhs = drw_d(x.frobenius())
    rhs = drw_F(drw_d(x)) * p
    assert lhs == rhs
    # FdV = d
    lhs2 = drw_F(drw_d(x.verschiebung()))
    rhs2 = drw_d(x.restrict())
    assert lhs2 == rhs2


def test_drw_f_on_teichmuller_power_rule():
    # Fd[x] = [x]^{p-1} d[x] on Teichmuller monomials
    for p in (2, 3, 5):
        n = 3
        t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
        tx = WittVector.teichmuller(t, n)
        lhs = drw_F(drw_d(tx))
        rhs = mul_dlog(math.prod([tx] * (p - 1)).restrict() *
                       integral_to_witt(
                           LaurentPoly.monomial(RingCtx(p, n - 1), 1, (1,), 1),
                           n - 1))
        assert lhs == rhs


def test_witt_connection_level_raise_rank1_rule():
    p, n, m = 3, 3, 2
    ctxN = RingCtx(p, n)
    # f = p^m [t]: raising substitutes t -> t^p on Teichmuller coordinates
    f = integral_to_witt(LaurentPoly.monomial(ctxN, 1, (1,), p ** m), n)
    C = WittConnection(m, f)
    assert C.is_nilpotent()
    C2 = witt_level_raise(C)
    assert C2.m == m - 1
    integral, fractional = C2.f.normal_form()
    assert integral == {p: p ** m % p ** n} and not fractional


def test_witt_level_raise_matches_classical_on_integral_part():
    p, n, m = 3, 3, 1
    ctxN = RingCtx(p, n)
    poly = LaurentPoly.from_dict(ctxN, 1, {(1,): 3, (-1,): 6})
    C = WittConnection(m, integral_to_witt(poly, n))
    C2 = witt_level_raise(C)
    integral, fractional = C2.f.normal_form()
    want = {e[0] * p: c for e, c in poly.terms}
    assert integral == want and not fractional


def test_witt_compare_trivial_and_monomial():
    for (p, n, m) in ((3, 3, 2), (3, 2, 1), (2, 4, 1)):
        f = WittVector.from_int(p ** m, p, n)
        rep = witt_compare(WittConnection(m, f), 3)
        assert rep["pass"], rep
        assert rep["chain_map"]
        t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
        fm = WittVector.teichmuller(t, n) * (p ** m)
        rep2 = witt_compare(WittConnection(m, fm), 3)
        assert rep2["pass"], rep2


def test_witt_compare_h0_example():
    # trivial connection, p = 3, n = 3, m = 2: H^0 on both sides is Z/p^3
    # at weight 0
    p, n, m = 3, 3, 2
    rep = witt_compare(WittConnection(m, WittVector.zero(p, n)), 3)
    at_zero = next(e for e in rep["components"] if e["weights"] == ["0"])
    assert at_zero["h0"] == at_zero["h0_raised"] == [n]
    assert rep["pass"]


def _cluster(rep, weights):
    return next(c for c in rep["components"] if c["weights"] == weights)


def test_witt_compare_keeps_rows_past_the_window():
    # nabla of the generator at weight 2 reaches weight 3, past the window;
    # cut to the window, its image would vanish and add a horizontal Z/p^3
    p, n, m, D = 3, 3, 1, 2
    t = LaurentPoly.monomial(_ctx1(p), 1, (1,))
    rep = witt_compare(WittConnection(m, WittVector.teichmuller(t, n) * p), D)
    at = _cluster(rep, ["-2", "-1", "0", "1", "2"])
    assert at["h0"] == at["h0_raised"] == [1] * 5


def test_witt_compare_raised_generators_have_their_own_orders():
    # the raise maps the exponent of V([t]), of order p, to that of [t], of
    # order p^2; given its source's order p, h1_raised would read [1]
    p, n, m, D = 2, 2, 1, 1
    t = LaurentPoly.monomial(_ctx1(p), 1, (1,))
    rep = witt_compare(WittConnection(m, WittVector.teichmuller(t, n) * p), D)
    assert _cluster(rep, ["-1/2", "1/2"])["h1_raised"] == [2]


def test_nabla_on_top_ghosts_matches_witt_arithmetic():
    # nabla reads x and x f off top ghosts; the oracle forms x f as a Witt
    # product and reads dx and x f dlog[t] through the vectors' normal forms
    rng = random.Random(17)
    for p in (2, 3, 5):
        for n in range(1, 5):
            for m in range(n + 1):
                for _ in range(2):
                    x = _rand_witt(rng, p, n)
                    f = _rand_witt(rng, p, n) * p ** m
                    want = drw_d(x) * p ** m + mul_dlog(x * f)
                    assert WittConnection(m, f).nabla(x.ghost(n - 1)) == want


def test_window_generator_ghost_is_v_of_teichmuller():
    # the closed-form top ghost of V^r([t^j]) against V applied r times, on
    # the generators: p !| j, or r = 0
    for p in (2, 3, 5):
        for n in range(1, 5):
            for r in range(n):
                for j in range(-3, 4):
                    if r and j % p == 0:
                        continue
                    x = WittVector.teichmuller(
                        LaurentPoly.monomial(_ctx1(p), 1, (j,)), n)
                    for _ in range(r):
                        x = x.verschiebung()
                    e = j * p ** (n - 1 - r)
                    assert witt._gen_ghost(e, p, n) == x.ghost(n - 1)


# SHA-256 over the one-forms of _pinned_one_forms, each read back as (n,
# sorted integral items, sorted fractional items), and over
# json.dumps(report, sort_keys=True) for the reports of _pinned_reports.
# The one-forms were recorded from an implementation that kept one-forms and
# window generators in coordinates of their own, as an oracle for the shared
# code.  The reports were recorded from witt_compare on linalg's windowed
# block builder, which keeps every reached row, joins clusters through
# targets past the window and gives each generator its own order.
ONE_FORMS_SHA256 = \
    "f7ddb1a03e3deed348b58024c7a0733329e3f1ecaaf42ad3eb154344125743c4"
COMPARE_SHA256 = \
    "5637c0b84fcfa8345a42a71e15ade19fad5f3541322121dbb67e90a7e0859a82"

# The (p, n, m, D) of the pinned reports that fail, both for the seeded f:
# at (3, 3, 1, 1) h1 sums to 11 and h1_raised to 21, and at (2, 3, 1, 1) the
# cluster {-1/2, 1/2} has h1 [1, 1] and h1_raised [3, 3], each past its H^1
# bound.  Every other report passes.
FAILING_REPORTS = [(2, 3, 1, 1), (3, 3, 1, 1)]


def _pinned_one_forms():
    # dx, x dlog[t], nabla(x), F(dx) and F(x dlog[t]) on seeded vectors
    rng = random.Random(24)
    for p in (2, 3, 5):
        for n in range(1, 5):
            for m in range(n + 1):
                for _ in range(2):
                    x = _rand_witt(rng, p, n)
                    f = _rand_witt(rng, p, n) * p ** m
                    forms = [drw_d(x), mul_dlog(x),
                             WittConnection(m, f).nabla(x.ghost(n - 1))]
                    if n >= 2:
                        forms += [drw_F(forms[0]), drw_F(forms[1])]
                    yield from forms


def _pinned_reports():
    rng = random.Random(24)
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        t = LaurentPoly.monomial(_ctx1(p), 1, (1,))
        for m in range(1, n + 1):
            for D in (1, 2, 3):
                for f in (WittVector.zero(p, n),
                          WittVector.teichmuller(t, n) * p ** m,
                          _rand_witt(rng, p, n) * p ** m):
                    yield witt_compare(WittConnection(m, f), D)


def test_one_forms_are_pinned():
    h = hashlib.sha256()
    for form in _pinned_one_forms():
        p, n = form.ctx.p, form.ctx.n
        integral, fractional = witt._decode(form, p, n)
        h.update(repr((n, sorted(integral.items()),
                       sorted(fractional.items()))).encode())
    assert h.hexdigest() == ONE_FORMS_SHA256


def test_witt_compare_reports_are_pinned():
    h = hashlib.sha256()
    reports = list(_pinned_reports())
    for rep in reports:
        h.update(json.dumps(rep, sort_keys=True).encode())
    assert h.hexdigest() == COMPARE_SHA256
    assert len(reports) == 108
    assert sorted((rep["p"], rep["n"], rep["m"], rep["window"])
                  for rep in reports if not rep["pass"]) == FAILING_REPORTS


def test_witt_compare_solves_each_block_once(monkeypatch):
    # clusters repeat within a call; solved one cluster at a time, the
    # pinned reports make 7,600 calls on these 1,367 blocks
    real = witt.homology_divisors
    calls = []

    def counted(A, B, orders_mid, orders_out, p, cap):
        calls.append((freeze_columns(A), freeze_columns(B),
                      tuple(orders_mid), tuple(orders_out), p, cap))
        return real(A, B, orders_mid, orders_out, p, cap)

    monkeypatch.setattr(witt, "homology_divisors", counted)
    total = 0
    for rep in _pinned_reports():
        assert len(set(calls)) == len(calls), \
            (rep["p"], rep["n"], rep["m"], rep["window"])
        total += len(calls)
        calls.clear()
    assert total == 1367


def test_witt_compare_rejects_non_nilpotent():
    p, n, m = 3, 2, 1
    t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
    C = WittConnection(m, WittVector.teichmuller(t, n))  # f = [t], not p f'
    with pytest.raises(NotNilpotent):
        witt_compare(C, 3)


def test_witt_compare_chain_map_reads_the_raise(monkeypatch):
    # A raise that keeps f is not F(f): the chain-map check must compare
    # against the raise it was given, not recompute F(f) on its own.
    p, n, m = 3, 3, 1
    t = LaurentPoly.monomial(_ctx1(p), 1, (1,), 1)
    C = WittConnection(m, WittVector.teichmuller(t, n) * p)
    assert witt_compare(C, 2)["chain_map"] is True
    monkeypatch.setattr("pmconn.witt.witt_level_raise",
                        lambda C: WittConnection(C.m - 1, C.f))
    assert witt_compare(C, 2)["chain_map"] is False


def test_fractional_presentation_orders():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, n):
                rep = fractional_presentation_orders(p, n, r, p + 1)
                assert rep["verified"]
                assert rep["orders"] == rep["predicted"] == [n - r]
