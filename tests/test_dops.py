import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.arith import (RingCtx, factorial_val, multi_binom_int,
                          multi_factorial)
from pmconn.laurent import LaurentPoly, FrobLift, parse_poly
from pmconn.connection import Connection
from pmconn.dops import (DiffOp, op_apply, op_mul, level_change,
                         multi_indices, multi_indices_upto,
                         check_taylor_cocycle, check_taylor_inverse,
                         tau_transition, verify_tau, theta_table,
                         _divided_power)


def _rand_poly(rng, ctx, d, terms, deg=2):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(-deg, deg + 1) for _ in range(d))
        out[e] = rng.randrange(ctx.modulus)
    return LaurentPoly.from_dict(ctx, d, out)


def _rand_op(rng, ctx, d, m, order):
    acc = {}
    for _ in range(2):
        l = tuple(rng.randrange(order + 1) for _ in range(d))
        c = _rand_poly(rng, ctx, d, 1)
        acc[l] = acc[l] + c if l in acc else c
    return DiffOp.from_dict(ctx, d, m, acc)


# recorded with the per-term operator kernel this package used before op_mul
# and op_apply worked on monomials
OPERATOR_DIGEST = (
    "82889f00da7fbb69d935bc3b06eede0e12db8e5c6cda40513a1c89cd918ddf08")

grid = st.tuples(st.sampled_from([2, 3]),
                 st.integers(min_value=1, max_value=3),
                 st.integers(min_value=0, max_value=2),
                 st.integers(min_value=0, max_value=10 ** 6))


def test_multi_index_enumeration():
    assert list(multi_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(multi_indices_upto(2, 2))) == 6


@given(grid)
@settings(max_examples=60, deadline=None)
def test_op_mul_associative_and_module_compatible(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    P = _rand_op(rng, ctx, 1, m, 2)
    Q = _rand_op(rng, ctx, 1, m, 2)
    R = _rand_op(rng, ctx, 1, m, 2)
    assert op_mul(op_mul(P, Q), R).as_dict() == op_mul(P, op_mul(Q, R)).as_dict()
    f = _rand_poly(rng, ctx, 1, 2)
    assert op_apply(op_mul(P, Q), f) == op_apply(P, op_apply(Q, f))


def _apply_single_reference(l, f, m):
    """D^<l>(t^e) = l! C(e,l) p^{m|l|} t^{e-l}, term by term, validated."""
    scale = multi_factorial(l) * f.ctx.p ** (m * sum(l))
    acc = {}
    for e, c in f.terms:
        e2 = tuple(a - b for a, b in zip(e, l))
        acc[e2] = acc.get(e2, 0) + c * scale * multi_binom_int(e, l)
    return LaurentPoly.from_dict(f.ctx, f.d, acc)


def _op_mul_reference(P, Q):
    """The product by the commutation rule, computing D^<l'>(c) afresh for
    every triple (l, k, l') of P's term, Q's term and l' <= l."""
    acc = {}
    for l, c in P.terms:
        for k, c2 in Q.terms:
            for lp in itertools.product(*(range(x + 1) for x in l)):
                moved = _apply_single_reference(lp, c2, P.m) \
                    * multi_binom_int(l, lp)
                if moved.is_zero():
                    continue
                idx = tuple(a - b + kk for a, b, kk in zip(l, lp, k))
                contrib = c * moved
                acc[idx] = acc[idx] + contrib if idx in acc else contrib
    return DiffOp.from_dict(P.ctx, P.d, P.m, acc)


def _rand_op_terms(rng, ctx, d, m, order, nterms):
    """An operator with up to nterms distinct indices and random coefficients
    of up to three terms."""
    return DiffOp.from_dict(ctx, d, m, {
        tuple(rng.randrange(order + 1) for _ in range(d)):
            _rand_poly(rng, ctx, d, rng.randint(1, 3))
        for _ in range(nterms)})


@given(grid, st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_op_mul_matches_reference(args, d):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    P = _rand_op_terms(rng, ctx, d, m, 3, 3)
    Q = _rand_op_terms(rng, ctx, d, m, 3, 3)
    assert op_mul(P, Q).terms == _op_mul_reference(P, Q).terms
    f = _rand_poly(rng, ctx, d, 3)
    for l in itertools.product(range(4), repeat=d):
        assert op_apply(DiffOp.partial(ctx, d, m, l), f) == \
            _apply_single_reference(l, f, m)


def _op_apply_reference(P, f):
    """The action of P on f, one Laurent product and sum per term of P."""
    out = LaurentPoly.zero(f.ctx, f.d)
    for l, c in P.terms:
        out = out + c * _apply_single_reference(l, f, P.m)
    return out


def _level_change_reference(P, m_new):
    """rho_{-m',-m}, scaling each coefficient by p^{(m-m')|l|}."""
    p = P.ctx.p
    return DiffOp.from_dict(
        P.ctx, P.d, m_new,
        {l: c * p ** ((P.m - m_new) * sum(l)) for l, c in P.terms})


@given(grid, st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_op_apply_and_level_change_match_reference(args, d):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    P = _rand_op_terms(rng, ctx, d, m, 3, 3)
    f = _rand_poly(rng, ctx, d, 3)
    assert op_apply(P, f) == _op_apply_reference(P, f)
    for m_new in range(m + 1):
        assert level_change(P, m_new).terms == \
            _level_change_reference(P, m_new).terms


def _integrable_catalog(rng, ctx, m):
    """Integrable connections whose theta powers do not vanish at once: rank 1
    and d = 2 with the exact, non-constant theta_i = p^(m+1) t_i d_i g, and
    rank 2 with the commuting nilpotent constants [[0, u_i p^(i-1)], [0, 0]]
    for d = 1 and d = 2."""
    p = ctx.p
    g = _rand_poly(rng, ctx, 2, 3)
    out = [Connection.rank1(ctx, 2, m, [g.log_partial(i) * p ** (m + 1)
                                        for i in (1, 2)])]
    for d in (1, 2):
        z = LaurentPoly.zero(ctx, d)
        out.append(Connection(ctx, d, m, 2, tuple(
            ((z, LaurentPoly.const(ctx, d, rng.randrange(1, ctx.modulus)
                                   * p ** i)), (z, z)) for i in range(d))))
    return out


def _operator_digest():
    """SHA-256 over op_mul, op_apply and theta_power_apply_dt results for 360
    seeded random operators, polynomials and integrable connections."""
    h = hashlib.sha256()
    rng = random.Random("operator-kernel-digest")
    for _ in range(360):
        p, n, m = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(0, 2)
        d = rng.randint(1, 2)
        ctx = RingCtx(p, n)
        P = _rand_op_terms(rng, ctx, d, m, 3, 3)
        Q = _rand_op_terms(rng, ctx, d, m, 3, 3)
        f = _rand_poly(rng, ctx, d, 3)
        C = rng.choice(_integrable_catalog(rng, ctx, m))
        v = tuple(_rand_poly(rng, ctx, C.d, 2) for _ in range(C.rank))
        k = tuple(rng.randint(0, 3) for _ in range(C.d))
        h.update(repr((
            tuple((l, c.terms) for l, c in op_mul(P, Q).terms),
            op_apply(P, f).terms,
            tuple(x.terms for x in C.theta_power_apply_dt(k, v)),
        )).encode())
    return h.hexdigest()


def test_operator_digest_is_stable():
    assert _operator_digest() == OPERATOR_DIGEST


@pytest.mark.parametrize("p, n, m", [(2, 3, 0), (2, 4, 1), (3, 2, 0),
                                     (3, 3, 1), (5, 2, 1)])
def test_theta_table_matches_theta_powers(p, n, m):
    ctx = RingCtx(p, n)
    rng = random.Random(f"theta-table:{p}:{n}:{m}")
    K = 4
    nonzero = 0
    for C in _integrable_catalog(rng, ctx, m):
        for v in [C.basis_vector(j) for j in range(C.rank)] + [
                tuple(_rand_poly(rng, ctx, C.d, 3) for _ in range(C.rank))]:
            table = theta_table(C, v, K)
            assert sorted(table) == sorted(multi_indices_upto(C.d, K))
            for k in multi_indices_upto(C.d, K):
                assert table[k] == C.theta_power_apply_dt(k, v)
                nonzero += sum(k) > 0 and any(not x.is_zero()
                                              for x in table[k])
    assert nonzero


def test_non_integrable_theta_powers_raise_every_time():
    # d = 2, rank 1, theta = (0, t_1) at level 0: the curvature t_1 d_1(t_1)
    # is t_1, so the cached verdict is False and must keep raising
    ctx = RingCtx(3, 2)
    C = Connection.rank1(ctx, 2, 0, [LaurentPoly.zero(ctx, 2),
                                     LaurentPoly.var(ctx, 2, 1)])
    e = C.basis_vector(0)
    calls = (lambda: C.theta_power_apply_dt((1, 0), e),
             lambda: theta_table(C, e, 2))
    for call in calls:
        for _ in range(2):
            with pytest.raises(ValueError):
                call()
    assert C.is_integrable() is False


@given(grid)
@settings(max_examples=60)
def test_divided_powers_compose_additively(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    l1, l2 = (2,), (3,)
    P = DiffOp.partial(ctx, 1, m, l1)
    Q = DiffOp.partial(ctx, 1, m, l2)
    want = DiffOp.partial(ctx, 1, m, (5,))
    assert op_mul(P, Q).as_dict() == want.as_dict()


def test_divided_power_action_is_iterated_scaled_derivative():
    ctx = RingCtx(3, 2)
    m = 1
    f = parse_poly("1*t1^2", ctx, 1)
    P = DiffOp.partial(ctx, 1, m, (2,))
    # (p^m d/dt)^2 t^2 = p^{2m} * 2 = 9*2 = 0 mod 9
    assert op_apply(P, f) == LaurentPoly.const(ctx, 1, (3 ** m) ** 2 * 2)


def test_level_change_rescales():
    ctx = RingCtx(3, 2)
    P = DiffOp.partial(ctx, 1, 1, (1,))
    Q = level_change(P, 0)
    f = parse_poly("1*t1^1", ctx, 1)
    # rho picks up p^{(m-m')|l|}: p * (d/dt) t = 3
    assert op_apply(Q, f) == parse_poly("3", ctx, 1)
    assert op_apply(P, f) == parse_poly("3", ctx, 1)


@given(grid)
@settings(max_examples=25, deadline=None)
def test_taylor_cocycle_and_inverse_rank1(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    C = Connection.rank1(ctx, 1, m,
                         [LaurentPoly.const(ctx, 1, p ** m) +
                          _rand_poly(rng, ctx, 1, 1) * (p ** m)])
    for j in range(C.rank):
        e = C.basis_vector(j)
        assert check_taylor_cocycle(C, e, 4)
        assert check_taylor_inverse(C, e, 4)


def _lift_pair(rng, ctx, m):
    p, n = ctx.p, ctx.n
    ctx_ext = RingCtx(p, n + m)
    a1 = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
    a2 = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
    f1 = FrobLift(ctx_ext, 1, (a1 * (p ** (n - 1)),))
    f2 = FrobLift(ctx_ext, 1, (a2 * (p ** (n - 1)),))
    return f1, f2


@given(st.tuples(st.sampled_from([2, 3]),
                 st.integers(min_value=1, max_value=2),
                 st.integers(min_value=1, max_value=2),
                 st.integers(min_value=0, max_value=10 ** 6)))
@settings(max_examples=25, deadline=None)
def test_tau_gauges_between_pullbacks(args):
    p, n, m, seed = args
    m = min(m, n)  # lifts built below agree mod p^n, which tau needs >= p^m
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    C = Connection.rank1(ctx, 1, m, [LaurentPoly.const(ctx, 1, p ** m)])
    f1, f2 = _lift_pair(rng, ctx, m)
    T = tau_transition(C, f1, f2)
    assert verify_tau(C, f1, f2, T)
    # identical lifts give the identity matrix
    Tid = tau_transition(C, f1, f1)
    assert Tid[0][0] == LaurentPoly.one(ctx, 1)


def test_tau_composition_law():
    p, n, m = 3, 2, 1
    ctx = RingCtx(p, n)
    rng = random.Random(17)
    z = LaurentPoly.zero(ctx, 1)
    one = LaurentPoly.one(ctx, 1)
    C = Connection(ctx, 1, m, 2, ([[z, one], [z, z]],))
    ctx_ext = RingCtx(p, n + m)
    lifts = []
    for _ in range(3):
        a = _rand_poly(rng, ctx_ext, 1, 1, deg=1)
        lifts.append(FrobLift(ctx_ext, 1, (a * (p ** (n - 1)),)))
    f1, f2, f3 = lifts
    T12 = tau_transition(C, f1, f2)
    T23 = tau_transition(C, f2, f3)
    T13 = tau_transition(C, f1, f3)
    from pmconn.connection import mat_matmul
    comp = mat_matmul(T12, T23)
    assert all((a - b).is_zero()
               for ra, rb in zip(comp, T13) for a, b in zip(ra, rb))


def _gamma_int_reference(h, q, p, n):
    """gamma_q(h) on the exact integer lift of h: the integer power h^q,
    divided by p^v_p(q!) exactly and by the unit part of q! mod p^n."""
    acc = {(0,) * h.d: 1}
    for _ in range(q):
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in h.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = nxt
    pa = p ** factorial_val(p, q)
    uinv = pow(math.factorial(q) // pa, -1, p ** n)
    out = {}
    for e, c in acc.items():
        v, r = divmod(c, pa)
        if r:
            raise ArithmeticError("not integral")
        out[e] = v * uinv
    return LaurentPoly.from_dict(h.ctx, h.d, out)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=6),
       st.dictionaries(st.integers(min_value=-2, max_value=2),
                       st.integers(min_value=0, max_value=124), max_size=3))
@settings(max_examples=150, deadline=None)
def test_divided_power_matches_integer_kernel(p, n, q, coeffs):
    ctx = RingCtx(p, n)
    h = LaurentPoly.from_dict(ctx, 1, {(e,): p * c for e, c in coeffs.items()})
    assert _divided_power(h, q) == _gamma_int_reference(h, q, p, n)


def test_divided_power_inexact_division_raises():
    # h = t is not in the PD ideal: t^2 / 2 is not integral mod 2^2
    ctx = RingCtx(2, 2)
    h = LaurentPoly.var(ctx, 1, 1)
    for fn in (_divided_power, lambda h, q: _gamma_int_reference(h, q, 2, 2)):
        with pytest.raises(ArithmeticError):
            fn(h, 2)
    # gamma_2(2t) = 2 t^2 is
    assert _divided_power(h * 2, 2) == LaurentPoly.monomial(ctx, 1, (2,), 2)
