import random
import sys
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, parse_poly
from pmconn.connection import (Connection, gauge, iota, tensor, dual,
                               internal_hom, is_quasi_nilpotent,
                               coordinate_change, ExtensionPresentation,
                               check_presentation, mat_id, mat_det,
                               _longest_path)


def _rand_poly(rng, ctx, d, terms, deg=2):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(-deg, deg + 1) for _ in range(d))
        out[e] = rng.randrange(ctx.modulus)
    return LaurentPoly.from_dict(ctx, d, out)


def _rand_unit(rng, ctx, d):
    f = _rand_poly(rng, ctx, d, 2)
    e = tuple(rng.randrange(-1, 2) for _ in range(d))
    return f * ctx.p + LaurentPoly.monomial(ctx, d, e, 1)


cases = st.tuples(st.sampled_from([2, 3, 5]),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=10 ** 6))


@given(cases)
@settings(max_examples=60)
def test_leibniz_at_level_m(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    C = Connection.rank1(ctx, 1, m, [_rand_poly(rng, ctx, 1, 2)])
    f = _rand_poly(rng, ctx, 1, 2)
    v = (_rand_poly(rng, ctx, 1, 2),)
    lhs = C.theta_apply(1, tuple(f * x for x in v))
    rhs = tuple(f * x for x in C.theta_apply(1, v))
    correction = tuple(f.log_partial(1) * (p ** m) * x for x in v)
    assert lhs == tuple(a + b for a, b in zip(rhs, correction))


@given(cases)
@settings(max_examples=40, deadline=None)
def test_gauge_preserves_curvature_class(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    d = 2
    th1 = _rand_poly(rng, ctx, d, 2)
    # rank 1 in two variables: integrable iff the mixed log-derivatives agree
    C = Connection(ctx, d, m, 1, ([[th1]], [[th1]]))
    assert C.is_integrable() == all(
        v.is_zero() for _, K in C.curvature() for row in K for v in row)
    g = [[_rand_unit(rng, ctx, d)]]
    G = gauge(C, g)
    assert G.is_integrable() == C.is_integrable()


def test_gauge_conjugates_curvature_rank2():
    ctx = RingCtx(3, 2)
    rng = random.Random(11)
    d, m = 2, 1
    theta = tuple(
        [[_rand_poly(rng, ctx, d, 2) for _ in range(2)] for _ in range(2)]
        for _ in range(d))
    C = Connection(ctx, d, m, 2, theta)
    g = [[_rand_unit(rng, ctx, d), _rand_poly(rng, ctx, d, 1)],
         [LaurentPoly.zero(ctx, d), _rand_unit(rng, ctx, d)]]
    assert mat_det(g).is_unit()
    G = gauge(C, g)
    from pmconn.connection import mat_matmul, mat_inverse
    gi = mat_inverse(g)
    got_curv = dict(G.curvature())
    for key, K in C.curvature():
        conj = mat_matmul(gi, mat_matmul(K, g))
        got = got_curv[key]
        assert all((a - b).is_zero()
                   for ra, rb in zip(conj, got) for a, b in zip(ra, rb))


@given(cases)
@settings(max_examples=40)
def test_theta_power_composition(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    C = Connection.rank1(ctx, 1, m, [_rand_poly(rng, ctx, 1, 2)])
    v = (_rand_poly(rng, ctx, 1, 2),)
    a, b = (2,), (1,)
    lhs = C.theta_power_apply(tuple(x + y for x, y in zip(a, b)), v)
    rhs = C.theta_power_apply(a, C.theta_power_apply(b, v))
    assert lhs == rhs


@given(cases)
@settings(max_examples=40, deadline=None)
def test_theta_apply_dt_is_t_inverse_times_theta_apply(args):
    # theta_dt_i is t_i^-1 theta_i for every connection, integrable or not:
    # rank 1, d = 2 with exact theta_i = p^(m+1) t_i d_i g; rank 2 with
    # commuting nilpotent constants for d = 1, 2; rank 2, d = 2 at random
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    g = _rand_poly(rng, ctx, 2, 3)
    conns = [Connection.rank1(ctx, 2, m, [g.log_partial(i) * p ** (m + 1)
                                          for i in (1, 2)])]
    for d in (1, 2):
        z = LaurentPoly.zero(ctx, d)
        conns.append(Connection(ctx, d, m, 2, tuple(
            ((z, LaurentPoly.const(ctx, d, rng.randrange(1, ctx.modulus)
                                   * p ** i)), (z, z)) for i in range(d))))
    conns.append(Connection(ctx, 2, m, 2, tuple(
        tuple(tuple(_rand_poly(rng, ctx, 2, 2) for _ in range(2))
              for _ in range(2)) for _ in range(2))))
    for C in conns:
        v = tuple(_rand_poly(rng, ctx, C.d, 3) for _ in range(C.rank))
        for i in range(1, C.d + 1):
            tinv = LaurentPoly.var(ctx, C.d, i, -1)
            old = tuple(x * tinv for x in C.theta_apply(i, v))
            assert tuple(x.terms for x in C.theta_apply_dt(i, v)) == \
                tuple(x.terms for x in old)


def test_dual_and_tensor_rank1():
    ctx = RingCtx(3, 2)
    f = parse_poly("2*t1^1+1", ctx, 1)
    g = parse_poly("1*t1^-1", ctx, 1)
    Cf = Connection.rank1(ctx, 1, 1, [f])
    Cg = Connection.rank1(ctx, 1, 1, [g])
    assert dual(dual(Cf)).theta == Cf.theta
    assert tensor(Cf, Cg).theta[0][0][0] == f + g
    assert internal_hom(Cf, Cg).theta[0][0][0] == g - f
    assert iota(Cf).theta[0][0][0] == -f


def test_higgs_flag():
    ctx = RingCtx(3, 2)
    assert Connection.trivial(ctx, 1, 2).is_higgs()
    assert not Connection.trivial(ctx, 1, 1).is_higgs()


def test_quasi_nilpotence_three_values():
    ctx = RingCtx(3, 2)
    # theta = p is nilpotent mod p^2 after two applications
    C = Connection.rank1(ctx, 1, 1, [LaurentPoly.const(ctx, 1, 3)])
    assert is_quasi_nilpotent(C).status == "true"
    # theta = 1 at level 0: the orbit of 1 is the fixed nonzero vector 1
    C1 = Connection.rank1(ctx, 1, 0, [LaurentPoly.one(ctx, 1)])
    res = is_quasi_nilpotent(C1)
    assert res.status == "false"
    assert res.certificate is not None
    assert not res and is_quasi_nilpotent(C)
    # theta = t at level 0: the orbit 1, t, t^2, ... never revisits, so the
    # cap is reached without a certificate either way
    Ct = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
    assert is_quasi_nilpotent(Ct).status == "undetermined"


def test_quasi_nilpotence_gauge_invariant():
    ctx = RingCtx(3, 2)
    rng = random.Random(5)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    g = [[_rand_unit(rng, ctx, 1)]]
    assert is_quasi_nilpotent(C).status == is_quasi_nilpotent(gauge(C, g)).status


def test_coordinate_change_preserves_integrability():
    ctx = RingCtx(3, 2)
    rng = random.Random(7)
    d = 2
    th = _rand_poly(rng, ctx, d, 2)
    C = Connection(ctx, d, 0, 1, ([[th]], [[th]]))
    # swap the two torus coordinates
    A = [[0, 1], [1, 0]]
    units = [1, 2]
    C2 = coordinate_change(C, A, units)
    assert C2.is_integrable() == C.is_integrable()


@pytest.mark.parametrize("A,A_inv", [
    ([[2, 1], [3, 2]], [[2, -1], [-3, 2]]),
    ([[1, 2], [0, 1]], [[1, -2], [0, 1]]),
    ([[1, 1, 0], [0, 1, 2], [0, 0, 1]], [[1, -1, 2], [0, 1, -2], [0, 0, 1]]),
    ([[0, 1, 0], [0, 0, 1], [1, 0, 3]], [[0, -3, 1], [1, 0, 0], [0, 1, 0]]),
])
def test_coordinate_change_round_trip(A, A_inv):
    # t' = c t^A and then t'' = c' t'^(A^-1) with c'_k = prod_j c_j^-(A^-1)_kj
    # is the identity; A is not symmetric, so its inverse and the inverse of
    # its transpose differ
    ctx = RingCtx(3, 2)
    d = len(A)
    rng = random.Random(11)
    C = Connection(ctx, d, 1, 2, tuple(
        tuple(tuple(_rand_poly(rng, ctx, d, 2) for _ in range(2))
              for _ in range(2)) for _ in range(d)))
    units = [1, 2, 4][:d]
    back = [reduce(lambda acc, j: acc * pow(units[j], -A_inv[k][j],
                                            ctx.modulus) % ctx.modulus,
                   range(d), 1) for k in range(d)]
    C2 = coordinate_change(C, A, units)
    assert C2.theta != C.theta
    assert coordinate_change(C2, A_inv, back).theta == C.theta


def test_coordinate_change_direction():
    # t'_1 = t_1 t_2, t'_2 = t_2: t_1 = t'_1 / t'_2, and
    # theta_1 dlog t_1 = theta_1 (dlog t'_1 - dlog t'_2)
    ctx = RingCtx(3, 2)
    zero = LaurentPoly.zero(ctx, 2)
    C = Connection(ctx, 2, 1, 1, (((parse_poly("3*t1", ctx, 2),),),
                                  ((zero,),)))
    C2 = coordinate_change(C, [[1, 1], [0, 1]], [1, 1])
    assert C2.theta[0][0][0] == parse_poly("3*t1*t2^-1", ctx, 2)
    assert C2.theta[1][0][0] == parse_poly("-3*t1*t2^-1", ctx, 2)


def test_coordinate_change_rejects_non_invertible_transforms():
    ctx = RingCtx(3, 2)
    C = Connection.trivial(ctx, 2, 0)
    for A in ([[1, 2], [2, 4]], [[2, 0], [0, 1]]):  # singular; det 2
        with pytest.raises(ValueError):
            coordinate_change(C, A, [1, 1])


def test_longest_path_is_iterative_on_deep_chains():
    n = 20000
    edges = {k: [k + 1] for k in range(n)}
    edges[n] = []
    limit = sys.getrecursionlimit()
    assert _longest_path(edges, 0) == n
    assert sys.getrecursionlimit() == limit
    # diamond with a long and a short branch
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["e"], "e": ["d"], "d": []}
    assert _longest_path(edges, "a") == 3


def test_check_presentation_classifications():
    ctx = RingCtx(3, 3)
    m = 2
    # single trivial layer
    C1 = Connection.trivial(ctx, 1, m)
    P1 = ExtensionPresentation(C1, (1,), ("trivial",), {})
    assert check_presentation(P1).classification == "nilpotent"
    assert check_presentation(P1).length == 1
    # rank-2 strictly upper triangular: two trivial layers
    z = LaurentPoly.zero(ctx, 1)
    one = LaurentPoly.one(ctx, 1)
    C2 = Connection(ctx, 1, m, 2, ([[z, one], [z, z]],))
    P2 = ExtensionPresentation(C2, (1, 1), ("trivial", "trivial"), {})
    rep = check_presentation(P2)
    assert rep.classification == "nilpotent"
    assert rep.length == 2
    # a layer whose claimed constants are not horizontal
    C3 = Connection.rank1(ctx, 1, m, [one])
    P3 = ExtensionPresentation(C3, (1,), ("trivial",), {})
    assert check_presentation(P3).classification == "invalid"
