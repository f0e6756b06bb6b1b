import functools
import hashlib
import random
import sys

from hypothesis import given, settings, strategies as st

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, parse_poly
from pmconn.connection import (Connection, gauge, tensor, dual,
                               is_quasi_nilpotent, ExtensionPresentation,
                               check_presentation, mat_id, mat_det,
                               _vec_key, _walk)


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
    lhs = C.theta_power_apply_dt(tuple(x + y for x, y in zip(a, b)), v)
    rhs = C.theta_power_apply_dt(a, C.theta_power_apply_dt(b, v))
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


def test_longest_path_is_iterative_on_deep_chains():
    n = 20000
    edges = {k: [k + 1] for k in range(n)}
    edges[n] = []
    limit = sys.getrecursionlimit()
    assert _walk(edges, 0) == (None, n)
    # a cycle through every node, closed at its start
    edges = {k: [(k + 1) % n] for k in range(n)}
    assert _walk(edges, 0) == (list(range(n)) + [0], None)
    assert sys.getrecursionlimit() == limit
    # diamond with a long and a short branch
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["e"], "e": ["d"], "d": []}
    assert _walk(edges, "a") == (None, 3)
    # nodes that were never expanded are skipped
    assert _walk({"a": ["b"], "b": ["a", "c"]}, "a") == (["a", "b", "a"], None)
    assert _walk({"a": ["b", "c"], "b": []}, "a") == (None, 1)


def _qn_poly(rng, ctx, d):
    return LaurentPoly.from_dict(ctx, d, {
        tuple(rng.randint(-1, 1) for _ in range(d)): rng.randrange(ctx.modulus)
        for _ in range(rng.randint(1, 2))})


def _qn_connections(count=300):
    """Seeded integrable connections: p in {2, 3, 5}, n <= 3, m <= n,
    d <= 2, rank <= 2.  Even seeds have constant theta, a_i A + b_i for one
    matrix A.  Odd seeds have any theta at d = 1, and at d = 2
    theta_i = [[p t_i d_i h + c_i, p t_i d_i k], [0, p t_i d_i h + c_i]]
    for monomials h, k (its upper left entry at rank 1), whose curvature
    vanishes."""
    for seed in range(count):
        rng = random.Random(f"qn:{seed}")
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        d = rng.randint(1, 2)
        rank = rng.randint(1, 2)
        ctx = RingCtx(p, n)

        def const():
            return LaurentPoly.const(ctx, d, rng.randrange(ctx.modulus))

        def mono():
            return LaurentPoly.monomial(
                ctx, d, tuple(rng.randint(-2, 2) for _ in range(d)),
                rng.randrange(ctx.modulus))

        z = LaurentPoly.zero(ctx, d)
        if seed % 2 == 0:
            A = [[const() for _ in range(rank)] for _ in range(rank)]
            theta = []
            for _ in range(d):
                a, b = rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)
                theta.append([[A[r][c] * a + (LaurentPoly.const(ctx, d, b)
                                              if r == c else z)
                               for c in range(rank)] for r in range(rank)])
        elif d == 1:
            theta = [[[_qn_poly(rng, ctx, d) for _ in range(rank)]
                      for _ in range(rank)]]
        else:
            h, k = mono(), mono()
            theta = []
            for i in range(1, d + 1):
                diag = h.log_partial(i) * p + const()
                theta.append([[diag, k.log_partial(i) * p], [z, diag]]
                             if rank == 2 else [[diag]])
        C = Connection(ctx, d, m, rank, theta)
        assert C.is_integrable()
        yield C


# SHA-256 of repr([(status, N)]) over _qn_connections(), recorded with the
# breadth-first search, cycle search and longest-path pass that the one
# depth-first walk replaced; 54 true, 179 false and 67 undetermined
QN_DIGEST = "2a7d2c31e4b57165b94b324dabec9082cfea8be21fe39eae85a5dcaa121a9c30"


@functools.cache
def _qn_results():
    return [(C, is_quasi_nilpotent(C)) for C in _qn_connections()]


def test_quasi_nilpotence_digest_is_pinned():
    assert hashlib.sha256(repr([(r.status, r.N) for _, r in _qn_results()])
                          .encode()).hexdigest() == QN_DIGEST


def test_quasi_nilpotence_false_comes_with_a_theta_cycle():
    false = 0
    for C, res in _qn_results():
        if res.status != "false":
            assert res.certificate is None
            continue
        false += 1
        cycle = res.certificate
        assert len(cycle) >= 2 and _vec_key(cycle[0]) == _vec_key(cycle[-1])
        assert len({_vec_key(v) for v in cycle}) == len(cycle) - 1
        for v, w in zip(cycle, cycle[1:]):
            assert any(not x.is_zero() for x in v)
            assert any(_vec_key(C.theta_apply(i, v)) == _vec_key(w)
                       for i in range(1, C.d + 1))
    assert false == 179


def test_quasi_nilpotence_sees_a_theta_1_chain_past_the_cap():
    # theta_1 = 12 cycles on the constants with period 20, past the cap of
    # 16, while theta_2 = 5 and then theta_1 close the cycle 5, 10, 20, 15
    # at depth 5.  A depth-first discovery capped by path length reaches
    # those four first at the bottom of the theta_1 chain, where they are
    # not expanded, and reports undetermined.
    ctx = RingCtx(5, 2)
    C = Connection.rank1(ctx, 2, 1, [LaurentPoly.const(ctx, 2, 12),
                                     LaurentPoly.const(ctx, 2, 5)])
    assert is_quasi_nilpotent(C).status == "false"


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
