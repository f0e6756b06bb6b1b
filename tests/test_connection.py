import functools
import hashlib
import inspect
import itertools
import math
import random
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, dot, parse_poly
from pmconn import connection
from pmconn.connection import (Connection, QNResult, gauge, tensor, dual,
                               is_quasi_nilpotent, ExtensionPresentation,
                               PresentationReport, check_presentation,
                               mat_add, mat_id, mat_det, mat_inverse,
                               mat_is_zero, mat_map, mat_matmul)


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


def _theta_reference(C, i, v, dt):
    """theta_i(v) = Theta_i v + p^m t_i d_i v in the dlog basis, or
    t_i^-1 Theta_i v + p^m d_i v in the dt basis, entry by entry from
    laurent.dot and the two derivations."""
    pm = C.p_to_m()
    tinv = LaurentPoly.var(C.ctx, C.d, i, -1)
    return tuple(dot(row, v) * tinv + x.partial(i) * pm if dt
                 else dot(row, v) + x.log_partial(i) * pm
                 for row, x in zip(C.theta[i - 1], v))


def _theta_mismatches(p, n, m, seed):
    """(basis, d, rank, integrable, axis) of each theta step that differs
    from _theta_reference, over rank 1 and 2, d = 1 and 2, integrable and
    random connections, each on a random vector.  integrable is read off
    _curvature_reference, so it does not depend on the step."""
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    conns = []
    for d in (1, 2):
        z = LaurentPoly.zero(ctx, d)
        g = _rand_poly(rng, ctx, d, 3)
        conns += [
            # exact theta_i = t_i d_i g: integrable
            Connection.rank1(ctx, d, m, [g.log_partial(i)
                                         for i in range(1, d + 1)]),
            # commuting nilpotent constants: integrable
            Connection(ctx, d, m, 2, tuple(
                ((z, LaurentPoly.const(ctx, d, rng.randrange(ctx.modulus))),
                 (z, z)) for _ in range(d)))]
        conns += [Connection(ctx, d, m, r, tuple(
            _rand_matrix(rng, ctx, d, r) for _ in range(d))) for r in (1, 2)]
    out = []
    for C in conns:
        integrable = all(mat_is_zero(K) for _, K in _curvature_reference(C))
        v = tuple(_rand_poly(rng, ctx, C.d, 3) for _ in range(C.rank))
        for i in range(1, C.d + 1):
            for dt, step in ((False, C.theta_apply), (True, C.theta_apply_dt)):
                if step(i, v) != _theta_reference(C, i, v, dt):
                    out.append(("dt" if dt else "dlog", C.d, C.rank,
                                integrable, i))
    return out


@given(cases)
@settings(max_examples=40, deadline=None)
def test_theta_steps_match_a_reference(args):
    p, n, m, seed = args
    # m < n, so that p^m != 0 mod p^n and the derivative term is alive
    assert _theta_mismatches(p, n, m % n, seed) == []


def test_theta_steps_refuse_axis_zero():
    # and every other axis outside 1..d, before indexing Theta
    ctx = RingCtx(3, 2)
    C = Connection.rank1(ctx, 2, 1, [LaurentPoly.one(ctx, 2)] * 2)
    for step in (C.theta_apply, C.theta_apply_dt):
        for i in (0, 3, -1):
            with pytest.raises(ValueError,
                               match=f"axis {i} out of range for d=2"):
                step(i, C.basis_vector(0))


def _step_without_derivative(self, i, dt, v):
    """Connection._theta_step without its p^m t_i d_i term: Theta_i v."""
    return tuple(dot(row, v)
                 for row in (self._theta_dt if dt else self.theta)[i - 1])


def test_theta_reference_sees_a_step_without_its_derivative_term(
        monkeypatch):
    assert _theta_mismatches(3, 3, 1, 0) == []
    monkeypatch.setattr(Connection, "_theta_step", _step_without_derivative)
    found = _theta_mismatches(3, 3, 1, 0)
    assert {basis for basis, *_ in found} == {"dlog", "dt"}
    # every shape, integrable or not (at d = 1 every connection is)
    assert {(d, rank, integrable) for _, d, rank, integrable, _ in found} \
        == {(1, 1, True), (1, 2, True), (2, 1, True), (2, 2, True),
            (2, 1, False), (2, 2, False)}


# -- curvature and gauge against the matrix formulas ---------------------------

def _dlog_times_pm(C, M, i):
    """p^m t_i d_i of each entry of M."""
    pm = C.p_to_m()
    return mat_map(M, lambda f: f.log_partial(i) * pm)


def _curvature_reference(C):
    """p^m t_i d_i Theta_j - p^m t_j d_j Theta_i + [Theta_i, Theta_j] for
    i < j, in matrix arithmetic and log_partial alone."""
    out = []
    for i, j in itertools.combinations(range(1, C.d + 1), 2):
        Ti, Tj = C.theta[i - 1], C.theta[j - 1]
        plus = mat_add(_dlog_times_pm(C, Tj, i), mat_matmul(Ti, Tj))
        minus = mat_add(_dlog_times_pm(C, Ti, j), mat_matmul(Tj, Ti))
        out.append(((i, j), tuple(tuple(a - b for a, b in zip(ra, rb))
                                  for ra, rb in zip(plus, minus))))
    return out


def _gauge_reference(C, g):
    """g^-1 (Theta_i g + p^m t_i d_i g), one matrix per axis."""
    return tuple(mat_matmul(mat_inverse(g), mat_add(
        mat_matmul(T, g), _dlog_times_pm(C, g, i)))
        for i, T in enumerate(C.theta, 1))


def _rand_invertible(rng, ctx, d, r):
    """L U with unit diagonals, so invertible over the Laurent ring."""
    zero = LaurentPoly.zero(ctx, d)
    L = [[_rand_unit(rng, ctx, d) if i == j else
          _rand_poly(rng, ctx, d, 1) if i > j else zero
          for j in range(r)] for i in range(r)]
    U = [[_rand_unit(rng, ctx, d) if i == j else
          _rand_poly(rng, ctx, d, 1) if i < j else zero
          for j in range(r)] for i in range(r)]
    return mat_matmul(L, U)


def _curvature_gauge_cases(count=24):
    """Seeded (C, g, integrable): p in {2, 3, 5}, 1 <= n <= 3, m < n,
    d in {2, 3}, rank 1-3.  Even seeds are integrable: the connection with
    Theta_i = a_i A + b_i + p t_i d_i(h), for one constant matrix A and one
    polynomial h, in the basis of the columns of a random k (by
    _gauge_reference), so that at rank >= 2 the Theta_i need not commute.
    Odd seeds have random Theta."""
    for seed in range(count):
        rng = random.Random(f"curvature-gauge:{seed}")
        ctx = RingCtx(rng.choice((2, 3, 5)), rng.randint(1, 3))
        m = rng.randrange(ctx.n)
        d, r = 2 + seed % 4 // 2, 1 + seed % 3
        zero = LaurentPoly.zero(ctx, d)
        if seed % 2 == 0:
            A = [[LaurentPoly.const(ctx, d, rng.randrange(ctx.modulus))
                  for _ in range(r)] for _ in range(r)]
            h = _rand_poly(rng, ctx, d, 2)
            theta = []
            for i in range(1, d + 1):
                a, b = rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)
                diag = h.log_partial(i) * ctx.p + LaurentPoly.const(ctx, d, b)
                theta.append([[A[x][y] * a + (diag if x == y else zero)
                               for y in range(r)] for x in range(r)])
            theta = _gauge_reference(Connection(ctx, d, m, r, theta),
                                     _rand_invertible(rng, ctx, d, r))
        else:
            theta = [_rand_matrix(rng, ctx, d, r) for _ in range(d)]
        C = Connection(ctx, d, m, r, theta)
        yield C, _rand_invertible(rng, ctx, d, r), seed % 2 == 0


def _curvature_gauge_mismatches():
    """("curvature" or "gauge", d, rank, integrable) of each case where the
    code differs from its matrix formula."""
    out = []
    for C, g, integrable in _curvature_gauge_cases():
        reference = _curvature_reference(C)
        assert integrable <= all(mat_is_zero(K) for _, K in reference)
        if C.curvature() != reference:
            out.append(("curvature", C.d, C.rank, integrable))
        if gauge(C, g).theta != _gauge_reference(C, g):
            out.append(("gauge", C.d, C.rank, integrable))
    return out


def test_curvature_and_gauge_match_their_matrix_formulas():
    cases = list(_curvature_gauge_cases())
    assert {(C.d, C.rank, integrable) for C, _, integrable in cases} == \
        set(itertools.product((2, 3), (1, 2, 3), (True, False)))
    assert _curvature_gauge_mismatches() == []


def test_matrix_formulas_see_a_step_without_its_derivative_term(
        monkeypatch):
    monkeypatch.setattr(Connection, "_theta_step", _step_without_derivative)
    found = _curvature_gauge_mismatches()
    # at rank 1 an integrable curvature reads zero either way; at rank >= 2
    # the gauged Theta_i need not commute, and the derivative terms cancel
    # their commutator
    assert {kind for kind, *_ in found} == {"curvature", "gauge"}
    assert {(kind, integrable) for kind, _, _, integrable in found} == \
        set(itertools.product(("curvature", "gauge"), (True, False)))


def test_dual_and_tensor_rank1():
    ctx = RingCtx(3, 2)
    f = parse_poly("2*t1^1+1", ctx, 1)
    g = parse_poly("1*t1^-1", ctx, 1)
    Cf = Connection.rank1(ctx, 1, 1, [f])
    Cg = Connection.rank1(ctx, 1, 1, [g])
    assert dual(dual(Cf)).theta == Cf.theta
    assert tensor(Cf, Cg).theta[0][0][0] == f + g


def _rand_matrix(rng, ctx, d, r, terms=2):
    return tuple(tuple(_rand_poly(rng, ctx, d, terms) for _ in range(r))
                 for _ in range(r))


def test_tensor_and_dual_conventions_at_rank_2_on_the_plane():
    # hom_space reads g[a][b] from slot a*r2 + b of C1 (x) C2^dual, so the
    # tensor's index order and the dual's sign and transpose are pinned here
    rng = random.Random(5)
    ctx, d = RingCtx(3, 2), 2
    C1, C2 = (Connection(ctx, d, 1, 2, tuple(
        _rand_matrix(rng, ctx, d, 2) for _ in range(d))) for _ in range(2))
    zero = LaurentPoly.zero(ctx, d)
    H = tensor(C1, C2)
    for i in range(d):
        T1, T2 = C1.theta[i], C2.theta[i]
        for a, b, c, e in itertools.product(range(2), repeat=4):
            want = (T1[a][c] if b == e else zero) + \
                (T2[b][e] if a == c else zero)
            assert H.theta[i][a * 2 + b][c * 2 + e] == want
        assert dual(C1).theta[i] == tuple(
            tuple(-T1[b][a] for b in range(2)) for a in range(2))


def _leibniz_det(A):
    """The determinant as a sum over permutations, with + and * alone."""
    r = len(A)
    total = LaurentPoly.zero(A[0][0].ctx, A[0][0].d)
    for perm in itertools.permutations(range(r)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(r) for j in range(i + 1, r))
        term = math.prod((A[i][perm[i]] for i in range(r)),
                         start=LaurentPoly.one(total.ctx, total.d))
        total = total - term if inversions % 2 else total + term
    return total


def test_rank_3_unimodular_matrices_invert():
    # A = L U with unit diagonals (units c t^e (1 + p f) and 1 + p f), so
    # det A is their product and A is invertible over the Laurent ring
    rng = random.Random(9)
    for trial in range(12):
        ctx = RingCtx(rng.choice([2, 3, 5]), rng.randint(1, 3))
        d, r = 1 + trial % 2, 3
        zero = LaurentPoly.zero(ctx, d)
        L = [[_rand_unit(rng, ctx, d) if i == j else
              _rand_poly(rng, ctx, d, 2) if i > j else zero
              for j in range(r)] for i in range(r)]
        U = [[_rand_poly(rng, ctx, d, 1) * ctx.p + LaurentPoly.one(ctx, d)
              if i == j else _rand_poly(rng, ctx, d, 2) if i < j else zero
              for j in range(r)] for i in range(r)]
        A = mat_matmul(L, U)
        det = mat_det(A)
        assert det == _leibniz_det(A)
        assert det == math.prod((L[i][i] * U[i][i] for i in range(r)),
                                start=LaurentPoly.one(ctx, d))
        inv = mat_inverse(A)
        assert mat_matmul(A, inv) == mat_id(ctx, d, r)
        assert mat_matmul(inv, A) == mat_id(ctx, d, r)


def test_quasi_nilpotence_two_values():
    ctx = RingCtx(3, 2)
    # theta = p is nilpotent mod p^2 after two applications
    C = Connection.rank1(ctx, 1, 1, [LaurentPoly.const(ctx, 1, 3)])
    assert is_quasi_nilpotent(C) == QNResult(None)
    # (O, d + dlog t): the p-curvature is 1^p - 1 = 0, although Theta = 1
    # is a unit, and theta_dt^2(1) = (t^-1 + d/dt)(t^-1) = 0
    C1 = Connection.rank1(ctx, 1, 0, [LaurentPoly.one(ctx, 1)])
    assert is_quasi_nilpotent(C1)
    assert C1.theta_power_apply_dt((2,), C1.basis_vector(0))[0].is_zero()
    # theta = t at level 0: theta_dt = 1 + d/dt has p-curvature 1
    Ct = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
    res = is_quasi_nilpotent(Ct)
    assert not res and res.certificate == (1, 0, 0)


def test_quasi_nilpotence_gauge_invariant():
    ctx = RingCtx(3, 2)
    rng = random.Random(5)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    g = [[_rand_unit(rng, ctx, 1)]]
    assert bool(is_quasi_nilpotent(C)) == bool(is_quasi_nilpotent(gauge(C, g)))


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


# SHA-256 of repr([certificate]) over _qn_connections(), recorded with the
# mod-p test: 122 true (certificate None) and 178 false
QN_DIGEST = "e90f328f43e7657862d83a32bd8b0e5cf5603281816a6a522f98e4f83be5838e"

# The answers of the orbit search that the mod-p test replaced, one letter
# per connection of _qn_connections() at level m >= 1: T true, F false and
# ? undetermined (38, 114 and 44); "." marks m = 0, where the search walked
# the dlog basis on generators only and so decided another notion.
WALK_ANSWERS = (
    "F.F?.F.T.T.TF..?F?.?TF.?.F?.F.F?.F.FF.F??.FFF?.FT?T?T.F?.FF?.TF.FFF.TFF."
    ".?FFTFF.FF.?.T?TF.FFFFTFTF.F..FFF..?F?FF.?FF..FTFTF?TT.FT..FT.F?F...FFFF"
    "TT.FF?F?FFF.T.FFF?T?..F?FFFFF.T.FFF.?.....FFTF.F.F..F.T?F?F.F.?FT??..TF."
    ".FF?.F..T....FFFTF.FFF?...FTT?F.T.F.F.F.....??.T...?TF??..FTF..?FF..F.FF"
    ".?F?.T.FF...")


@functools.cache
def _qn_results():
    return [(C, is_quasi_nilpotent(C)) for C in _qn_connections()]


def _dt_oracle(C, res):
    """Whether res holds up in the dt basis.  True: theta_dt^a(e_k) = 0 for
    every |a| = n (d (q rank - 1) + 1) and every k, with q = p at m = 0 and
    q = 1 otherwise.  False with certificate (i, row, col): entry row of
    theta_dt_i^(q rank)(e_col) is nonzero mod p."""
    q = C.ctx.p if C.m == 0 else 1
    if res:
        N = C.ctx.n * (C.d * (q * C.rank - 1) + 1)
        powers = [(N,)] if C.d == 1 else [(N - j, j) for j in range(N + 1)]
        return all(x.is_zero() for k in range(C.rank) for a in powers
                   for x in C.theta_power_apply_dt(a, C.basis_vector(k)))
    i, row, col = res.certificate
    a = tuple(q * C.rank if j == i else 0 for j in range(1, C.d + 1))
    v = C.theta_power_apply_dt(a, C.basis_vector(col))
    return any(c % C.ctx.p for _, c in v[row].terms)


def _disagreements(qn, results=None):
    """Indices into _qn_connections() where qn contradicts a recorded
    determinate walk answer (or calls a walk undetermined quasi-nilpotent),
    or fails the dt-basis oracle."""
    results = results or ((C, qn(C)) for C in _qn_connections())
    for k, ((C, res), walk) in enumerate(zip(results, WALK_ANSWERS)):
        if walk != "." and bool(res) != (walk == "T"):
            yield k
        elif not _dt_oracle(C, res):
            yield k


def test_quasi_nilpotence_digest_is_pinned():
    results = [r for _, r in _qn_results()]
    assert sum(map(bool, results)) == 122
    assert hashlib.sha256(repr([r.certificate for r in results])
                          .encode()).hexdigest() == QN_DIGEST


def test_quasi_nilpotence_matches_the_walk_and_the_dt_basis_oracle():
    assert [w == "." for w in WALK_ANSWERS] == \
        [C.m == 0 for C, _ in _qn_results()]
    assert [WALK_ANSWERS.count(w) for w in "TF?"] == [38, 114, 44]
    assert list(_disagreements(is_quasi_nilpotent, _qn_results())) == []


def _mutant(old, new):
    """is_quasi_nilpotent with one line of its source replaced."""
    src = inspect.getsource(connection.is_quasi_nilpotent)
    assert src.count(old) == 1
    ns = dict(vars(connection))
    exec(src.replace(old, new), ns)
    return ns["is_quasi_nilpotent"]


def test_a_test_of_psi_to_the_rank_minus_1_fails_the_oracle():
    qn = _mutant("range(C.rank - 1)", "range(C.rank - 2)")
    assert next(_disagreements(qn), None) is not None


def test_a_test_of_theta_mod_p_at_level_0_fails_the_oracle():
    qn = _mutant("if C.m == 0:", "if False:")
    assert next(_disagreements(qn), None) is not None
    ctx = RingCtx(3, 2)
    C = Connection.rank1(ctx, 1, 0, [LaurentPoly.one(ctx, 1)])
    assert is_quasi_nilpotent(C) and not qn(C)


def test_quasi_nilpotence_sees_a_theta_1_chain_past_the_cap():
    # theta_1 = 12 cycles on the constants with period 20 and theta_2 = 5
    # is 0 mod 5; psi_1 = 12 = 2 mod 5 is the certificate, however long
    # the chain
    ctx = RingCtx(5, 2)
    C = Connection.rank1(ctx, 2, 1, [LaurentPoly.const(ctx, 2, 12),
                                     LaurentPoly.const(ctx, 2, 5)])
    assert is_quasi_nilpotent(C).certificate == (1, 0, 0)


def test_quasi_nilpotence_is_fast_on_non_constant_theta_at_d_2():
    # a search over theta-orbits takes seconds to give up on this input
    ctx = RingCtx(5, 3)
    C = Connection.rank1(ctx, 2, 2, [parse_poly(s, ctx, 2) for s in
                                     ("6+56*t1^2*t2^2", "43+56*t1^2*t2^2")])
    assert C.is_integrable()
    assert min(timeit.repeat(lambda: is_quasi_nilpotent(C), number=1,
                             repeat=3)) < 0.01
    assert is_quasi_nilpotent(C).certificate == (1, 0, 0)


def test_a_unit_constant_at_level_0_can_be_quasi_nilpotent():
    # theta = 96 = 1 mod 5: psi = 1 - 1 = 0, and the falling factorial
    # 96 (96 - 1) ... (96 - k + 1) kills theta_dt^k(e) for large k
    ctx = RingCtx(5, 3)
    C = Connection.rank1(ctx, 1, 0, [LaurentPoly.const(ctx, 1, 96)])
    assert is_quasi_nilpotent(C)
    e = C.basis_vector(0)
    # n (d (p rank - 1) + 1) = 15
    assert C.theta_power_apply_dt((15,), e)[0].is_zero()


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
    # zero theta of rank 2 as one trivial layer: (O, p^m d)^2 has length 1
    C2z = Connection(ctx, 1, m, 2, ([[z, z], [z, z]],))
    rep = check_presentation(ExtensionPresentation(C2z, (2,), ("trivial",),
                                                   {}))
    assert (rep.classification, rep.length) == ("nilpotent", 1)
    # a layer whose claimed constants are not horizontal
    C3 = Connection.rank1(ctx, 1, m, [one])
    P3 = ExtensionPresentation(C3, (1,), ("trivial",), {})
    assert check_presentation(P3).classification == "invalid"
    assert check_presentation(P3) == PresentationReport(
        "invalid", None,
        "layer 0 claims (O, p^m d) but has a nonzero graded field")


def test_check_presentation_verdicts_and_reasons_are_pinned():
    ctx, d, m = RingCtx(3, 3), 2, 1
    z, one = LaurentPoly.zero(ctx, d), LaurentPoly.one(ctx, d)
    t1, t2 = (LaurentPoly.var(ctx, d, i) for i in (1, 2))
    # (O, p^m d)^2 in the basis of the columns of h: its horizontal
    # generators are the columns of h^-1
    h = ((one + t1 * 3, t2), (z, one))
    C = Connection(ctx, d, m, 2, _gauge_reference(
        Connection(ctx, d, m, 2, (((z, z), (z, z)),) * d), h))
    assert C.is_integrable() and not all(mat_is_zero(M) for M in C.theta)

    def verdict(conn, ranks, kinds, witnesses):
        return check_presentation(
            ExtensionPresentation(conn, ranks, kinds, witnesses))

    assert verdict(C, (2,), ("f-constant",), {0: mat_inverse(h)}) == \
        PresentationReport("f-nilpotent", 1)
    assert verdict(C, (2,), ("f-constant",), {0: h}) == PresentationReport(
        "invalid", None, "layer 0 witness generators are not horizontal")
    assert verdict(C, (2,), ("f-constant",), {0: mat_map(
        mat_inverse(h), lambda f: f * 3)}) == PresentationReport(
        "invalid", None, "layer 0 witness does not generate")
    assert verdict(C, (2,), ("f-constant",), {}) == PresentationReport(
        "invalid", None, "layer 0 lacks a constant-witness matrix")
    assert verdict(C, (2,), ("constant",), {}) == PresentationReport(
        "invalid", None, "unknown layer kind 'constant'")
    # an f-constant layer under a trivial one: u^-1 is horizontal for
    # Theta_i = u^-1 p t_i d_i(u), and the layers are read off the diagonal
    u = one + t1 * t2 * 3
    D = Connection(ctx, d, m, 2, tuple(
        ((u.invert() * u.log_partial(i) * 3, t1), (z, z)) for i in (1, 2)))
    assert verdict(D, (1, 1), ("f-constant", "trivial"),
                   {0: ((u.invert(),),)}) == \
        PresentationReport("f-nilpotent", 2)
    assert verdict(D, (1, 1), ("f-constant", "trivial"),
                   {0: ((u,),)}) == PresentationReport(
        "invalid", None, "layer 0 witness generators are not horizontal")
    # Theta_1 sends e_0 into the span of e_1: not block upper triangular
    E = Connection(ctx, d, m, 2, (((z, z), (one, z)), ((z, z), (z, z))))
    assert verdict(E, (1, 1), ("trivial", "trivial"), {}) == \
        PresentationReport("invalid", None,
                           "Theta not compatible with the filtration at (1,0)")
