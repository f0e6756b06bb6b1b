import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, FrobLift, parse_poly
from pmconn.connection import (Connection, gauge, ExtensionPresentation,
                               dual, mat_add, mat_is_zero, mat_map,
                               mat_matmul, mat_scale, tensor)
from pmconn.cohomology import (compute_H, weight_components,
                               hom_space,
                               compare_theorem25, higgs_vanishing,
                               CohomologyReport, _boundary_plan,
                               _form_basis, _nabla_images, _theta_shifts,
                               _window_exponents)
from pmconn.frobenius import level_raise, twist_decompose
from pmconn.linalg import homology_divisors


def _dense(columns, nrows):
    """The dense rows of a matrix given by sparse columns {row: entry}."""
    return [[col.get(i, 0) for col in columns] for i in range(nrows)]


def _frozen(columns):
    """A hashable copy of sparse columns, equal for equal entries."""
    return tuple(tuple(sorted(col.items())) for col in columns)


def _sparse(M, ncols):
    """The sparse columns {row: entry} of a matrix given by dense rows."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(ncols)]


def _columns(C, q, basis_in, basis_out):
    """nabla_q from basis_in to basis_out as sparse columns {row: entry},
    read off _nabla_images, and per column whether an image term fell
    outside basis_out (window leakage)."""
    pos = {b: k for k, b in enumerate(basis_out)}
    images = _nabla_images(C, _boundary_plan(C, q), basis_in)
    return ([{pos[x]: c for x, c in image.items() if x in pos}
             for image in images],
            [not image.keys() <= pos.keys() for image in images])


def _rand_poly(rng, ctx, d, terms, deg=2):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(-deg, deg + 1) for _ in range(d))
        out[e] = rng.randrange(ctx.modulus)
    return LaurentPoly.from_dict(ctx, d, out)


def test_trivial_connection_h0_h1():
    # (O, p^m d) mod p^n: horizontal sections at weight w need p^m w x = 0
    p, n, m = 3, 2, 0
    ctx = RingCtx(p, n)
    C = Connection.trivial(ctx, 1, m)
    h0 = compute_H(C, 0, 6)
    by_w = h0.by_weight()
    assert by_w[(0,)] == [n]
    assert h0.stable
    # weight 3 and -3: kernel of multiplication by 3 on Z/9
    assert by_w[(3,)] == [1] and by_w[(-3,)] == [1]
    assert (1,) not in by_w
    h1 = compute_H(C, 1, 6)
    assert h1.by_weight()[(0,)] == [n]


def test_higgs_connection_h0_is_everything():
    # m >= n: the differential is zero
    p, n = 3, 2
    ctx = RingCtx(p, n)
    C = Connection.trivial(ctx, 1, n)
    h0 = compute_H(C, 0, 3)
    assert all(e["divisors"] == [n] for e in h0.entries)
    assert len(h0.entries) == 7


def test_de_rham_complex_squares_to_zero_d2():
    ctx = RingCtx(3, 2)
    rng = random.Random(2)
    d = 2
    # integrable rank-1 pair of theta coefficients: constants always commute
    th1 = LaurentPoly.const(ctx, d, 4)
    th2 = LaurentPoly.const(ctx, d, 7)
    C = Connection(ctx, d, 1, 1, ([[th1]], [[th2]]))
    assert C.is_integrable()
    # constant thetas preserve weights, so there is no window leakage and
    # the composite of consecutive boundary maps must vanish exactly
    weights = _window_exponents(d, 3)
    bases = [_form_basis(weights, 1, d, q) for q in range(d + 1)]
    M0, M1 = [_dense(_columns(C, q, bases[q], bases[q + 1])[0],
                     len(bases[q + 1])) for q in range(d)]
    assert any(x for row in M0 for x in row)
    assert any(x for row in M1 for x in row)
    comp = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M0)]
            for row in M1]
    assert all(x % ctx.modulus == 0 for row in comp for x in row)
    h1 = compute_H(C, 1, 3)
    assert h1.stable


def test_gauge_invariance_of_divisors():
    p, n, m = 3, 2, 1
    ctx = RingCtx(p, n)
    rng = random.Random(9)
    C = Connection.rank1(ctx, 1, m, [LaurentPoly.const(ctx, 1, 3)])
    u = LaurentPoly.monomial(ctx, 1, (0,), 1) + _rand_poly(rng, ctx, 1, 1) * 3
    G = gauge(C, [[u]])
    for i in (0, 1):
        a = compute_H(C, i, 6, stability=False).by_weight()
        b = compute_H(G, i, 6, stability=False).by_weight()
        # compare away from the window boundary
        interior = {w for w in a if abs(w[0]) <= 3}
        for w in interior:
            assert a.get(w, []) == b.get(w, [])


def test_window_stability_flag():
    ctx = RingCtx(3, 2)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    rep = compute_H(C, 0, 8)
    assert rep.stable


def test_hom_space_collapse_between_levels():
    # Hom((O, nabla_1), (O, nabla_0)): at level 0 it contains t^{-1} of
    # order p^n; with theta = 1 at level >= 1 it is empty
    for p in (2, 3):
        n = 2
        ctx = RingCtx(p, n)
        one = LaurentPoly.one(ctx, 1)
        zero = LaurentPoly.zero(ctx, 1)
        C1 = Connection.rank1(ctx, 1, 0, [one])
        C0 = Connection.rank1(ctx, 1, 0, [zero])
        gens = hom_space(C1, C0, 8)
        assert any(dict(g[0][0].terms).get((-1,), 0) and e == n
                   for g, e in gens)
        D1 = Connection.rank1(ctx, 1, 1, [one])
        D0 = Connection.rank1(ctx, 1, 1, [zero])
        assert hom_space(D1, D0, 8) == []


def test_hom_space_of_zero_higgs_field_is_whole_window():
    # m >= n makes p^m = 0, so with a zero field every intertwiner equation
    # vanishes and each monomial of the window is horizontal, of order p^n
    C = Connection.trivial(RingCtx(3, 1), 1, 1)
    gens = hom_space(C, C, 1)
    assert sorted((g[0][0].terms, e) for g, e in gens) == [
        ((((-1,), 1),), 1), ((((0,), 1),), 1), ((((1,), 1),), 1)]


def test_hom_space_level_mismatch_rejected():
    ctx = RingCtx(3, 2)
    A = Connection.trivial(ctx, 1, 0)
    B = Connection.trivial(ctx, 1, 1)
    with pytest.raises(ValueError):
        hom_space(A, B, 4)


def _lattice_pairs():
    # Per (p, n, m, d): one pair with C2 = C1 and one of two random
    # connections, ranks 1-3 drawn independently, windows 1-4 at d = 1 and
    # 1-2 at d = 2.
    rng = random.Random(14)

    def theta(ctx, d, r):
        return tuple(tuple(tuple(
            LaurentPoly.from_dict(ctx, d, {
                tuple(rng.randrange(-1, 2) for _ in range(d)):
                    rng.randrange(ctx.modulus)
                for _ in range(rng.randrange(3))})
            for _ in range(r)) for _ in range(r)) for _ in range(d))

    for p in (2, 3, 5):
        for n in (1, 2, 3):
            ctx = RingCtx(p, n)
            for m in (0, 1, 2):
                for d in (1, 2):
                    r1, r2 = rng.randrange(1, 4), rng.randrange(1, 4)
                    C1 = Connection(ctx, d, m, r1, theta(ctx, d, r1))
                    C2 = Connection(ctx, d, m, r2, theta(ctx, d, r2))
                    yield C1, C1, rng.randrange(1, 7 - 2 * d)
                    yield C1, C2, rng.randrange(1, 7 - 2 * d)


def _intertwines(C1, C2, g):
    """Theta1 g + p^m t_i dg/dlog t_i = g Theta2 on every axis, in Connection
    matrix arithmetic alone."""
    pm = C1.p_to_m()
    return all(mat_is_zero(mat_add(
        mat_add(mat_matmul(T1, g), mat_map(g, lambda f: f.log_partial(i) * pm)),
        mat_scale(mat_matmul(g, T2), -1)))
        for i, (T1, T2) in enumerate(zip(C1.theta, C2.theta), 1))


# SHA-256 over repr(sorted(orders)) of hom_space(C1, C2, D), pair by pair for
# the 108 pairs of _lattice_pairs in order.  The orders are invariants of the
# group, so any correct solve gives this digest, whichever generators it picks.
HOM_ORDERS_SHA256 = \
    "c0ab343b455143134f4da3c1c825829605d513fcd06e1e2df82c0645dd98cf74"


def test_hom_space_orders_are_pinned_and_generators_intertwine():
    h = hashlib.sha256()
    for C1, C2, D in _lattice_pairs():
        gens = hom_space(C1, C2, D)
        h.update(repr(sorted(e for _, e in gens)).encode())
        for g, e in gens:
            assert _intertwines(C1, C2, g)
            # order exactly p^e: p^(e-1) g is still nonzero
            assert not mat_is_zero(mat_scale(g, C1.ctx.p ** (e - 1)))
    assert h.hexdigest() == HOM_ORDERS_SHA256


def _count_intertwiners(C1, C2, D):
    """The number of g with entries supported on [-D, D]^d that intertwine,
    by trying every one."""
    ctx, d = C1.ctx, C1.d
    exps = _window_exponents(d, D)
    polys = [LaurentPoly.from_dict(ctx, d, dict(zip(exps, cs)))
             for cs in itertools.product(range(ctx.modulus), repeat=len(exps))]
    r2 = C2.rank
    return sum(
        _intertwines(C1, C2, tuple(tuple(entries[a * r2:(a + 1) * r2])
                                   for a in range(C1.rank)))
        for entries in itertools.product(polys, repeat=C1.rank * r2))


def _oracle_pairs():
    # (id, C1, C2): rank 1 over Z/2 and Z/4 at d = 1 (at most 4^3 candidates)
    # and over Z/2 at d = 2 (2^9), rank 2 over Z/2 at d = 1 (2^12); each draw
    # gives the pairs (C, C) and (C, C'), theta with exponents in -1..3 so
    # that most of them couple weights
    rng = random.Random(22)

    def theta(ctx, d, r):
        return tuple(tuple(tuple(
            LaurentPoly.from_dict(ctx, d, {
                tuple(rng.randrange(-1, 4) for _ in range(d)):
                    rng.randrange(ctx.modulus)
                for _ in range(rng.randrange(3))})
            for _ in range(r)) for _ in range(r)) for _ in range(d))

    for n, d, r, draws in ((1, 1, 1, 2), (2, 1, 1, 3), (1, 2, 1, 1),
                           (1, 1, 2, 1)):
        ctx = RingCtx(2, n)
        for k in range(draws):
            m = rng.randrange(3)
            C = Connection(ctx, d, m, r, theta(ctx, d, r))
            name = f"n{n}-d{d}-r{r}-m{m}-{k}"
            yield name + "-self", C, C
            yield name, C, Connection(ctx, d, m, r, theta(ctx, d, r))
    # shifts {2, 3}: the components {-1, 1} and {0} of a linking that joins
    # only w and w + u inside the window both reach weights 2 and 3
    ctx = RingCtx(2, 1)
    z, one = LaurentPoly.zero(ctx, 1), LaurentPoly.one(ctx, 1)
    t2, t3 = (LaurentPoly.var(ctx, 1, 1, k) for k in (2, 3))
    yield ("shifts-2-3", Connection(ctx, 1, 0, 2, (((z, z), (t3, z)),)),
           Connection(ctx, 1, 0, 2, (((z, t2), (z, one)),)))


ORACLE_PAIRS = list(_oracle_pairs())


@pytest.mark.parametrize("C1,C2", [pair[1:] for pair in ORACLE_PAIRS],
                         ids=[pair[0] for pair in ORACLE_PAIRS])
def test_hom_space_order_matches_enumeration(C1, C2):
    D = 1
    order = C1.ctx.p ** sum(e for _, e in hom_space(C1, C2, D))
    assert order == _count_intertwiners(C1, C2, D)


def test_components_linked_by_shared_images():
    # the windowed degree-0 complex of C1 (x) C2^dual couples -1 and 0 only
    # past the window: both reach weights 2 and 3, so a per-component solve
    # over {-1, 1} and {0} found order 2^0 where the group has order 2^1
    ctx = RingCtx(2, 3)

    def conn(rows):
        return Connection(ctx, 1, 0, 2, (tuple(
            tuple(parse_poly(f, ctx, 1) for f in row) for row in rows),))

    C1 = conn([["1+2*t1^2", "1+2*t1^3"], ["2+2*t1^2+5*t1^3", "2+t1^2+t1^3"]])
    C2 = conn([["0", "0"], ["5*t1^2+t1^3", "0"]])
    H = tensor(C1, dual(C2))
    assert weight_components(H, _window_exponents(1, 1)) == [[(-1,), (0,), (1,)]]
    gens = hom_space(C1, C2, 1)
    assert [e for _, e in gens] == [1]
    assert _intertwines(C1, C2, gens[0][0])
    h0 = compute_H(H, 0, 1, stability=False)
    assert [e["divisors"] for e in h0.entries] == [[1]]


def test_higgs_vanishing_ogus_input():
    for p in (2, 3, 5):
        rep = higgs_vanishing(p, 1, (1,))
        assert all(not entries for entries in rep)
        rep0 = higgs_vanishing(p, 1, (0,))
        assert any(rep0)


def _nilpotent_rank2(ctx, m):
    z = LaurentPoly.zero(ctx, 1)
    one = LaurentPoly.one(ctx, 1)
    C = Connection(ctx, 1, m, 2, ([[z, one], [z, z]],))
    P = ExtensionPresentation(C, (1, 1), ("trivial", "trivial"), {})
    return C, P


def test_compare_theorem25_rank2():
    for (p, n, m) in ((3, 2, 1), (2, 3, 2)):
        ctx = RingCtx(p, n)
        C, P = _nilpotent_rank2(ctx, m)
        rep = compare_theorem25(C, FrobLift.pure(ctx, 1), P, 3)
        assert rep["pass"], rep
        assert rep["zero_twist_is_original"]
        for i, f in rep["degrees"].items():
            assert f["decomposition"] and f["bound"] and f["h0"]


def test_compare_theorem25_rejects_weight_mixing():
    ctx = RingCtx(3, 2)
    z, one = LaurentPoly.zero(ctx, 1), LaurentPoly.one(ctx, 1)
    # a valid presentation of a non-constant theta
    C = Connection(ctx, 1, 1, 2, (((z, parse_poly("1*t1^1", ctx, 1)),
                                   (z, z)),))
    P = ExtensionPresentation(C, (1, 1), ("trivial", "trivial"))
    with pytest.raises(ValueError, match="weight-preserving"):
        compare_theorem25(C, FrobLift.pure(ctx, 1), P, 3)
    # theta(1) = 3 t1 != 0, so the presentation is refused first
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    P = ExtensionPresentation(C, (1,), ("f-constant",), {0: [[one]]})
    with pytest.raises(ValueError, match="invalid nilpotence presentation: "
                       "layer 0 witness generators are not horizontal"):
        compare_theorem25(C, FrobLift.pure(ctx, 1), P, 3)


def test_theorem25_blocks_agree_on_weight_preserving_input():
    # Along the pure lift a constant theta stays constant under the raise,
    # and p^(m-1) (p w + a) = p^m w + p^(m-1) a, so the raise's de Rham block
    # at p w + a is twist a's block at w mod p^n (and twist 0 is C): checks
    # (a) and (h0) of compare_theorem25 compare equal blocks on such input.
    p, n, m, D = 3, 3, 2, 2
    ctx = RingCtx(p, n)
    zero = LaurentPoly.zero(ctx, 2)
    theta = tuple(((zero, LaurentPoly.const(ctx, 2, x)), (zero, zero))
                  for x in (5, 6))
    C = Connection(ctx, 2, m, 2, theta)
    F = FrobLift.pure(ctx, 2)
    LR = level_raise(C, F)

    def block(conn, q, w):
        basis_in = _form_basis([w], 2, 2, q)
        basis_out = _form_basis([w], 2, 2, q + 1)
        cols, leaks = _columns(conn, q, basis_in, basis_out)
        assert not any(leaks)
        return [{r: c % ctx.modulus for r, c in col.items()
                 if c % ctx.modulus} for col in cols]

    twists = twist_decompose(C, F)
    assert len(twists) == p ** 2 and twists[(0, 0)].theta == C.theta
    for a, Ct in twists.items():
        for q in range(2):
            for w in _window_exponents(2, D):
                u = tuple(p * x + y for x, y in zip(w, a))
                assert block(LR, q, u) == block(Ct, q, w), (a, q, w)
    # the blocks do depend on the weight: a raise that kept level m differs
    assert block(C, 0, (1, 0)) != block(LR, 0, (1, 0))


def test_weight_components_split_by_theta_support():
    ctx = RingCtx(3, 2)
    C = Connection.trivial(ctx, 1, 0)
    comps = weight_components(C, _window_exponents(1, 2))
    # no coupling: five singleton components
    assert sorted(c[0] for c in comps) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert all(len(c) == 1 for c in comps)


# -- reference: every block built term by term, every component solved -------


def _boundary_matrix_reference(C, basis_in, basis_out):
    pos = {b: k for k, b in enumerate(basis_out)}
    pm = C.p_to_m()
    rows = [[0] * len(basis_in) for _ in basis_out]
    leaks = [False] * len(basis_in)
    for col, (w, j, S) in enumerate(basis_in):
        for i in range(1, C.d + 1):
            if i in S:
                continue
            S2 = tuple(sorted(S + (i,)))
            sign = -1 if sum(1 for s in S if s < i) % 2 else 1
            for b in range(C.rank):
                for u, cu in C.theta[i - 1][b][j].terms:
                    key = (tuple(a + x for a, x in zip(w, u)), b, S2)
                    if key in pos:
                        rows[pos[key]][col] += sign * cu
                    else:
                        leaks[col] = True
            c = pm * w[i - 1]
            if c:
                key = (w, j, S2)
                if key in pos:
                    rows[pos[key]][col] += sign * c
                else:
                    leaks[col] = True
    return rows, leaks


def _compute_H_reference(C, i, D, stability=True):
    n, p = C.ctx.n, C.ctx.p
    shifts = _theta_shifts(C) | {(0,) * C.d}
    reach = max(sum(abs(x) for x in u) for u in shifts)
    entries = []
    for comp in weight_components(C, _window_exponents(C.d, D)):
        mid = _form_basis(comp, C.rank, C.d, i)
        ext = sorted({tuple(a + b for a, b in zip(w, u))
                      for w in comp for u in shifts})
        out_basis = _form_basis(ext, C.rank, C.d, i + 1)
        B, _ = _boundary_matrix_reference(C, mid, out_basis)
        if i == 0:
            A = [[] for _ in mid]
        else:
            src = _form_basis(comp, C.rank, C.d, i - 1)
            A_full, leaks = _boundary_matrix_reference(C, src, mid)
            keep = [c for c in range(len(src)) if not leaks[c]]
            A = [[A_full[r][c] for c in keep] for r in range(len(mid))]
        divisors = homology_divisors(_sparse(A, len(A[0])),
                                     _sparse(B, len(mid)), [n] * len(mid),
                                     [n] * len(out_basis), p, n)
        if divisors:
            entries.append({"w": min(comp), "weights": comp,
                            "divisors": divisors})
    entries.sort(key=lambda e: e["w"])
    free_rank = sum(1 for e in entries for x in e["divisors"] if x == n)
    stable = True
    if stability:
        big = _compute_H_reference(C, i, D + 2, stability=False).by_weight()
        for e in entries:
            if max(abs(x) for w in e["weights"] for x in w) + reach > D:
                continue
            if big.get(tuple(e["w"])) != e["divisors"]:
                stable = False
    return CohomologyReport(i, D, entries, free_rank, stable)


@st.composite
def _split_connections(draw):
    """Integrable connections from three families: d = 1 rank 1 with Laurent
    theta; d = 2 rank 1 with theta_i a Laurent polynomial in t_i alone; d = 2
    with constant nilpotent rank-2 matrices.  m ranges past n, so Higgs
    fields (p^m = 0) are drawn too."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    ctx = RingCtx(p, n)
    coeff = st.integers(0, ctx.modulus - 1)
    family = draw(st.sampled_from(["d1", "d2-axis", "d2-nilpotent"]))
    if family == "d2-nilpotent":
        zero = LaurentPoly.zero(ctx, 2)
        theta = tuple(((zero, LaurentPoly.const(ctx, 2, draw(coeff))),
                       (zero, zero)) for _ in range(2))
        return Connection(ctx, 2, m, 2, theta)
    d = 1 if family == "d1" else 2
    thetas = []
    for axis in range(d):
        terms = draw(st.dictionaries(st.integers(-2, 2), coeff, max_size=3))
        thetas.append(LaurentPoly.from_dict(
            ctx, d, {tuple(k if a == axis else 0 for a in range(d)): c
                     for k, c in terms.items()}))
    return Connection.rank1(ctx, d, m, thetas)


def _even_shift_higgs():
    # theta_1 = t_1^2 and theta_2 = 2 t_2^-2 over Z/4 in the Higgs range: the
    # window [-2, 2]^2 splits by parity into components of sizes 9, 6, 6 and
    # 4.  The two of size 6, a 3x2 and a 2x3 grid, share p^m w mod p^n but
    # are not translates, and their H^2 differ, so a key without the offsets
    # gives a wrong answer here.
    ctx = RingCtx(2, 2)
    thetas = [LaurentPoly.monomial(ctx, 2, (2, 0), 1),
              LaurentPoly.monomial(ctx, 2, (0, -2), 2)]
    return Connection.rank1(ctx, 2, 2, thetas)


@given(_split_connections(), st.integers(1, 3), st.booleans())
@example(_even_shift_higgs(), 2, False)
@settings(max_examples=100, deadline=None)
def test_compute_H_matches_reference(C, D, stability):
    for i in range(C.d + 1):
        got = compute_H(C, i, D, stability=stability)
        want = _compute_H_reference(C, i, D, stability=stability)
        assert got.as_dict() == want.as_dict()
        assert (got.free_rank, got.stable) == (want.free_rank, want.stable)
        assert [e["weights"] for e in got.entries] == \
            [e["weights"] for e in want.entries]
    weights = _window_exponents(C.d, D)
    for q in range(C.d):
        bin_ = _form_basis(weights, C.rank, C.d, q)
        bout = _form_basis(weights, C.rank, C.d, q + 1)
        cols, leaks = _columns(C, q, bin_, bout)
        assert len(cols) == len(bin_)
        assert (_dense(cols, len(bout)), leaks) == \
            _boundary_matrix_reference(C, bin_, bout)


def test_compute_H_entries_own_their_divisors():
    # translates share one solve; each entry must still get its own list
    ctx = RingCtx(3, 2)
    rep = compute_H(Connection.trivial(ctx, 1, 2), 0, 3, stability=False)
    rep.entries[0]["divisors"].append(99)
    assert all(e["divisors"] == [2] for e in rep.entries[1:])


def test_stability_pass_solves_its_own_blocks(monkeypatch):
    # Force homology in the bigger window to disagree: the interior weight 0
    # must then come out unstable.  A memo shared between the two windows
    # would answer the bigger one from the first and hide the disagreement.
    from pmconn import cohomology
    real = cohomology.compute_H

    def bigger_window(C, i, D, stability=True):
        monkeypatch.setattr(cohomology, "homology_divisors", lambda *a: [1])
        return real(C, i, D, stability)

    monkeypatch.setattr(cohomology, "compute_H", bigger_window)
    C = Connection.trivial(RingCtx(3, 2), 1, 0)
    assert real(C, 0, 6).stable is False


def _shifted_connections(rng, count):
    """Seeded integrable connections whose theta has a nonconstant term: rank
    1 or 2 at d = 1, and rank 1 at d = 2 with theta_i = t_i d/dt_i h + a_i,
    whose curvature vanishes."""
    out = []
    while len(out) < count:
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        ctx = RingCtx(p, n)
        m = rng.randint(0, n)
        if rng.random() < 0.5:
            rank = rng.randint(1, 2)
            theta = ([[_rand_poly(rng, ctx, 1, 2) for _ in range(rank)]
                      for _ in range(rank)],)
            C = Connection(ctx, 1, m, rank, theta)
        else:
            h = [(tuple(rng.randrange(-2, 3) for _ in range(2)),
                  rng.randrange(ctx.modulus)) for _ in range(2)]
            C = Connection.rank1(ctx, 2, m, [
                LaurentPoly.from_dict(ctx, 2, {(0, 0): rng.randrange(p)})
                + LaurentPoly.from_dict(ctx, 2, {e: e[i] * c for e, c in h})
                for i in range(2)])
        if any(any(u) for u in _theta_shifts(C)):
            out.append(C)
    return out


def test_no_entry_is_interior_under_a_theta_shift():
    # weight_components links each weight w to its images w + u, so under a
    # nonzero shift u the chain w, w + u, ... runs to the window edge and no
    # component passes the stability pass's interior test: that pass
    # compares no entry, and stable stays true
    for C in _shifted_connections(random.Random(24), 60):
        reach = max(sum(map(abs, u)) for u in _theta_shifts(C))
        for i in range(C.d + 1):
            D = 1 + i
            rep = compute_H(C, i, D)
            assert rep.stable
            for e in rep.entries:
                assert max(abs(x) for w in e["weights"] for x in w) \
                    + reach > D


# SHA-256 of json.dumps(compare_theorem25(...), sort_keys=True) for rank-2,
# d = 2 connections theta_i = [[0, e_i], [0, 0]] along the pure lift.  They
# are weight-preserving, so every component is a single weight.
THEOREM25_SHA256 = [
    ((3, 3, 1, 3), (5, 6),
     "9f0ec1ed69288cafdbd534f3cd0b54e8b0953869c286ed1a2aba972a117a1b6c"),
    ((2, 3, 2, 4), (3, 2),
     "deabf183bbbae91ae10c18a8c9a2621284df38bc53761af87f6041abf9ff9d80"),
]


def _theorem25_d2_digest(params, e):
    p, n, m, D = params
    ctx = RingCtx(p, n)
    zero = LaurentPoly.zero(ctx, 2)
    theta = tuple(((zero, LaurentPoly.const(ctx, 2, x)), (zero, zero))
                  for x in e)
    C = Connection(ctx, 2, m, 2, theta)
    P = ExtensionPresentation(C, (1, 1), ("trivial", "trivial"))
    rep = compare_theorem25(C, FrobLift.pure(ctx, 2), P, D)
    assert rep["pass"]
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()) \
        .hexdigest()


@pytest.mark.parametrize("params,e,digest", THEOREM25_SHA256,
                         ids=["p3-n3-m1-D3", "p2-n3-m2-D4"])
def test_compare_theorem25_d2_is_pinned(params, e, digest):
    assert _theorem25_d2_digest(params, e) == digest


def test_compare_theorem25_solves_each_block_once(monkeypatch):
    # Along the pure lift the raise's block at p w + a is twist a's block at
    # w, and twist 0 is C, so one memo per degree serves them all, and the
    # raise is solved only at the weights read: at the first pinned point,
    # 3 degrees times 9 twists times the 49 window weights.
    from pmconn import cohomology
    real = cohomology.homology_divisors
    calls = []

    def counted(A, B, orders_mid, orders_out, p, cap):
        calls.append((_frozen(A), _frozen(B),
                      tuple(orders_mid), tuple(orders_out), p, cap))
        return real(A, B, orders_mid, orders_out, p, cap)

    monkeypatch.setattr(cohomology, "homology_divisors", counted)
    params, e, digest = THEOREM25_SHA256[0]
    assert _theorem25_d2_digest(params, e) == digest
    assert len(calls) == len(set(calls)) == 3 * 9 * 49 == 1323
