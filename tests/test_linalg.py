import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.linalg import (mat_identity, mat_mul, snf_int, kernel_lattice,
                           solve_exact, diagonal_p_exponents,
                           homology_divisors, components)


def int_mats(rows, cols, bound=20):
    return st.lists(
        st.lists(st.integers(min_value=-bound, max_value=bound),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.tuples(st.just(r), int_mats(r, 3))))
def test_snf_decomposition(args):
    r, M = args
    U, D, V = snf_int(M)
    assert mat_mul(mat_mul(U, M), V) == D
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    # transforms are unimodular: their inverses are integral
    Ui = solve_exact(U, mat_identity(r))
    assert mat_mul(U, Ui) == mat_identity(r)
    Vi = solve_exact(V, mat_identity(3))
    assert mat_mul(V, Vi) == mat_identity(3)


def _rank_mod_p(M, p):
    """Rank of M over F_p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in M]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] * inv % p
                rows[i] = [(a - f * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def mod_prime_power_matrices(draw):
    """(p, N, M): M at most 4 x 4 with entries u * p^k, and (p^N)^rows at
    most 9^4 so that the cokernel can be enumerated."""
    p = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 3))
    q = p ** N
    r = draw(st.integers(1, max(k for k in range(1, 5) if q ** k <= 9 ** 4)))
    c = draw(st.integers(1, 4))
    entry = st.builds(lambda u, k: u * p ** k, st.integers(-q, q),
                      st.integers(0, N))
    M = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    return p, N, M


@settings(max_examples=150, deadline=None)
@given(mod_prime_power_matrices())
def test_snf_mod_prime_power_matches_enumeration(args):
    p, N, M = args
    q = p ** N
    r, c = len(M), len(M[0])
    U, D, V = snf_int(M, q)
    UMV = mat_mul(mat_mul(U, M), V)
    assert all((x - y) % q == 0 for row, drow in zip(UMV, D)
               for x, y in zip(row, drow))
    assert all(D[i][j] == 0 for i in range(r) for j in range(c) if i != j)
    # U and V are invertible mod q exactly when they are invertible mod p
    assert _rank_mod_p(U, p) == r
    assert _rank_mod_p(V, p) == c
    # |(Z/q)^r / M (Z/q)^c| = p^(sum of the capped valuations of D's diagonal)
    total = 0
    for t in range(r):
        d = D[t][t] % q if t < c else 0
        v = 0
        while v < N and d % p ** (v + 1) == 0:
            v += 1
        total += v
    image = _span([[row[j] for row in M] for j in range(c)], [N] * r, p)
    assert q ** r == len(image) * p ** total


@given(int_mats(3, 4, bound=9),
       st.sampled_from([2, 3, 5]),
       st.integers(min_value=1, max_value=3))
def test_kernel_lattice_is_exact(M, p, n):
    moduli = [p ** n] * 3
    basis = kernel_lattice(M, moduli)
    # every basis vector really lies in the kernel mod the row moduli
    for v in basis:
        w = mat_mul(M, [[x] for x in v])
        assert all(x[0] % q == 0 for x, q in zip(w, moduli))
    # exactly 4 vectors: a basis of a full-rank lattice containing p^n Z^4
    assert len(basis) == 4
    G = [[v[i] for v in basis] for i in range(4)]
    pnI = [[p ** n if i == j else 0 for j in range(4)] for i in range(4)]
    X = solve_exact(G, pnI)
    assert mat_mul(G, X) == pnI


def test_diagonal_p_exponents():
    D = [[4, 0, 0], [0, 12, 0], [0, 0, 1]]
    assert diagonal_p_exponents(D, 2, 3) == [2, 2]
    assert diagonal_p_exponents(D, 2, 1) == [1, 1]
    assert diagonal_p_exponents(D, 3, 4) == [1]


def test_finite_quotient_orders():
    # Z^2 / <(2,0),(0,8)> over p=2 with cap 3: orders 2^1 and 2^3
    assert homology_divisors([[2, 0], [0, 8]], [], [3, 3], [], 2, 3) == [1, 3]
    assert homology_divisors([[2, 0], [0, 8]], [], [3, 3], [], 2, 2) == [1, 2]


def test_solve_exact_rejects_singular_and_inexact():
    assert solve_exact([[2, 1], [1, 1]], mat_identity(2)) == [[1, -1],
                                                              [-1, 2]]
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4]], mat_identity(2))
    with pytest.raises(ValueError):
        solve_exact([[2, 0], [0, 1]], mat_identity(2))


def test_components_keep_item_order():
    links = [("c", "a"), ("e", "d"), ("d", "e")]
    assert components("abcde", links) == [["a", "c"], ["b"], ["d", "e"]]
    assert components([], []) == []


def test_homology_divisors_empty_middle():
    assert homology_divisors([], [], [], [], 2, 3) == []
    assert homology_divisors([], [[]], [], [2], 3, 2) == []


def test_homology_divisors_rejects_non_complex():
    # B*A = 1 is not zero modulo 2^2
    with pytest.raises(ValueError, match="not a complex"):
        homology_divisors([[1]], [[1]], [2], [2], 2, 2)
    # B is not defined on Z/2: it sends the relation 2 to 2, nonzero mod 2^2
    with pytest.raises(ValueError, match="not a complex"):
        homology_divisors([[0]], [[1]], [1], [2], 2, 2)


def test_homology_of_known_complex():
    # Z/p^n --p--> Z/p^n: homology at the middle is ker(p)/0 = Z/p^{n-1}...
    # with the incoming map zero: ker(B)/im(A) where A = [p], B absent
    p, n = 3, 3
    H = homology_divisors([[p]], [], [n], [], p, n)
    # middle term Z/p^n modulo pZ/p^n: group of order p
    assert H == [1]


def test_homology_exact_complex_vanishes():
    # identity boundary in: everything is a boundary
    p, n = 2, 4
    H = homology_divisors([[1]], [], [n], [], p, n)
    assert H == []


def test_homology_kernel_cut():
    # B = [p^{n-1}] out of the middle: kernel is pZ/p^n, no boundaries in
    p, n = 2, 3
    zero_in = [[0]]
    H = homology_divisors(zero_in, [[p ** (n - 1)]], [n], [n], p, n)
    assert H == [n - 1]


# -- brute-force oracle ---------------------------------------------------------


def _elements(orders, p):
    return itertools.product(*[range(p ** o) for o in orders])


def _span(cols, orders, p):
    """The subgroup of (+) Z/p^orders generated by cols, by closure."""
    group = {tuple(0 for _ in orders)}
    for col in cols:
        multiples = {tuple(c * x % p ** o for x, o in zip(col, orders))
                     for c in range(p ** max(orders))}
        group = {tuple((a + b) % p ** o for a, b, o in zip(g, m, orders))
                 for g in group for m in multiples}
    return group


def _in_kernel(B, x, out_orders, p):
    return all(sum(b * xi for b, xi in zip(row, x)) % p ** t == 0
               for row, t in zip(B, out_orders))


@st.composite
def tiny_complexes(draw):
    """free -> (+) Z/p^mid -> (+) Z/p^out with mixed orders on both sides,
    at most 5 middle generators and at most 1024 middle elements."""
    p = draw(st.sampled_from([2, 3]))
    top = 3 if p == 2 else 2
    mid = draw(st.lists(st.integers(1, top), min_size=1, max_size=5))
    while p ** sum(mid) > 1024:
        mid.pop()
    out = draw(st.lists(st.integers(1, top), max_size=3))
    # B[j][i] must kill p^mid[i] modulo p^out[j] to be well defined
    B = [[draw(st.integers(0, p ** t - 1)) * p ** max(0, t - o) for o in mid]
         for t in out]
    ker = [x for x in _elements(mid, p) if _in_kernel(B, x, out, p)]
    picks = draw(st.lists(st.integers(0, len(ker) - 1), max_size=3))
    A = [[ker[k][i] for k in picks] for i in range(len(mid))]
    return p, mid, out, A, B, ker


@settings(max_examples=80, deadline=None)
@given(tiny_complexes())
def test_homology_divisors_match_brute_force(cx):
    # |{x in ker B : p^k x in im A}| / |im A| = |H[p^k]| = p^{sum min(e, k)}
    # for every k pins down the whole multiset of exponents e of H
    p, mid, out, A, B, ker = cx
    divisors = homology_divisors(A, B, mid, out, p, max(mid))
    image = _span([[row[j] for row in A] for j in range(len(A[0]))],
                  mid, p)
    for k in range(max(mid) + 1):
        killed = sum(1 for x in ker
                     if tuple(p ** k * xi % p ** o
                              for xi, o in zip(x, mid)) in image)
        assert killed == len(image) * p ** sum(min(e, k) for e in divisors)
