import copy
import itertools
import random
import signal
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.linalg import (snf_int, kernel_generators,
                           diagonal_p_exponents, homology_divisors,
                           components, solve_once, windowed_block)


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _rows(M):
    """The sparse rows {column: entry} of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in M]


def _columns(M, c):
    """The sparse columns {row: entry} of a dense matrix with c columns."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(c)]


def _diag_matrix(D, r, c):
    """The r x c matrix with diagonal D."""
    out = [[0] * c for _ in range(r)]
    for t, d in enumerate(D):
        out[t][t] = d
    return out


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
    U, D, V = snf_int(_rows(M), c, q)
    assert len(D) == min(r, c)
    UMV = _mat_mul(_mat_mul(U, M), V)
    assert all((x - y) % q == 0 for row, drow in zip(UMV, _diag_matrix(D, r, c))
               for x, y in zip(row, drow))
    # U and V are invertible mod q exactly when they are invertible mod p
    assert _rank_mod_p(U, p) == r
    assert _rank_mod_p(V, p) == c
    # |(Z/q)^r / M (Z/q)^c| = p^(sum of the capped valuations of D's diagonal)
    total = 0
    for t in range(r):
        d = D[t] % q if t < c else 0
        v = 0
        while v < N and d % p ** (v + 1) == 0:
            v += 1
        total += v
    image = _span([[row[j] for row in M] for j in range(c)], [N] * r, p)
    assert q ** r == len(image) * p ** total



# -- reference Smith form ------------------------------------------------------


def _axpy_reference(dst, src, k, q):
    for j, x in src.items():
        y = (dst.get(j, 0) + k * x) % q
        if y:
            dst[j] = y
        else:
            dst.pop(j, None)


def _snf_int_reference(M, q):
    """The Smith form with the pivot found by rescanning every active entry:
    the first entry of least gcd(x, q), rows in order, each row in its
    dict order.  snf_int must pick the same pivots and so return the same
    (U, D, V)."""
    r = len(M)
    c = len(M[0]) if r else 0
    rows = [{j: x % q for j, x in enumerate(row) if x % q} for row in M]
    U = [{i: 1} for i in range(r)]
    V = [{j: 1} for j in range(c)]
    active = [i for i in range(r) if rows[i]]
    pivots = []
    while True:
        best = piv = None
        for i in active:
            for j, x in rows[i].items():
                if best is None or gcd(x, q) < best:
                    best, piv = gcd(x, q), (i, j)
        if piv is None:
            break
        i0, j0 = piv
        row0 = rows[i0]
        x = row0[j0]
        inv = pow(x // best, -1, q)

        def quot(y):
            return y // best * inv % q
        # best divides every entry, so each step leaves an exact zero
        for i in active:
            Di = rows[i]
            if i != i0 and j0 in Di:
                k = -quot(Di[j0])
                _axpy_reference(Di, row0, k, q)
                _axpy_reference(U[i], U[i0], k, q)
                assert j0 not in Di
        for j, y in list(row0.items()):
            if j != j0:
                k = quot(y)
                _axpy_reference(V[j], V[j0], -k, q)
                assert (y - k * x) % q == 0
                del row0[j]
        pivots.append(piv)
        active = [i for i in active if i != i0 and rows[i]]
    order_r = [i for i, _ in pivots]
    order_r += sorted(set(range(r)) - set(order_r))
    order_c = [j for _, j in pivots]
    order_c += sorted(set(range(c)) - set(order_c))
    Ud = [[U[i].get(k, 0) for k in range(r)] for i in order_r]
    Vd = [[V[j].get(k, 0) for j in order_c] for k in range(c)]
    D = [[0] * c for _ in range(r)]
    for t, (i, j) in enumerate(pivots):
        D[t][t] = rows[i][j]
    return Ud, D, Vd


@st.composite
def snf_inputs(draw):
    """(M, q): q = p^N with p in {2, 3} and N <= 4, M at most 8 x 8 and
    sparse or dense; with no_unit every entry is divisible by p, so every
    pivot is found by comparing keys rather than by the first unit."""
    p = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 4))
    q = p ** N
    r = draw(st.integers(1, 8))
    c = draw(st.integers(1, 8))
    low = 1 if draw(st.booleans()) else 0
    entry = st.one_of(
        st.just(0),
        st.builds(lambda u, k: u * p ** k, st.integers(-2 * p ** N, 2 * p ** N),
                  st.integers(low, N)))
    M = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    return M, q


def _time_out(signum, frame):
    raise TimeoutError("snf_int did not finish within a second")


@settings(max_examples=400, deadline=None)
@given(snf_inputs())
def test_snf_matches_reference_pivots(args):
    # a pivot search misled by a stale row key can cycle for ever, so each
    # call gets a second (an 8 x 8 form takes well under a millisecond)
    M, q = args
    r, c = len(M), len(M[0])
    U, D, V = _snf_int_reference([row[:] for row in M], q)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        U2, D2, V2 = snf_int(_rows(M), c, q)
        assert len(D2) == min(r, c)
        assert (U2, _diag_matrix(D2, r, c), V2) == (U, D, V)
        assert snf_int(_rows(M), c, q, transforms=False) == ([], D2, [])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=None)
@given(snf_inputs(), st.randoms(use_true_random=False))
def test_snf_ignores_key_order_and_keeps_its_input(args, rng):
    # every entry, zeros too, with each row's keys in a random order
    M, q = args
    c = len(M[0])
    rows = []
    for row in M:
        keys = list(range(c))
        rng.shuffle(keys)
        rows.append({j: row[j] for j in keys})
    before = copy.deepcopy(rows)
    assert snf_int(rows, c, q) == snf_int(_rows(M), c, q)
    assert snf_int(rows, c, q, transforms=False) == \
        snf_int(_rows(M), c, q, transforms=False)
    assert rows == before
    assert [list(row) for row in rows] == [list(row) for row in before]


@st.composite
def kernel_inputs(draw):
    """(p, n, c, M): M has at most 4 rows, none allowed, and c <= 4 columns
    of entries u * p^k, with (p^n)^c at most 9^4 so that the kernel can be
    enumerated."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    q = p ** n
    c = draw(st.integers(1, max(k for k in range(1, 5) if q ** k <= 9 ** 4)))
    entry = st.builds(lambda u, k: u * p ** k, st.integers(-q, q),
                      st.integers(0, n))
    M = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=4))
    return p, n, c, M


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernel_generators_match_enumeration(args):
    p, n, c, M = args
    q = p ** n
    gens = kernel_generators(_rows(M), c, p, n)
    kernel = {x for x in itertools.product(range(q), repeat=c)
              if all(sum(a * b for a, b in zip(row, x)) % q == 0
                     for row in M)}
    assert _span([v for v, _ in gens], [n] * c, p) == kernel
    for v, e in gens:
        assert 1 <= e <= n
        assert all(p ** e * x % q == 0 for x in v)
        assert any(p ** (e - 1) * x % q for x in v)
    assert p ** sum(e for _, e in gens) == len(kernel)


def test_diagonal_p_exponents():
    D = [4, 12, 1]
    assert diagonal_p_exponents(D, 2, 3) == [2, 2]
    assert diagonal_p_exponents(D, 2, 1) == [1, 1]
    assert diagonal_p_exponents(D, 3, 4) == [1]


def test_finite_quotient_orders():
    # Z^2 / <(2,0),(0,8)> over p=2 with cap 3: orders 2^1 and 2^3
    A = [{0: 2}, {1: 8}]
    assert homology_divisors(A, [{}, {}], [3, 3], [], 2, 3) == [1, 3]
    assert homology_divisors(A, [{}, {}], [3, 3], [], 2, 2) == [1, 2]


def test_components_keep_item_order():
    links = [("c", "a"), ("e", "d"), ("d", "e")]
    assert components("abcde", links) == [["a", "c"], ["b"], ["d", "e"]]
    assert components([], []) == []


def test_windowed_block_keeps_every_reached_row():
    # mid = [0, 1] over Z/9: nabla of 1 reaches 2, past the window.  B keeps
    # that row, so 1 is not horizontal; the source column that reaches 2
    # leaks out and is dropped from A
    A, B, targets = windowed_block([0, 1], [{1: 3}, {2: 3}],
                                   [{0: 1, 1: 1}, {1: 1, 2: 1}])
    assert (A, B, targets) == ([{0: 1, 1: 1}], [{0: 3}, {1: 3}], [1, 2])
    assert homology_divisors([], B, [2, 2], [2, 2], 3, 2) == [1, 1]
    # cut to the window, the image of 1 would vanish: a false Z/9
    assert homology_divisors([], [{0: 3}, {}], [2, 2], [2], 3, 2) == [1, 2]
    assert windowed_block([], [], []) == ([], [], [])


def test_solve_once_solves_each_distinct_input_once():
    calls = []

    def solve(A, B, orders_mid, orders_out):
        calls.append((A, B, orders_mid, orders_out))
        return homology_divisors(A, B, orders_mid, orders_out, 3, 2)

    once = solve_once(solve)
    A, B = [{0: 3, 1: 3}], [{0: 3}, {1: 3}]
    assert once(A, B, [2, 2], [2, 2]) == [1]
    # the same entries at the same places, in another key order
    assert once([{1: 3, 0: 3}], [{0: 3}, {1: 3}], [2, 2], [2, 2]) == [1]
    assert len(calls) == 1
    # the same columns with other orders are other inputs
    assert once(A, B, [2, 2], [1, 2]) == [2]
    assert once(A, B, [1, 2], [2, 2]) == []
    assert len(calls) == 3
    # a caller that changes its list leaves the next caller's alone
    once(A, B, [2, 2], [2, 2]).append(99)
    assert once(A, B, [2, 2], [2, 2]) == [1]
    assert len(calls) == 3


def test_homology_divisors_empty_middle():
    assert homology_divisors([], [], [], [], 2, 3) == []
    assert homology_divisors([{}], [], [], [2], 3, 2) == []


def test_homology_divisors_rejects_non_complex():
    # B*A = 1 is not zero modulo 2^2
    with pytest.raises(ValueError, match="not a complex"):
        homology_divisors([{0: 1}], [{0: 1}], [2], [2], 2, 2)
    # B is not defined on Z/2: it sends the relation 2 to 2, nonzero mod 2^2
    with pytest.raises(ValueError, match="not a complex"):
        homology_divisors([{}], [{0: 1}], [1], [2], 2, 2)


def test_homology_of_known_complex():
    # Z/p^n --p--> Z/p^n: homology at the middle is ker(p)/0 = Z/p^{n-1}...
    # with the incoming map zero: ker(B)/im(A) where A = [p], B absent
    p, n = 3, 3
    H = homology_divisors([{0: p}], [{}], [n], [], p, n)
    # middle term Z/p^n modulo pZ/p^n: group of order p
    assert H == [1]


def test_homology_exact_complex_vanishes():
    # identity boundary in: everything is a boundary
    p, n = 2, 4
    H = homology_divisors([{0: 1}], [{}], [n], [], p, n)
    assert H == []


def test_homology_kernel_cut():
    # B = [p^{n-1}] out of the middle: kernel is pZ/p^n, no boundaries in
    p, n = 2, 3
    zero_in = [{}]
    H = homology_divisors(zero_in, [{0: p ** (n - 1)}], [n], [n], p, n)
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
    divisors = homology_divisors(_columns(A, len(A[0])),
                                 _columns(B, len(mid)), mid, out, p, max(mid))
    image = _span([[row[j] for row in A] for j in range(len(A[0]))],
                  mid, p)
    for k in range(max(mid) + 1):
        killed = sum(1 for x in ker
                     if tuple(p ** k * xi % p ** o
                              for xi, o in zip(x, mid)) in image)
        assert killed == len(image) * p ** sum(min(e, k) for e in divisors)
