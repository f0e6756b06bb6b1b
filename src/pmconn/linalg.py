"""Integer matrix utilities: Smith normal form, kernel lattices, exact
solves, homology of finite p-group complexes, and connected components.

Homology over Z/p^nZ is computed on integer lifts so that no valuation is
lost to premature reduction.  Groups that appear are always killed by a power
of p, so elementary divisors are reported as lists of p-exponents.  We only
ever need the multiset of p-valuations of a diagonal form, not the divisor
chain ordering, which lets the SNF routine skip the divisibility fixup pass.
"""

from __future__ import annotations

from .arith import int_val_p


def mat_identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(A, B):
    rb = len(B)
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for k in range(rb):
            a = row[k]
            if a:
                Bk = B[k]
                for j in range(len(Bk)):
                    if Bk[j]:
                        acc[j] += a * Bk[j]
        out.append(acc)
    return out


def snf_int(M):
    """Diagonalize M over Z by unimodular row/column operations.

    Returns (U, D, V) with U*M*V = D diagonal (no divisibility chain).
    """
    r = len(M)
    c = len(M[0]) if r else 0
    D = [list(row) for row in M]
    U = mat_identity(r)
    V = mat_identity(c)
    t = 0
    while True:
        # locate a pivot: nonzero entry of minimal absolute value
        piv = None
        best = None
        for i in range(t, r):
            Di = D[i]
            for j in range(t, c):
                v = Di[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            D[t], D[i0] = D[i0], D[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in D:
                row[t], row[j0] = row[j0], row[t]
            for row in V:
                row[t], row[j0] = row[j0], row[t]
        # clear row and column t; restart pivot search if a remainder shrinks
        clean = True
        for i in range(t + 1, r):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                if q:
                    for j in range(c):
                        D[i][j] -= q * D[t][j]
                    for j in range(r):
                        U[i][j] -= q * U[t][j]
                if D[i][t]:
                    clean = False
        for j in range(t + 1, c):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                if q:
                    for i in range(r):
                        D[i][j] -= q * D[i][t]
                    for i in range(c):
                        V[i][j] -= q * V[i][t]
                if D[t][j]:
                    clean = False
        if not clean:
            continue
        # column t may have been refilled by the row clearing
        if any(D[i][t] for i in range(t + 1, r)):
            continue
        t += 1
        if t >= min(r, c):
            break
    return U, D, V


def kernel_lattice(M, row_moduli):
    """Basis of the lattice {x in Z^c : (Mx)_j == 0 mod row_moduli[j]}.

    Returns exactly c basis column vectors (length c).  The lattice has full
    rank c because it contains lcm(row_moduli) * Z^c, and the integer kernel
    of [M | diag(row_moduli)] projects isomorphically onto it, so the
    projected kernel basis is a basis of the lattice.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    if r == 0:
        return [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    # augment with the row moduli: Mx + diag(m) y = 0 solvable in y
    aug = [list(M[i]) + [row_moduli[i] if j == i else 0 for j in range(r)]
           for i in range(r)]
    U, D, V = snf_int(aug)
    cols = len(aug[0])
    rank = sum(1 for t in range(min(r, cols)) if D[t][t])
    basis = []
    for j in range(rank, cols):
        vec = [V[i][j] for i in range(c)]
        basis.append(vec)
    return basis


def solve_exact(G, W):
    """Solve G X = W for integer X, G square.

    Raises ValueError when G is singular or the solution is not integral.
    """
    b = len(G)
    U, D, V = snf_int(G)
    # G = U^{-1} D V^{-1}, so X = V D^{-1} U W
    UW = mat_mul(U, W)
    cols = len(W[0]) if W else 0
    Y = []
    for t in range(b):
        dt = D[t][t]
        if dt == 0:
            raise ValueError("matrix is singular")
        row = []
        for j in range(cols):
            q, rem = divmod(UW[t][j], dt)
            if rem:
                raise ValueError("system has no integral solution")
            row.append(q)
        Y.append(row)
    return mat_mul(V, Y)


def diagonal_p_exponents(D, p, cap):
    """p-exponents (capped, positives only) of the diagonal of D."""
    out = []
    for t in range(min(len(D), len(D[0]) if D else 0)):
        d = D[t][t]
        if d == 0:
            raise ValueError("infinite summand in a group expected finite")
        e = min(int_val_p(d, p), cap)
        if e > 0:
            out.append(e)
    return sorted(out)


def homology_divisors(A, B, orders_mid, orders_out, p, cap):
    """Sorted elementary divisor p-exponents of ker(B)/im(A) for a complex

        free -> (+) Z/p^orders_mid -> (+) Z/p^orders_out

    given by integer matrices A (mid x a) and B (out x mid).  On integer
    lifts the group is L / span(A, diag(p^orders_mid)), L the kernel lattice
    of B; writing that span in a basis of L and diagonalizing it once gives
    the divisors.
    """
    b = len(orders_mid)
    W = [list(A[i]) + [p ** orders_mid[i] if j == i else 0 for j in range(b)]
         for i in range(b)]
    if B:
        K = kernel_lattice(B, [p ** o for o in orders_out])
        W = solve_exact([[v[i] for v in K] for i in range(b)], W)
    _, D, _ = snf_int(W)
    return diagonal_p_exponents(D, p, cap)


def components(items, links):
    """Connected components of items under the pairs (a, b) in links.

    Members keep the order of items, and components come in the order of
    their first members.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps = {}
    for x in items:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())
