"""Matrix utilities over Z and Z/p^N: a sparse Smith normal form, kernel
lattices, exact solves, homology of finite p-group complexes, and connected
components.

``snf_int`` diagonalises over Z or over Z/p^N in one sparse elimination loop.
It reads each pivot off the rows' least keys, kept up to date for the rows a
step changes, and builds U and V only for callers that read them.  Homology of
a complex of finite p-groups is one Smith form over Z/p^{N+1} of the middle
relations lifted into the kernel of the outgoing map, N the largest middle
order.  Every invariant of the homology has p-valuation at most N, so the
reduction mod p^{N+1} loses none of them, and entries never grow past
p^{N+1}.  Elementary divisors are reported as lists of p-exponents.  Only the
multiset of p-valuations of a diagonal form is ever needed, not the divisor
chain, so the Smith form skips the divisibility fix-up and the transforms.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd

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


def _axpy(dst, src, k, q):
    """dst += k * src for sparse vectors (dicts), reduced mod q if q != 0."""
    get = dst.get
    for j, x in src.items():
        y = get(j, 0) + k * x
        if q:
            y %= q
        if y:
            dst[j] = y
        else:
            dst.pop(j, None)


def snf_int(M, q=0, *, transforms=True):
    """Diagonalize M over Z/qZ by invertible row and column operations, where
    q = 0 means over Z and any other q is a prime power p^N.

    Returns dense (U, D, V) with U*M*V = D (congruent mod q), D diagonal with
    its nonzero entries first, and U, V invertible (mod p).  There is no
    divisibility chain.  With transforms=False, U and V are never built and
    come back as empty lists; D is the same.  Rows of D and U are dicts and V
    is kept by columns, so a sparse M stays cheap.

    The pivot is the first entry of least key gcd(x, q) in the first row that
    holds one: least |x| over Z, where Euclidean remainders send the search
    round again, and least p-valuation over Z/p^N, which divides every other
    entry, so one modular inverse clears its row and column.  Each row keeps
    its least key, recomputed only for the rows a step changes, so finding a
    pivot is one pass over the rows, not over the entries.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    if q:
        rows = [{j: x % q for j, x in enumerate(row) if x and x % q}
                for row in M]
    else:
        rows = [{j: x for j, x in enumerate(row) if x} for row in M]
    U = [{i: 1} for i in range(r)] if transforms else []
    V = [{j: 1} for j in range(c)] if transforms else []
    done = float("inf")

    def least(row):
        return min(map(gcd, row.values(), repeat(q)), default=done)

    mins = [least(row) for row in rows]
    pivots = []
    while (k0 := min(mins, default=done)) != done:
        i0 = mins.index(k0)
        row0 = rows[i0]
        j0 = next(j for j, y in row0.items() if gcd(y, q) == k0)
        x = row0[j0]
        if q:
            inv = pow(x // k0, -1, q)

            def quot(y):
                return y // k0 * inv % q
        else:
            def quot(y):
                return y // x
        # clear column j0 by row operations, then row i0 by column operations;
        # over Z a nonzero remainder is a smaller pivot for the next round
        clean = True
        for i in [i for i, Di in enumerate(rows) if j0 in Di and i != i0]:
            Di = rows[i]
            k = -quot(Di[j0])
            _axpy(Di, row0, k, q)
            if transforms:
                _axpy(U[i], U[i0], k, q)
            clean = clean and j0 not in Di
            mins[i] = least(Di)
        if not clean:
            continue
        for j, y in list(row0.items()):
            if j != j0:
                k = quot(y)
                if transforms:
                    _axpy(V[j], V[j0], -k, q)
                rem = (y - k * x) % q if q else y - k * x
                if rem:
                    row0[j] = rem
                    clean = False
                else:
                    del row0[j]
        if clean:
            pivots.append((i0, j0))
        mins[i0] = done if clean else least(row0)
    D = [[0] * c for _ in range(r)]
    for t, (i, j) in enumerate(pivots):
        D[t][t] = rows[i][j]
    if not transforms:
        return U, D, V
    # pivots first, the rest (zero in D) after them in their original order
    order_r = [i for i, _ in pivots]
    order_r += sorted(set(range(r)) - set(order_r))
    order_c = [j for _, j in pivots]
    order_c += sorted(set(range(c)) - set(order_c))
    Ud = [[0] * r for _ in range(r)]
    for t, i in enumerate(order_r):
        for k, y in U[i].items():
            Ud[t][k] = y
    Vd = [[0] * c for _ in range(c)]
    for t, j in enumerate(order_c):
        for k, y in V[j].items():
            Vd[k][t] = y
    return Ud, D, Vd


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

    given by integer matrices A (mid x a) and B (out x mid).

    Each relation r, a column of W = [A | diag(p^orders_mid)], lifts to
    (r, -(B r) / p^orders_out) in the kernel K of [B | diag(p^orders_out)].
    K projects isomorphically onto the kernel lattice of B and is saturated,
    so H is the torsion of the cokernel of the lifts: their first b = len(mid)
    invariants, each of valuation at most max(orders_mid), read from one Smith
    form over Z/p^(max(orders_mid) + 1).
    """
    b = len(orders_mid)
    if not b:
        return []
    a = len(A[0]) if A else 0
    rels = [{i: A[i][k] for i in range(b) if A[i][k]} for k in range(a)]
    rels += [{i: p ** o} for i, o in enumerate(orders_mid)]
    Bcols = [[] for _ in range(b)]
    for j, row in enumerate(B):
        for i, x in enumerate(row):
            if x:
                Bcols[i].append((j, x))
    mods = [p ** o for o in orders_out]
    S = [[0] * len(rels) for _ in range(b)]
    Y = {}
    for col, rel in enumerate(rels):
        image = {}
        for i, x in rel.items():
            S[i][col] = x
            for j, y in Bcols[i]:
                image[j] = image.get(j, 0) + y * x
        for j, y in image.items():
            lift, rem = divmod(y, mods[j])
            if rem:
                raise ValueError("input is not a complex: B*A or "
                                 "B*diag(p^orders_mid) is nonzero modulo "
                                 "p^orders_out")
            if lift:
                Y.setdefault(j, [0] * len(rels))[col] = -lift
    S.extend(Y[j] for j in sorted(Y))
    _, D, _ = snf_int(S, p ** (max(orders_mid) + 1), transforms=False)
    return diagonal_p_exponents(D[:b], p, cap)


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
