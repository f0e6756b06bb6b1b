"""Matrix utilities over Z/p^N on sparse rows and columns: a Smith normal
form, kernel generators, homology of finite p-group complexes, the blocks of
windowed complexes, and connected components.

Matrices come in as lists of dicts, rows ``{column: entry}`` for ``snf_int``
and ``kernel_generators`` and columns ``{row: entry}`` for the maps of a
complex, so nothing on the homology path is ever dense; only the transforms
U and V, which the kernel reads, come back dense.  ``snf_int`` diagonalises
over Z/p^N in one sparse elimination loop.  It reads each pivot off the
rows' least keys, kept up to date for the rows a step changes, finds the
rows to clear in a column -> rows index, and builds U and V only for callers
that read them.  The kernel of a matrix over Z/p^N is read off the same
Smith form: U M V = D puts it in the span of V's columns, each cut down by
its pivot.  Homology of a complex of finite p-groups is one Smith form over
Z/p^{N+1} of the middle relations lifted into the kernel of the outgoing
map, N the largest middle order.  Every invariant of the homology has
p-valuation at most N, so the reduction mod p^{N+1} loses none of them, and
entries never grow past p^{N+1}.  Elementary divisors are reported as lists
of p-exponents.  Neither the kernel nor homology needs the divisor chain,
only the p-valuations of a diagonal form, so the Smith form skips the
divisibility fix-up, and homology skips the transforms as well.
windowed_block builds a block of a windowed complex, de Rham or Witt, from
images {target: entry}, with a row for every target reached, and
solve_once, the one memo of solves, solves repeated blocks once.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd

from .arith import int_val_p


def _axpy(dst, src, k, q):
    """dst += k * src for sparse vectors (dicts), reduced mod q."""
    get = dst.get
    for j, x in src.items():
        y = (get(j, 0) + k * x) % q
        if y:
            dst[j] = y
        else:
            dst.pop(j, None)


def snf_int(M, c, q, *, transforms=True):
    """Diagonalize M over Z/qZ, q a prime power p^N, by invertible row and
    column operations.

    M is a list of sparse rows ``{column: entry}`` over columns 0..c-1; it is
    read, never changed.  Returns (U, D, V) with U*M*V = diag(D) (congruent
    mod q), D the diagonal as a list of min(len(M), c) entries with the
    nonzero ones first, and U, V dense and invertible (mod p).  There is no
    divisibility chain.  With transforms=False, U and V are never built and
    come back as empty lists; D is the same.

    The rows are reduced in a copy whose keys run in increasing column
    order, so the pivot depends only on the matrix: the first entry of least
    key gcd(x, q), its p-power part, in the first row that holds one.  It
    divides every other entry, so one modular inverse clears its row and
    column.  Each row keeps its least key, recomputed only for the rows a
    step changes, so finding a pivot is one pass over the rows, not over the
    entries.  A column -> rows index gives the rows to clear; it may name a
    row twice, or a row that has since lost the column, and those are
    skipped.  Each row takes a multiple of the pivot row alone, so the order
    they are cleared in changes nothing.
    """
    r = len(M)
    rows = [{j: y for j in sorted(row) if (y := row[j] % q)} for row in M]
    where = [[] for _ in range(c)]
    for i, row in enumerate(rows):
        for j in row:
            where[j].append(i)
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
        inv = pow(x // k0, -1, q)
        # clear column j0 by row operations, then row i0 by column operations;
        # k0 divides every entry, so each step leaves an exact zero
        for i in where[j0]:
            Di = rows[i]
            if i == i0 or j0 not in Di:
                continue
            for j in row0.keys() - Di.keys():
                where[j].append(i)
            k = -(Di[j0] // k0 * inv % q)
            _axpy(Di, row0, k, q)
            if transforms:
                _axpy(U[i], U[i0], k, q)
            mins[i] = least(Di)
        if transforms:
            for j, y in row0.items():
                if j != j0:
                    _axpy(V[j], V[j0], -(y // k0 * inv % q), q)
        rows[i0] = {j0: x}
        pivots.append((i0, j0))
        mins[i0] = done
    D = [rows[i][j] for i, j in pivots]
    D += [0] * (min(r, c) - len(D))
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


def kernel_generators(M, c, p, n):
    """Generators of the kernel of M (sparse rows over c columns) over
    Z/p^n, as pairs (vector, e) with the vector of order exactly p^e; the
    kernel is their direct sum.

    With U M V = D mod p^n, Mx = 0 iff y = V^-1 x has d_t y_t = 0 for every
    t, so a pivot d_t of valuation v gives p^(n-v) times column t of V, of
    order p^v (nothing at a unit pivot), and a column past the pivots gives
    itself, of order p^n.  With no rows V is the identity.
    """
    q = p ** n
    _, D, V = snf_int(M, c, q)
    out = []
    for t in range(c):
        d = D[t] if t < len(D) else 0
        e = int_val_p(d, p) if d else n
        if e:
            scale = p ** (n - e)
            out.append(([row[t] * scale % q for row in V], e))
    return out


def diagonal_p_exponents(D, p, cap):
    """p-exponents (capped, positives only) of the diagonal entries D."""
    out = []
    for d in D:
        if d == 0:
            raise ValueError("infinite summand in a group expected finite")
        e = min(int_val_p(d, p), cap)
        if e > 0:
            out.append(e)
    return sorted(out)


def homology_divisors(A, B, orders_mid, orders_out, p, cap):
    """Sorted elementary divisor p-exponents of ker(B)/im(A) for a complex

        free -> (+) Z/p^orders_mid -> (+) Z/p^orders_out

    given by integer matrices as sparse columns: A is a list of columns
    {middle index: entry}, one per free generator, and B has one column
    {out index: entry} per middle generator.

    Each relation r, a column of W = [A | diag(p^orders_mid)], lifts to
    (r, -(B r) / p^orders_out) in the kernel K of [B | diag(p^orders_out)].
    K projects isomorphically onto the kernel lattice of B and is saturated,
    so H is the torsion of the cokernel of the lifts: their first b = len(mid)
    invariants, each of valuation at most max(orders_mid), read from one Smith
    form over Z/p^(max(orders_mid) + 1).  The b relation rows and the lift
    rows, one per out index that a lift reaches, are built as sparse rows.
    """
    b = len(orders_mid)
    if not b:
        return []
    rels = A + [{i: p ** o} for i, o in enumerate(orders_mid)]
    mods = [p ** o for o in orders_out]
    S = [{} for _ in range(b)]
    Y = {}
    for col, rel in enumerate(rels):
        image = {}
        for i, x in rel.items():
            S[i][col] = x
            for j, y in B[i].items():
                image[j] = image.get(j, 0) + y * x
        for j, y in image.items():
            lift, rem = divmod(y, mods[j])
            if rem:
                raise ValueError("input is not a complex: B*A or "
                                 "B*diag(p^orders_mid) is nonzero modulo "
                                 "p^orders_out")
            if lift:
                Y.setdefault(j, {})[col] = -lift
    S.extend(Y[j] for j in sorted(Y))
    _, D, _ = snf_int(S, len(rels), p ** (max(orders_mid) + 1),
                      transforms=False)
    return diagonal_p_exponents(D[:b], p, cap)


def windowed_block(mid, images, src_images):
    """The block of a windowed complex at the middle generators mid, from
    images given as dicts {target: entry}: images[k] is the image of mid[k],
    and src_images those of the generators one degree below.

    Returns (A, B, targets) as homology_divisors reads them.  A holds the
    source columns that land inside mid, over mid's positions; a column
    with a target outside mid leaks out of the window and is dropped.  B
    has a row for each target reached, in the window or past it, in sorted
    order, so no image is cut; targets lists them for their orders.
    """
    pos = {x: k for k, x in enumerate(mid)}
    A = [{pos[x]: c for x, c in image.items()} for image in src_images
         if image.keys() <= pos.keys()]
    targets = sorted({x for image in images for x in image})
    row = {x: k for k, x in enumerate(targets)}
    B = [{row[x]: c for x, c in image.items()} for image in images]
    return A, B, targets


def solve_once(solve):
    """solve(A, B, orders_mid, orders_out) on sparse columns, run once per
    distinct input: a call with the same entries at the same places and the
    same orders as an earlier one reads its result, as a list of its own."""
    solved = {}

    def once(A, B, orders_mid, orders_out):
        key = (tuple(tuple(sorted(col.items())) for col in A),
               tuple(tuple(sorted(col.items())) for col in B),
               tuple(orders_mid), tuple(orders_out))
        if key not in solved:
            solved[key] = solve(A, B, orders_mid, orders_out)
        return list(solved[key])

    return once


def components(items, links):
    """Connected components of items under the pairs (a, b) in links.

    A link may name a point outside items: the point joins the components
    of the items linked to it and is listed in none.  Members keep the order
    of items, and components come in the order of their first members.
    """
    parent = {x: x for x in items}

    def find(x):
        while (up := parent.setdefault(x, x)) != x:
            parent[x] = parent[up]
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
