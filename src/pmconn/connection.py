"""Free modules with p^m-connections on the torus chart.

A connection of level -m on a free module of rank r is stored as d matrices
Theta_i over the Laurent ring, written against the logarithmic basis:

    nabla(s) = sum_i (p^m t_i d s/d t_i + Theta_i s) dlog t_i.

m = 0 is an ordinary connection; once p^m = 0 mod p^n the object is a Higgs
module and Theta is its Higgs field.  Everything here is exact mod p^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .arith import RingCtx
from .laurent import LaurentPoly, ContextMismatch


# -- matrix helpers over the Laurent ring ------------------------------------

def mat_zero(ctx, d, r, c=None):
    c = r if c is None else c
    z = LaurentPoly.zero(ctx, d)
    return tuple(tuple(z for _ in range(c)) for _ in range(r))

def mat_id(ctx, d, r):
    one = LaurentPoly.one(ctx, d)
    z = LaurentPoly.zero(ctx, d)
    return tuple(tuple(one if i == j else z for j in range(r)) for i in range(r))

def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))

def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))

def mat_scale(A, c):
    return tuple(tuple(a * c for a in ra) for ra in A)

def mat_matmul(A, B):
    rows = len(A)
    inner = len(B)
    cols = len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = A[i][0] * B[0][j]
            for k in range(1, inner):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)

def mat_apply(A, v):
    return tuple(
        _dot(row, v) for row in A)

def _dot(row, v):
    acc = row[0] * v[0]
    for a, x in zip(row[1:], v[1:]):
        acc = acc + a * x
    return acc

def mat_map(A, fn):
    return tuple(tuple(fn(a) for a in row) for row in A)

def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)

def mat_det(A):
    r = len(A)
    if r == 1:
        return A[0][0]
    acc = None
    for j in range(r):
        minor = tuple(tuple(row[k] for k in range(r) if k != j) for row in A[1:])
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc

def mat_inverse(A):
    """Inverse over the Laurent ring; requires the determinant to be a unit."""
    r = len(A)
    det = mat_det(A)
    det_inv = det.invert()
    if r == 1:
        return ((det_inv,),)
    cof = []
    for i in range(r):
        row = []
        for j in range(r):
            minor = tuple(
                tuple(A[ii][jj] for jj in range(r) if jj != j)
                for ii in range(r) if ii != i)
            c = mat_det(minor)
            if (i + j) % 2:
                c = -c
            row.append(c)
        cof.append(row)
    # adjugate = transpose of cofactor matrix
    return tuple(
        tuple(cof[j][i] * det_inv for j in range(r)) for i in range(r))


# -- the connection type ------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    ctx: RingCtx
    d: int
    m: int
    rank: int
    theta: tuple  # d matrices, rank x rank, dlog basis

    def __post_init__(self):
        if len(self.theta) != self.d:
            raise ValueError("need one Theta matrix per axis")
        for M in self.theta:
            if len(M) != self.rank or any(len(row) != self.rank for row in M):
                raise ValueError("Theta matrix of wrong shape")
            for row in M:
                for a in row:
                    if a.ctx != self.ctx or a.d != self.d:
                        raise ContextMismatch("Theta entry in wrong ring")

    # constructors
    @staticmethod
    def trivial(ctx, d, m, rank=1):
        """(O, p^m d)^rank: the unit object at level -m."""
        return Connection(ctx, d, m, rank,
                          tuple(mat_zero(ctx, d, rank) for _ in range(d)))

    @staticmethod
    def rank1(ctx, d, m, coeffs):
        """Rank-1 connection nabla = p^m d + sum_i f_i dlog t_i."""
        return Connection(ctx, d, m, 1, tuple(((f,),) for f in coeffs))

    def p_to_m(self):
        return pow(self.ctx.p, self.m, self.ctx.modulus)

    def is_higgs(self):
        return self.m >= self.ctx.n

    # the operator theta_i = p^m t_i d/dt_i + Theta_i on column vectors
    def theta_apply(self, i, v):
        pm = self.p_to_m()
        der = tuple(x.log_partial(i) * pm for x in v)
        return tuple(a + b for a, b in zip(mat_apply(self.theta[i - 1], v), der))

    def theta_power_apply(self, a, v):
        """theta^a = prod_i theta_i^{a_i}; requires integrability."""
        if len(a) != self.d:
            raise ValueError("multi-index arity mismatch")
        if not self.is_integrable():
            raise ValueError("theta powers are only well-defined when integrable")
        for i in range(self.d, 0, -1):
            for _ in range(a[i - 1]):
                v = self.theta_apply(i, v)
        return v

    @cached_property
    def _theta_dt(self):
        """The matrices t_i^{-1} Theta_i, one per axis."""
        return tuple(mat_scale(M, LaurentPoly.var(self.ctx, self.d, i, -1))
                     for i, M in enumerate(self.theta, 1))

    def theta_apply_dt(self, i, v):
        """The dt-basis operator: nabla(s) = sum_i theta_dt_i(s) dt_i, so
        theta_dt_i = t_i^{-1} theta_i = (t_i^{-1} Theta_i) + p^m d/dt_i."""
        pm = self.p_to_m()
        return tuple(a + x.partial(i) * pm
                     for a, x in zip(mat_apply(self._theta_dt[i - 1], v), v))

    def theta_power_apply_dt(self, a, v):
        if not self.is_integrable():
            raise ValueError("theta powers are only well-defined when integrable")
        for i in range(self.d, 0, -1):
            for _ in range(a[i - 1]):
                v = self.theta_apply_dt(i, v)
        return v

    def basis_vector(self, k):
        z = LaurentPoly.zero(self.ctx, self.d)
        one = LaurentPoly.one(self.ctx, self.d)
        return tuple(one if j == k else z for j in range(self.rank))

    # integrability
    def curvature(self):
        """K_ij = p^m t_i d_i(Theta_j) - p^m t_j d_j(Theta_i) + [Theta_i, Theta_j]
        for i < j; empty list when d = 1."""
        pm = self.p_to_m()
        out = []
        for i in range(1, self.d + 1):
            for j in range(i + 1, self.d + 1):
                Ti, Tj = self.theta[i - 1], self.theta[j - 1]
                K = mat_add(
                    mat_sub(mat_map(Tj, lambda f: f.log_partial(i) * pm),
                            mat_map(Ti, lambda f: f.log_partial(j) * pm)),
                    mat_sub(mat_matmul(Ti, Tj), mat_matmul(Tj, Ti)))
                out.append(((i, j), K))
        return out

    @cached_property
    def _integrable(self):
        return all(mat_is_zero(K) for _, K in self.curvature())

    def is_integrable(self):
        """Whether the curvature vanishes; computed once per connection."""
        return self._integrable

    def max_log_degree(self):
        return max((a.log_degree() for M in self.theta for row in M for a in row),
                   default=0)

    def __str__(self):
        mats = "; ".join(
            "[" + ", ".join("[" + ", ".join(str(a) for a in row) + "]"
                            for row in M) + "]"
            for M in self.theta)
        return (f"Connection(p={self.ctx.p}, n={self.ctx.n}, m={self.m}, "
                f"d={self.d}, rank={self.rank}, theta={mats})")


def gauge(C, g):
    """Change of basis: Theta'_i = g^{-1}(Theta_i g + p^m t_i d_i(g))."""
    ginv = mat_inverse(g)
    pm = C.p_to_m()
    new = []
    for i in range(1, C.d + 1):
        dg = mat_map(g, lambda f: f.log_partial(i) * pm)
        new.append(mat_matmul(ginv, mat_add(mat_matmul(C.theta[i - 1], g), dg)))
    return Connection(C.ctx, C.d, C.m, C.rank, tuple(new))


def iota(C):
    """The twist (E, theta) -> (E, -theta); relevant for Higgs objects when
    matching sign conventions of the classical mod-p correspondence."""
    return Connection(C.ctx, C.d, C.m, C.rank,
                      tuple(mat_scale(M, -1) for M in C.theta))


def tensor(C1, C2):
    if (C1.ctx, C1.d, C1.m) != (C2.ctx, C2.d, C2.m):
        raise ContextMismatch("tensor needs equal ctx, d and level")
    r1, r2 = C1.rank, C2.rank
    r = r1 * r2
    thetas = []
    for i in range(C1.d):
        M = [[LaurentPoly.zero(C1.ctx, C1.d) for _ in range(r)] for _ in range(r)]
        T1, T2 = C1.theta[i], C2.theta[i]
        for a in range(r1):
            for b in range(r2):
                row = a * r2 + b
                for c in range(r1):
                    M[row][c * r2 + b] = M[row][c * r2 + b] + T1[a][c]
                for cdx in range(r2):
                    M[row][a * r2 + cdx] = M[row][a * r2 + cdx] + T2[b][cdx]
        thetas.append(tuple(tuple(row) for row in M))
    return Connection(C1.ctx, C1.d, C1.m, r, tuple(thetas))


def dual(C):
    new = []
    for M in C.theta:
        new.append(tuple(tuple(-M[j][i] for j in range(C.rank))
                         for i in range(C.rank)))
    return Connection(C.ctx, C.d, C.m, C.rank, tuple(new))


def internal_hom(C1, C2):
    """Hom(E1, E2) with nabla(phi) = nabla_2 phi - phi nabla_1."""
    return tensor(dual(C1), C2)


# -- quasi-nilpotence ---------------------------------------------------------

@dataclass(frozen=True)
class QNResult:
    status: str               # "true" | "false" | "undetermined"
    N: int | None             # generator bound (max over basis vectors)
    N_per_generator: tuple
    margin: int | None        # N + p^n d, valid for arbitrary sections
    cap: int
    certificate: object = None

    def __bool__(self):
        return self.status == "true"


def _vec_key(v):
    return tuple(x.terms for x in v)


def quasi_nilpotence_cap(C):
    return 4 * C.ctx.n * C.rank * C.d * (1 + C.max_log_degree())


def is_quasi_nilpotent(C, cap=None):
    """Three-valued quasi-nilpotence test by iterating theta on generators.

    True comes with the smallest per-generator N such that theta^a(e_k) = 0
    for |a| >= N; a revisited nonzero vector is a certificate of failure;
    hitting the cap without either outcome reports undetermined.
    """
    if not C.is_integrable():
        raise ValueError("quasi-nilpotence needs an integrable connection")
    cap = quasi_nilpotence_cap(C) if cap is None else cap
    Ns = []
    for k in range(C.rank):
        e = C.basis_vector(k)
        root = _vec_key(e)
        edges = {}
        layer = {root: e}
        seen = {root}
        closed = False
        for depth in range(1, cap + 1):
            nxt = {}
            for key, v in layer.items():
                succ = []
                for i in range(1, C.d + 1):
                    w = C.theta_apply(i, v)
                    if any(not x.is_zero() for x in w):
                        wkey = _vec_key(w)
                        succ.append(wkey)
                        if wkey not in seen:
                            seen.add(wkey)
                            nxt[wkey] = w
                edges[key] = succ
            layer = nxt
            if not layer:
                closed = True
                break
        cycle = _find_cycle(edges)
        if cycle is not None:
            return QNResult("false", None, (), None, cap, certificate=cycle)
        if not closed:
            return QNResult("undetermined", None, (), None, cap)
        Ns.append(_longest_path(edges, root) + 1)
    N = max(Ns)
    margin = N + C.ctx.modulus * C.d
    return QNResult("true", N, tuple(Ns), margin, cap)


def _longest_path(edges, root):
    """Number of edges on the longest path from root in an acyclic graph."""
    depth = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in depth:
            stack.pop()
            continue
        todo = [nb for nb in edges.get(node, ()) if nb not in depth]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        depth[node] = max((1 + depth[nb] for nb in edges.get(node, ())),
                          default=0)
    return depth[root]


def _find_cycle(edges):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: WHITE for k in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nb in it:
                if nb not in edges:
                    continue
                if color.get(nb, WHITE) == GRAY:
                    return tuple(path[path.index(nb):] + [nb])
                if color.get(nb, WHITE) == WHITE:
                    color[nb] = GRAY
                    stack.append((nb, iter(edges.get(nb, ()))))
                    path.append(nb)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


# -- coordinate change --------------------------------------------------------

def coordinate_change(C, A, units):
    """Transform along the torus automorphism t'_j = c_j prod_i t_i^{A_ji}.

    A must be in GL_d(Z) (ValueError otherwise); units are the c_j as
    integers, read mod p^n.  In the logarithmic basis the matrices transform
    by Theta'_j = sum_i B_ij Theta_i (B = A^{-1}), with coefficients
    rewritten in the t' coordinates.
    """
    d = C.d
    if len(A) != d or any(len(r) != d for r in A):
        raise ValueError("transform matrix of wrong shape")
    # A^-1 = det(A) * adj(A), as det(A) = +-1 in GL_d(Z)
    det = mat_det(A)
    if det not in (1, -1):
        raise ValueError("transform matrix is not invertible over Z")
    B = [[det]] if d == 1 else [
        [det * (-1) ** (i + j) * mat_det([r[:i] + r[i + 1:] for k, r in
                                          enumerate(A) if k != j])
         for j in range(d)] for i in range(d)]
    mod = C.ctx.modulus
    for c in units:
        if c % C.ctx.p == 0:
            raise ValueError("scaling factors must be units")
    cinv = [pow(c, -1, mod) for c in units]

    def subst(f):
        acc = {}
        for e, coeff in f.terms:
            e2 = tuple(sum(e[i] * B[i][j] for i in range(d)) for j in range(d))
            scale = 1
            for j in range(d):
                scale = scale * pow(cinv[j], e2[j], mod) % mod
            acc[e2] = acc.get(e2, 0) + coeff * scale
        return LaurentPoly.from_dict(C.ctx, d, acc)

    new = []
    for j in range(d):
        M = mat_zero(C.ctx, d, C.rank)
        for i in range(d):
            if B[i][j]:
                M = mat_add(M, mat_scale(mat_map(C.theta[i], subst), B[i][j]))
        new.append(M)
    return Connection(C.ctx, d, C.m, C.rank, tuple(new))


# -- extension presentations ---------------------------------------------------

@dataclass(frozen=True)
class ExtensionPresentation:
    """E exhibited as an iterated extension along the filtration by the spans
    of the first r_1, r_1+r_2, ... basis vectors.

    kinds[k] is "trivial" (graded piece claimed to be (O, p^m d)^{r_k}) or
    "f-constant" (comes with a witness matrix of horizontal generators).
    """
    conn: Connection
    ranks: tuple
    kinds: tuple
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.ranks) != self.conn.rank:
            raise ValueError("layer ranks must sum to the total rank")
        if len(self.kinds) != len(self.ranks):
            raise ValueError("one kind per layer")


@dataclass(frozen=True)
class PresentationReport:
    classification: str       # "nilpotent" | "f-nilpotent" | "invalid"
    length: int | None        # extension length for the Theorem 25 bounds
    reason: str = ""


def check_presentation(P):
    C = P.conn
    bounds = []
    s = 0
    for r in P.ranks:
        bounds.append((s, s + r))
        s += r
    blk = {}
    for k, (lo, hi) in enumerate(bounds):
        for idx in range(lo, hi):
            blk[idx] = k
    # the filtration is by spans of leading basis vectors, so each Theta must
    # be block upper triangular
    for M in C.theta:
        for row in range(C.rank):
            for col in range(C.rank):
                if blk[row] > blk[col] and not M[row][col].is_zero():
                    return PresentationReport(
                        "invalid", None,
                        f"Theta not compatible with the filtration at "
                        f"({row},{col})")
    pm = C.p_to_m()
    all_trivial = True
    for k, (lo, hi) in enumerate(bounds):
        diag = [tuple(tuple(M[i][j] for j in range(lo, hi))
                      for i in range(lo, hi)) for M in C.theta]
        if P.kinds[k] == "trivial":
            if not all(mat_is_zero(Dm) for Dm in diag):
                return PresentationReport(
                    "invalid", None, f"layer {k} claims (O, p^m d) but has a "
                    f"nonzero graded field")
        elif P.kinds[k] == "f-constant":
            all_trivial = False
            G = P.witnesses.get(k)
            if G is None:
                return PresentationReport(
                    "invalid", None, f"layer {k} lacks a constant-witness matrix")
            if not mat_det(G).is_unit():
                return PresentationReport(
                    "invalid", None, f"layer {k} witness does not generate")
            for i in range(1, C.d + 1):
                dG = mat_map(G, lambda f: f.log_partial(i) * pm)
                if not mat_is_zero(mat_add(mat_matmul(diag[i - 1], G), dG)):
                    return PresentationReport(
                        "invalid", None,
                        f"layer {k} witness generators are not horizontal")
        else:
            return PresentationReport("invalid", None,
                                      f"unknown layer kind {P.kinds[k]!r}")
    if all_trivial:
        return PresentationReport("nilpotent", sum(P.ranks))
    return PresentationReport("f-nilpotent", len(P.ranks))
