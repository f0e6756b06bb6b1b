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
from .laurent import ContextMismatch, LaurentPoly, dot


# -- matrix helpers over the Laurent ring ------------------------------------

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
    return tuple(tuple(dot(row, col) for col in zip(*B)) for row in A)

def mat_apply(A, v):
    return tuple(dot(row, v) for row in A)

def mat_kron(A, B):
    """The Kronecker product: entry (a*rB + b, c*cB + e) is A[a][c] B[b][e]."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in A for rb in B)

def mat_map(A, fn):
    return tuple(tuple(fn(a) for a in row) for row in A)

def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)

def _minor(A, i, j):
    """A without row i and column j."""
    return tuple(tuple(x for k, x in enumerate(row) if k != j)
                 for k, row in enumerate(A) if k != i)

def _cofactor(A, i, j):
    """(-1)^(i+j) times the determinant of A without row i and column j."""
    c = mat_det(_minor(A, i, j))
    return -c if (i + j) % 2 else c

def mat_det(A):
    """Laplace expansion along the first row: one dot per determinant."""
    if len(A) == 1:
        return A[0][0]
    return dot(A[0], [_cofactor(A, 0, j) for j in range(len(A))])

def mat_inverse(A):
    """Inverse over the Laurent ring; requires the determinant to be a unit."""
    r = len(A)
    if r == 1:
        return ((A[0][0].invert(),),)
    cof = [[_cofactor(A, i, j) for j in range(r)] for i in range(r)]
    # the adjugate (the transposed cofactors) over the determinant
    return mat_scale(tuple(zip(*cof)), dot(A[0], cof[0]).invert())


# -- the connection type ------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    ctx: RingCtx
    d: int
    m: int
    rank: int
    theta: tuple  # d matrices, rank x rank, dlog basis

    def __post_init__(self):
        if self.d < 1 or self.m < 0:
            raise ValueError(f"need d >= 1 and m >= 0, got d = {self.d}, "
                             f"m = {self.m}")
        # nested tuples whatever the caller passed, so that == on theta
        # compares entries
        object.__setattr__(self, "theta",
                           tuple(tuple(map(tuple, M)) for M in self.theta))
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
    def trivial(ctx, d, m):
        """(O, p^m d): the unit object at level -m."""
        return Connection.rank1(ctx, d, m, [LaurentPoly.zero(ctx, d)] * d)

    @staticmethod
    def rank1(ctx, d, m, coeffs):
        """Rank-1 connection nabla = p^m d + sum_i f_i dlog t_i."""
        return Connection(ctx, d, m, 1, tuple(((f,),) for f in coeffs))

    def p_to_m(self):
        return pow(self.ctx.p, self.m, self.ctx.modulus)

    # the operator theta_i = p^m t_i d/dt_i + Theta_i on column vectors
    def theta_apply(self, i, v):
        pm = self.p_to_m()
        der = tuple(x.log_partial(i) * pm for x in v)
        return tuple(a + b for a, b in zip(mat_apply(self.theta[i - 1], v), der))

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


def tensor(C1, C2):
    """Theta_i (x) 1 + 1 (x) Theta'_i; basis index a*r2 + b is e_a (x) e'_b."""
    if (C1.ctx, C1.d, C1.m) != (C2.ctx, C2.d, C2.m):
        raise ContextMismatch("tensor needs equal ctx, d and level")
    id1, id2 = (mat_id(C1.ctx, C1.d, C.rank) for C in (C1, C2))
    return Connection(C1.ctx, C1.d, C1.m, C1.rank * C2.rank, tuple(
        mat_add(mat_kron(T1, id2), mat_kron(id1, T2))
        for T1, T2 in zip(C1.theta, C2.theta)))


def dual(C):
    """-Theta_i^T on the dual basis."""
    return Connection(C.ctx, C.d, C.m, C.rank, tuple(
        mat_scale(tuple(zip(*M)), -1) for M in C.theta))


# -- quasi-nilpotence ---------------------------------------------------------

@dataclass(frozen=True)
class QNResult:
    # on a failure, (i, row, col): an entry of psi_i^rank nonzero mod p
    certificate: tuple | None = None

    def __bool__(self):
        return self.certificate is None


def is_quasi_nilpotent(C):
    """Whether theta^a(v) = 0 for |a| large, for every v; decided mod p.

    Let psi_i be the F_p[t^+-1]-linear map that theta_i induces on M/pM, in
    the dlog basis: Theta_i mod p when m >= 1, and the p-curvature
    theta_i^p - theta_i mod p when m = 0 (N. Katz, Publ. IHES 39, 1970).
    theta_i keeps each p^j M, and psi_i is what theta_i (theta_i^p - theta_i
    at m = 0) induces on each p^j M / p^(j+1) M.  So C is quasi-nilpotent
    exactly when every psi_i^rank is zero, and then theta^a = 0 on M, in the
    dt basis too, for |a| >= n (d (q rank - 1) + 1), with q = p at m = 0 and
    q = 1 otherwise.  A failure carries (i, row, col): an entry of
    psi_i^rank that is nonzero mod p.
    """
    if not C.is_integrable():
        raise ValueError("quasi-nilpotence needs an integrable connection")
    ctx1 = RingCtx(C.ctx.p, 1)
    psis = tuple(mat_map(M, lambda f: f.reduce_to(ctx1)) for M in C.theta)
    if C.m == 0:
        Cp = Connection(ctx1, C.d, 0, C.rank, psis)
        psis = tuple(_p_curvature(Cp, i) for i in range(1, C.d + 1))
    for i, psi in enumerate(psis, 1):
        P = psi
        for _ in range(C.rank - 1):
            P = mat_matmul(P, psi)
        for row in range(C.rank):
            for col in range(C.rank):
                if not P[row][col].is_zero():
                    return QNResult((i, row, col))
    return QNResult()


def _p_curvature(C, i):
    """theta_i^p - theta_i as a matrix, for C at level 0 over F_p."""
    cols = []
    for k in range(C.rank):
        e = C.basis_vector(k)
        v = first = C.theta_apply(i, e)
        for _ in range(C.ctx.p - 1):
            v = C.theta_apply(i, v)
        cols.append(tuple(a - b for a, b in zip(v, first)))
    return tuple(zip(*cols))


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
    return PresentationReport("nilpotent" if all_trivial else "f-nilpotent",
                              len(P.ranks))
