"""Level-raising pullback along Frobenius lifts, the composed functor on
Higgs objects, the monomial twist decomposition, and rank-1 descent.

A lift t' -> t^p + p*a pulls a level -m connection back to level -(m-1):
the divided Frobenius on dlog forms sends dlog t'_j to
sum_i (delta_ij t_i^p + t_i da_j/dt_i) g_j^{-1} dlog t_i with g_j the
coordinate image, so the log-basis matrices transform by that same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import Connection, gauge, mat_det, mat_id
from .laurent import ContextMismatch, FrobLift, LaurentPoly, frob_substitute
from .linalg import kernel_generators, mat_mul, snf_int


def level_raise(C, F):
    """Pullback of C (level m >= 1) along F, at level m-1."""
    if C.m < 1:
        raise ValueError("already at level 0; nothing to raise")
    if F.ctx != C.ctx or F.d != C.d:
        raise ContextMismatch("lift and connection in different rings")
    d, r = C.d, C.rank
    g = F.images()
    g_inv = [gj.invert() for gj in g]
    # M[j][i]: coefficient of dlog t_i in the divided pullback of dlog t'_j
    M = [[(LaurentPoly.var(C.ctx, d, i + 1, C.ctx.p) if i == j
           else LaurentPoly.zero(C.ctx, d)) + F.a[j].log_partial(i + 1)
          for i in range(d)] for j in range(d)]
    theta_sub = [
        [[frob_substitute(C.theta[j][a][b], F) for b in range(r)]
         for a in range(r)] for j in range(d)]
    new_theta = []
    for i in range(d):
        acc = [[LaurentPoly.zero(C.ctx, d) for _ in range(r)] for _ in range(r)]
        for j in range(d):
            scale = M[j][i] * g_inv[j]
            if scale.is_zero():
                continue
            for a in range(r):
                for b in range(r):
                    acc[a][b] = acc[a][b] + theta_sub[j][a][b] * scale
        new_theta.append(tuple(tuple(row) for row in acc))
    return Connection(C.ctx, d, C.m - 1, r, tuple(new_theta))


@dataclass(frozen=True)
class LiftChain:
    lifts: tuple

    def __post_init__(self):
        if not self.lifts:
            raise ValueError("empty lift chain")
        ctx, d = self.lifts[0].ctx, self.lifts[0].d
        for F in self.lifts:
            if F.ctx != ctx or F.d != d:
                raise ContextMismatch("chain lifts in different rings")

    def __len__(self):
        return len(self.lifts)


def psi(C, chain):
    """Iterated level raising from a level-n Higgs object down to level 0."""
    if len(chain) != C.m:
        raise ValueError(
            f"need exactly {C.m} lifts to reach level 0, got {len(chain)}")
    out = C
    for F in chain.lifts:
        out = level_raise(out, F)
    return out


def twist_decompose(C, F):
    """The p^d monomial summands of the pullback along a pure-power lift.

    For a = (a_1,...,a_d) with 0 <= a_i < p, the summand carried by the
    basis monomial t^a is C with matrices Theta_i + p^{m-1} a_i * Id, kept
    on the target chart (weight w there sits at source weight p*w + a).
    Returns a dict from the tuple a to the summand connection.
    """
    if C.m < 1:
        raise ValueError("twists appear only when a level step is available")
    if not F.is_pure():
        raise ValueError("monomial decomposition requires a pure-power lift")
    p, d, r = C.ctx.p, C.d, C.rank
    scale = C.ctx.p ** (C.m - 1)
    out = {}
    for idx in range(p ** d):
        a, rem = [], idx
        for _ in range(d):
            rem, ai = divmod(rem, p)
            a.append(ai)
        a = tuple(a)
        theta = []
        for i in range(d):
            M = [list(row) for row in C.theta[i]]
            if a[i]:
                c = LaurentPoly.const(C.ctx, d, scale * a[i])
                for k in range(r):
                    M[k][k] = M[k][k] + c
            theta.append(tuple(tuple(row) for row in M))
        out[a] = Connection(C.ctx, d, C.m, r, tuple(theta))
    return out


# -- gauge search -------------------------------------------------------------


def _window_exponents(d, D):
    if d == 1:
        return [(e,) for e in range(-D, D + 1)]
    out = []
    for e in range(-D, D + 1):
        for rest in _window_exponents(d - 1, D):
            out.append((e,) + rest)
    return out


def gauge_intertwiner_lattice(C1, C2, D):
    """Generators of the group of matrices g over Z/p^n (entries supported on
    the exponent window [-D, D]^d) with Theta1 g + p^m t_i dg/dlog t_i =
    g Theta2 for all i, i.e. candidate gauges with gauge(C1, g) = C2
    whenever g is invertible.

    Returns (exponent list, list of (vector, e)): the group is the direct sum
    of the cyclic groups of order p^e generated by the vectors, and a vector
    lists the coefficient of each (row, col, exponent) slot.
    """
    if (C1.ctx, C1.d, C1.m) != (C2.ctx, C2.d, C2.m):
        raise ContextMismatch("gauge search needs matching levels and rings")
    ctx, d = C1.ctx, C1.d
    r1, r2 = C1.rank, C2.rank
    exps = _window_exponents(d, D)
    pos = {e: k for k, e in enumerate(exps)}
    nvar = r1 * r2 * len(exps)
    pm = C1.p_to_m()
    reach = max([1] + [f.log_degree()
                       for M in C1.theta + C2.theta for row in M for f in row])
    out_exps = _window_exponents(d, D + reach)
    out_pos = {e: k for k, e in enumerate(out_exps)}
    rows = []
    for i in range(1, d + 1):
        eq = [[0] * nvar for _ in range(r1 * r2 * len(out_exps))]
        for a in range(r1):
            for b in range(r2):
                for e in exps:
                    var = (a * r2 + b) * len(exps) + pos[e]
                    # p^m * e_i * g_{ab} t^e
                    c = pm * e[i - 1]
                    if c:
                        row = (a * r2 + b) * len(out_exps) + out_pos[e]
                        eq[row][var] += c
                    # (Theta1 g)_{ab} takes g_{kb}, k over C1 rows
                    for k in range(r1):
                        f = C1.theta[i - 1][a][k]
                        for u, cu in f.terms:
                            e2 = tuple(x + y for x, y in zip(e, u))
                            if e2 in out_pos:
                                var2 = (k * r2 + b) * len(exps) + pos[e]
                                row = (a * r2 + b) * len(out_exps) + out_pos[e2]
                                eq[row][var2] += cu
                    # -(g Theta2)_{ab} takes g_{ak}
                    for k in range(r2):
                        f = C2.theta[i - 1][k][b]
                        for u, cu in f.terms:
                            e2 = tuple(x + y for x, y in zip(e, u))
                            if e2 in out_pos:
                                var2 = (a * r2 + k) * len(exps) + pos[e]
                                row = (a * r2 + b) * len(out_exps) + out_pos[e2]
                                eq[row][var2] -= cu
        rows.extend(eq)
    rows = [row for row in rows if any(row)]
    return exps, kernel_generators(rows, nvar, ctx.p, ctx.n)


def _vec_to_matrix(vec, exps, r1, r2, ctx, d):
    mats = []
    L = len(exps)
    for a in range(r1):
        row = []
        for b in range(r2):
            chunk = vec[(a * r2 + b) * L:(a * r2 + b + 1) * L]
            row.append(LaurentPoly.from_dict(
                ctx, d, {e: c for e, c in zip(exps, chunk)}))
        mats.append(tuple(row))
    return tuple(mats)


def verify_pullback_iso(C_up, C_down, F, D):
    """Search for an invertible gauge g with
    gauge(level_raise(C_up, F), g) = C_down, entries within the window.

    Returns a dict with 'found', the 'witness' matrix when found, and an
    'obstruction' record otherwise.  For rank 1 the failure is conclusive:
    a gauge unit is c*t^v modulo p, so solvability modulo p over the window
    is a complete monomial search.
    """
    if C_up.rank != C_down.rank:
        raise ValueError("ranks differ")
    LR = level_raise(C_up, F)
    r = LR.rank
    ctx, d = LR.ctx, LR.d
    ident = mat_id(ctx, d, r)
    if all((a - b).is_zero()
           for M1, M2 in zip(LR.theta, C_down.theta)
           for r1, r2 in zip(M1, M2) for a, b in zip(r1, r2)):
        return {"found": True, "witness": ident, "obstruction": None}
    exps, gens = gauge_intertwiner_lattice(LR, C_down, D)
    candidates = [vec for vec, _ in gens]
    if r == 1:
        # a gauge unit is c*t^v mod p, so it exists iff some monomial lies in
        # the mod-p span of the solutions; absence is a certificate of
        # non-isomorphism on the window
        lift = _unit_in_span(candidates, ctx.p, ctx.modulus)
        if lift is not None:
            return {"found": True, "obstruction": None,
                    "witness": _vec_to_matrix(lift, exps, 1, 1, ctx, d)}
        return {"found": False, "witness": None,
                "obstruction": {
                    "kind": "no-unit-in-solution-span",
                    "window": D,
                    "detail": "no monomial lies in the mod-p span of the "
                              "intertwiner space, so no gauge unit exists "
                              "with support in the window"}}
    for vec in candidates:
        g = _vec_to_matrix(vec, exps, r, r, ctx, d)
        if mat_det(g).is_unit():
            return {"found": True, "witness": g, "obstruction": None}
    return {"found": False, "witness": None,
            "obstruction": {"kind": "no-invertible-candidate", "window": D}}


def _unit_in_span(vectors, p, modulus):
    """An integer combination of vectors, reduced mod modulus, that is
    congruent mod p to a standard basis vector e_k, for the first k that
    allows one; None when no e_k lies in the span mod p.

    With U K V = D mod p for the matrix K whose columns are the vectors, e_k
    lies in the span mod p iff p | (U e_k)_t at every t with p | d_t, and
    then K V z with z_t = (U e_k)_t / d_t mod p is congruent to e_k.
    """
    if not vectors:
        return None
    nv, c = len(vectors[0]), len(vectors)
    K = [[v[i] for v in vectors] for i in range(nv)]
    U, D, V = snf_int(K, p)
    diag = [D[t][t] if t < c else 0 for t in range(nv)]
    for k in range(nv):
        if any(U[t][k] % p for t in range(nv) if diag[t] % p == 0):
            continue
        z = [[U[t][k] * pow(diag[t], -1, p) % p
              if t < nv and diag[t] % p else 0] for t in range(c)]
        return [row[0] % modulus for row in mat_mul(K, mat_mul(V, z))]
    return None


# -- essential image and descent ----------------------------------------------


def essential_image_rank1(C):
    """Modulo-p test of whether a rank-1 level-0 connection can be a
    level-raise of anything: a gauge unit is c*t^v mod p, contributing the
    integer v, so the coefficient f must reduce to (constant + series in
    t^p) mod p.  A nonzero mod-p coefficient at a non-p-divisible nonzero
    exponent in any direction is a conclusive obstruction.
    """
    if C.rank != 1 or C.m != 0:
        raise ValueError("test applies to rank-1 level-0 connections")
    p = C.ctx.p
    for i in range(C.d):
        f = C.theta[i][0][0]
        for e, c in f.terms:
            if c % p and any(x % p for x in e):
                return {"in_image": False,
                        "obstruction": {"direction": i + 1, "exponent": e,
                                        "coefficient": c % p,
                                        "kind": "mod-p-non-p-divisible-term"}}
    return {"in_image": None, "obstruction": None}


def descend_rank1(C, F, max_stages=400):
    """Frobenius descent for a quasi-nilpotent rank-1 level-0 connection on
    the 1-dimensional chart, along a pure-power lift.

    Gauge-normalizes the coefficient until it is supported on p-divisible
    exponents (each non-divisible monomial c*t^k is removed by the unit
    1 - c/k * t^k, which exists exactly when c is divisible by p), then
    divides exponents by p.  Returns (C', gauge) on success, where
    gauge(C, g) = level_raise(C', F), or a failure certificate.
    """
    if C.d != 1 or C.rank != 1 or C.m != 0:
        raise ValueError("descent implemented for rank 1, d = 1, level 0")
    if not F.is_pure():
        raise ValueError("descent implemented along the pure-power lift")
    ctx = C.ctx
    p, n = ctx.p, ctx.n
    f = C.theta[0][0][0]
    g_total = LaurentPoly.one(ctx, 1)
    stages = 0
    while True:
        bad = [(e[0], c) for e, c in f.terms if e[0] % p]
        if not bad:
            break
        e, c = min(bad, key=lambda t: (_val(t[1], p, n), abs(t[0])))
        if c % p:
            return {"ok": False, "connection": None, "gauge": None,
                    "obstruction": {
                        "exponent": e, "coefficient": c,
                        "kind": "unit-coefficient-at-non-divisible-exponent",
                        "detail": "the normalizing gauge 1 + u t^e needs "
                                  "u = -c/e divisible by p; the input is "
                                  "not quasi-nilpotent"}}
        u = (-c * pow(e, -1, ctx.modulus)) % ctx.modulus
        g = LaurentPoly.from_dict(ctx, 1, {(0,): 1, (e,): u})
        # level 0 gauge: f -> f + t g'/g
        f = f + g.log_partial(1) * g.invert()
        g_total = g_total * g
        stages += 1
        if stages > max_stages:
            return {"ok": False, "connection": None, "gauge": None,
                    "obstruction": {"kind": "no-convergence",
                                    "stages": stages}}
    new_f = LaurentPoly.from_dict(
        ctx, 1, {(e[0] // p,): c for e, c in f.terms})
    C_up = Connection.rank1(ctx, 1, 1, [new_f])
    return {"ok": True, "connection": C_up, "gauge": g_total,
            "obstruction": None}


def _val(c, p, n):
    if c % p ** n == 0:
        return n
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v
