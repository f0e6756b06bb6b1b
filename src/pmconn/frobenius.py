"""Level-raising pullback along Frobenius lifts, the composed functor on
Higgs objects, the monomial twist decomposition, and rank-1 descent.

A lift t' -> t^p + p*a pulls a level -m connection back to level -(m-1):
the divided Frobenius on dlog forms sends dlog t'_j to
sum_i (delta_ij t_i^p + t_i da_j/dt_i) g_j^{-1} dlog t_i with g_j the
coordinate image, so the log-basis matrices transform by that same matrix.

Descent is the quasi-inverse of one level raise on rank-1 objects in any
dimension: it gauges a level-0 connection until its exponents are divisible
by p, and the first monomial it cannot gauge away is the certificate that
the input is not a level raise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import int_val_p
from .connection import Connection
from .laurent import ContextMismatch, LaurentPoly, frob_substitute


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


# -- descent ------------------------------------------------------------------

# The most normalizing gauges descend_rank1 applies before it reports
# no-convergence.
DESCENT_MAX_STAGES = 400


def descend_rank1(C, F):
    """Frobenius descent for an integrable rank-1 level-0 connection along
    the pure-power lift, on a chart of any dimension.

    Gauge-normalizes the coefficients f_i until every f_i is supported on
    exponents e with p | e_i, then divides exponents by p.  A monomial c t^e
    of f_i with e_i prime to p is removed by the unit 1 + u t^e with
    u = -c/e_i, which exists exactly when c is divisible by p; integrability
    (e_j c_i = e_i c_j) clears t^e from every f_j at once.  Monomials are
    taken lowest v_p(c) first, so a unit coefficient is met before any gauge,
    and it is the obstruction: mod p a gauge unit is c t^v, whose dlog adds
    only constants, so no gauge of a level raise carries it.  Returns
    (C', gauge) on success, where gauge(C, g) = level_raise(C', F), or the
    obstruction.
    """
    if C.rank != 1 or C.m != 0:
        raise ValueError("descent implemented for rank 1, level 0")
    if not F.is_pure():
        raise ValueError("descent implemented along the pure-power lift")
    if not C.is_integrable():
        raise ValueError("descent needs an integrable connection")
    ctx, d, p = C.ctx, C.d, C.ctx.p
    f = [C.theta[i][0][0] for i in range(d)]
    g_total = LaurentPoly.one(ctx, d)
    for _ in range(DESCENT_MAX_STAGES + 1):
        bad = [(i, e, c) for i in range(d) for e, c in f[i].terms
               if e[i] % p]
        if not bad:
            new_f = [LaurentPoly.from_dict(
                ctx, d, {tuple(x // p for x in e): c for e, c in fi.terms})
                for fi in f]
            return {"ok": True, "gauge": g_total, "obstruction": None,
                    "connection": Connection.rank1(ctx, d, 1, new_f)}
        i, e, c = min(bad, key=lambda b: (int_val_p(b[2], p),
                                          sum(map(abs, b[1]))))
        if c % p:
            return {"ok": False, "connection": None, "gauge": None,
                    "obstruction": {
                        "direction": i + 1, "exponent": e, "coefficient": c,
                        "kind": "unit-coefficient-at-non-divisible-exponent",
                        "detail": "the normalizing gauge 1 + u t^e needs "
                                  "u = -c/e_i divisible by p; the input is "
                                  "not in the image of level raising"}}
        u = (-c * pow(e[i], -1, ctx.modulus)) % ctx.modulus
        g = LaurentPoly.from_dict(ctx, d, {(0,) * d: 1, e: u})
        # level 0 gauge: f_j -> f_j + t_j d_j(g)/g
        g_inv = g.invert()
        f = [fj + g.log_partial(j + 1) * g_inv for j, fj in enumerate(f)]
        g_total = g_total * g
    return {"ok": False, "connection": None, "gauge": None,
            "obstruction": {"kind": "no-convergence",
                            "stages": DESCENT_MAX_STAGES + 1}}
