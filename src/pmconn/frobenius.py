"""Level-raising pullback along Frobenius lifts, the composed functor on
Higgs objects, the monomial twist decomposition, and rank-1 descent.

A lift t' -> t^p + p*a pulls a level -m connection back to level -(m-1):
the divided Frobenius on dlog forms sends dlog t'_j to
sum_i (delta_ij t_i^p + t_i da_j/dt_i) g_j^{-1} dlog t_i with g_j the
coordinate image, so the log-basis matrices transform by that same matrix.
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


# The most normalizing gauges descend_rank1 applies before it reports
# no-convergence.
DESCENT_MAX_STAGES = 400


def descend_rank1(C, F):
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
    p = ctx.p
    f = C.theta[0][0][0]
    g_total = LaurentPoly.one(ctx, 1)
    stages = 0
    while True:
        bad = [(e[0], c) for e, c in f.terms if e[0] % p]
        if not bad:
            break
        e, c = min(bad, key=lambda t: (int_val_p(t[1], p), abs(t[0])))
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
        if stages > DESCENT_MAX_STAGES:
            return {"ok": False, "connection": None, "gauge": None,
                    "obstruction": {"kind": "no-convergence",
                                    "stages": stages}}
    new_f = LaurentPoly.from_dict(
        ctx, 1, {(e[0] // p,): c for e, c in f.terms})
    C_up = Connection.rank1(ctx, 1, 1, [new_f])
    return {"ok": True, "connection": C_up, "gauge": g_total,
            "obstruction": None}
