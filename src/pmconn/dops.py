"""Negative-level differential operators, Taylor series and two-lift
transition matrices.

Operators are kept in normal form: a dict from multi-indices l to Laurent
coefficients, meaning sum of c_l * D^<l> with coefficients on the left.
The single rewriting rule D^<k> f = sum_{k'+k''=k} C(k,k') D^<k'>(f) D^<k''>
makes products canonical.  op_apply and op_mul take D^<l'> of the right
factor's monomials and multiply the left coefficients onto them with
laurent.mul_into, reducing each output coefficient once.  The Taylor checks
and the transition series read theta^k(v) from one walk over the
multi-indices k (theta_layers) and take the divided powers (tau/p^m)^[k]
one coefficient at a time; tau_transition reduces each entry of its matrix
once with laurent.dot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, sub

from .arith import (RingCtx, factorial_val, int_val_p, multi_binom_int,
                    multi_factorial, pd_product_coeff)
from .connection import gauge, mat_det
from .frobenius import level_raise
from .laurent import ContextMismatch, FrobLift, LaurentPoly, dot, mul_into


@dataclass(frozen=True)
class DiffOp:
    """Normal-ordered element sum c_l * D^<l> of the level -m operator ring."""

    ctx: RingCtx
    d: int
    m: int
    terms: tuple  # sorted tuple of (multi-index, LaurentPoly), coeffs nonzero

    @staticmethod
    def from_dict(ctx, d, m, mapping):
        items = []
        for l, c in mapping.items():
            if (c.ctx is not ctx and c.ctx != ctx) or c.d != d:
                raise ContextMismatch("operator coefficient in wrong ring")
            if not c.is_zero():
                items.append((tuple(l), c))
        items.sort(key=lambda t: t[0])
        return DiffOp(ctx, d, m, tuple(items))

    @staticmethod
    def partial(ctx, d, m, l):
        """The single operator D^<l>."""
        return DiffOp.from_dict(ctx, d, m, {tuple(l): LaurentPoly.one(ctx, d)})

    def as_dict(self):
        return dict(self.terms)

    def _chk(self, other):
        if (self.ctx, self.d, self.m) != (other.ctx, other.d, other.m):
            raise ContextMismatch("operators live in different rings")

    def __add__(self, other):
        self._chk(other)
        acc = dict(self.terms)
        for l, c in other.terms:
            acc[l] = acc[l] + c if l in acc else c
        return DiffOp.from_dict(self.ctx, self.d, self.m, acc)

    def __neg__(self):
        return DiffOp.from_dict(
            self.ctx, self.d, self.m, {l: -c for l, c in self.terms})

    def __sub__(self, other):
        return self + (-other)


def _action(l, terms, m, ctx):
    """D^<l> at level -m on the monomials c t^e of terms, by
    D^<l>(t^e) = l! C(e,l) p^{m|l|} t^{e-l}: the (e - l, coefficient mod p^n)
    pairs, zeros dropped, in the order of terms."""
    mod = ctx.modulus
    scale = multi_factorial(l) * ctx.p ** (m * sum(l)) % mod
    if not scale:
        return []
    out = []
    for e, c in terms:
        coeff = c * scale * multi_binom_int(e, l) % mod
        if coeff:
            out.append((tuple(map(sub, e, l)), coeff))
    return out


def op_apply(P, f):
    if P.ctx != f.ctx or P.d != f.d:
        raise ContextMismatch("operator and argument in different rings")
    acc = {}
    for l, c in P.terms:
        mul_into(acc, c.terms, _action(l, f.terms, P.m, f.ctx))
    return LaurentPoly._canon(f.ctx, f.d, acc)


def _sub_indices(l):
    """All multi-indices l' <= l componentwise."""
    ranges = [range(x + 1) for x in l]
    return list(itertools.product(*ranges))


def op_mul(P, Q):
    """Normal-ordered product, monomial by monomial, by the commutation rule
    (c t^e D^<l>)(c2 t^e2 D^<k>)
        = sum_{l' <= l} C(l,l') c t^e D^<l'>(c2 t^e2) D^<l-l'+k>."""
    P._chk(Q)
    ctx, mod = P.ctx, P.ctx.modulus
    acts = {}  # l' -> [(k, D^<l'> on the terms of Q's coefficient at k)]
    acc = {}  # output index -> {exponent: int}
    for l, c in P.terms:
        for lp in _sub_indices(l):
            binom = math.prod(map(math.comb, l, lp)) % mod
            if not binom:
                continue
            act = acts.get(lp)
            if act is None:
                act = acts[lp] = [
                    (k, a) for k, q in Q.terms
                    if (a := _action(lp, q.terms, P.m, ctx))]
            rest = tuple(map(sub, l, lp))
            for k, a in act:
                mul_into(acc.setdefault(tuple(map(add, rest, k)), {}),
                         c.terms, a, binom)
    return DiffOp.from_dict(ctx, P.d, P.m, {
        idx: LaurentPoly._canon(ctx, P.d, out) for idx, out in acc.items()})


def level_change(P, m_new):
    """rho_{-m',-m}: D^<l> at level -m maps to p^{(m-m')|l|} D^<l> at -m'."""
    if m_new > P.m:
        raise ValueError("level change only lowers m")
    p = P.ctx.p
    return DiffOp.from_dict(
        P.ctx, P.d, m_new,
        {l: c * p ** ((P.m - m_new) * sum(l)) for l, c in P.terms})


# -- Taylor / stratification --------------------------------------------------


def theta_layers(C, vecs):
    """Yield, for s = 0, 1, ..., the layer {k: [theta^k(v) for v in vecs]}
    over |k| = s, in the dt basis.  Entry k is theta_i of entry k - e_i,
    where i is the first nonzero axis of k: the order in which
    theta_power_apply_dt composes, so each entry equals its value.  Raising
    k - e_i only at axes up to its own first nonzero one reaches each k of
    the next layer exactly once."""
    d = C.d
    layer = {(0,) * d: list(vecs)}
    while True:
        yield layer
        nxt = {}
        for k, vs in layer.items():
            first = next((ax for ax in range(d) if k[ax]), d - 1)
            for i in range(first + 1):
                nxt[k[:i] + (k[i] + 1,) + k[i + 1:]] = [
                    C.theta_apply_dt(i + 1, v) for v in vs]
        layer = nxt


def theta_table(C, v, K):
    """{k: theta^k(v)} in the dt basis, for |k| <= K: the first K + 1
    layers of theta_layers."""
    if not C.is_integrable():
        raise ValueError("theta powers are only well-defined when integrable")
    return {k: vs[0] for layer in itertools.islice(
        theta_layers(C, [tuple(v)]), K + 1) for k, vs in layer.items()}


def check_taylor_cocycle(C, e, K):
    """Comultiplication compatibility of the stratification: the coefficient
    of (tau)^[a] (x) (tau')^[b] computed by iterating the series must equal
    the delta-expansion coefficient D^<a+b>(e), for all |a|+|b| <= K.  The
    row a = 0 would compare the table of e with itself, so it is skipped."""
    direct = theta_table(C, e, K)
    for a, va in direct.items():
        if not any(a):
            continue
        for b, lhs in theta_table(C, va, K - sum(a)).items():
            if lhs != direct[tuple(x + y for x, y in zip(a, b))]:
                return False
    return True


def check_taylor_inverse(C, e, K):
    """The closed-form inverse e (x) 1 -> sum (-1)^{|l|} (tau)^[l] (x) D^<l>(e)
    composed with the series itself must give back e at order 0 and zero in
    every higher PD degree.

    As written this cannot return False: for k != 0 the sum over a <= k is
    theta^k(e) prod_i (1 - 1)^{k_i} = 0 whatever theta^k(e) is, and at
    k = 0 it compares e with itself.  A check that can fail reads
    theta^{k-a}(theta^a e) from per-a tables (ROADMAP item 2)."""
    zero_vec = tuple(LaurentPoly.zero(C.ctx, C.d) for _ in range(C.rank))
    for k, v in theta_table(C, e, K).items():
        total = list(zero_vec)
        for a in _sub_indices(k):
            b = tuple(x - y for x, y in zip(k, a))
            sign = -1 if sum(a) % 2 else 1
            c = sign * pd_product_coeff(a, b, C.ctx)
            total = [tt + vv * c for tt, vv in zip(total, v)]
        target = list(e) if sum(k) == 0 else list(zero_vec)
        if any(not (x - y).is_zero() for x, y in zip(total, target)):
            return False
    return True


# -- two-lift transition isomorphism ------------------------------------------


def _divided_power(h, q):
    """gamma_q(h) = h^q / q! of a Laurent polynomial h mod p^n in the PD ideal.

    With a = v_p(q!), the coefficients of h^q mod p^(n+a) fix h^q / p^a mod
    p^n, and must be divisible by p^a; the unit part of q! is inverted mod
    p^n."""
    ctx = h.ctx
    p, mod = ctx.p, ctx.modulus
    a = factorial_val(p, q)
    pa = p ** a
    power = h.reduce_to(RingCtx(p, ctx.n + a)) ** q
    uinv = pow(math.factorial(q) // pa % mod, -1, mod)
    acc = {}
    for e, c in power.terms:
        v, r = divmod(c, pa)
        if r:
            raise ArithmeticError(
                "transition series coefficient is not integral; lifts are "
                "too far apart for the divided-power evaluation")
        acc[e] = v * uinv
    return LaurentPoly._canon(ctx, h.d, acc)


# The highest operator degree tau_transition's series reaches before it
# gives up.
TAU_MAX_DEGREE = 512


def tau_transition(C, f, f_prime):
    """Transition matrix T between the two level-raised pullbacks of C along
    the Frobenius lifts f and f_prime (which must agree mod p^n).

    The lifts are given at truncation p^{n+m} (one PD thickening per level),
    and T satisfies gauge(pullback_{f'}(C), T) = pullback_f(C).  The series is
    sum_k ((f*(t) - f'*(t))/p^m)^[k] * f'-substitution of D^<k>(e_j).
    """
    ctx, d, m, p = C.ctx, C.d, C.m, C.ctx.p
    n = ctx.n
    ctx_ext = RingCtx(p, n + m) if m else ctx
    for F in (f, f_prime):
        if F.ctx != ctx_ext or F.d != d:
            raise ContextMismatch(
                f"lifts must be given at truncation p^{n + m}")
    # h = (f*(t) - f'*(t)) / p^m on canonical integer lifts, reduced mod p^n
    pm = p ** m
    pn = p ** n
    hs = []
    for g, g_prime in zip(f.images(), f_prime.images()):
        h = {}
        for e, c in (g - g_prime).terms:
            q, r = divmod(c, pm)
            if r:
                raise ValueError("lifts do not agree mod p^m")
            if c % pn:
                raise ValueError("lifts do not agree mod p^n")
            h[e] = q
        hs.append(LaurentPoly._canon(ctx, d, h))
    h_val = min(min((int_val_p(c, p) for _, c in h.terms), default=n)
                for h in hs)
    images_n = [g.reduce_to(ctx) for g in f_prime.images()]
    basis = [C.basis_vector(j) for j in range(C.rank)]
    # the pairs (h^[k], f'-substitution of theta^k(e_j)[b]) of each T[b][j]
    pairs = [[[] for _ in range(C.rank)] for _ in range(C.rank)]
    for s, values in enumerate(theta_layers(C, basis)):
        alive = False
        for k, vecs in values.items():
            if all(x.is_zero() for v in vecs for x in v):
                continue
            alive = True
            # h^[k] = prod_i gamma_{k_i}(h_i) mod p^n
            hk = math.prod((_divided_power(h, ki) for h, ki in zip(hs, k)
                            if ki), start=LaurentPoly.one(ctx, d))
            if hk.is_zero():
                continue
            for j, v in enumerate(vecs):
                for b in range(C.rank):
                    if not v[b].is_zero():
                        pairs[b][j].append(
                            (hk, v[b].substitute(images_n)))
        # certified stopping: all degree-s operator values vanished, or the
        # valuation of every later divided power already exceeds n
        if not alive:
            break
        if h_val >= 1 and (p > 2 or h_val > 1):
            s_next = s + 1
            if h_val * s_next - (s_next - 1) // (p - 1) >= n:
                break
        if s >= TAU_MAX_DEGREE:
            raise ArithmeticError(
                "transition series did not terminate within the bound")
    zero = LaurentPoly.zero(ctx, d)
    return [[dot(*zip(*ps)) if ps else zero for ps in row] for row in pairs]


def verify_tau(C, f, f_prime, T):
    """Check the gauge relation gauge(pullback_{f'}(C), T) = pullback_f(C)."""
    ctx = C.ctx
    Cf, Cfp = (level_raise(C, F if F.ctx == ctx else FrobLift(
        ctx, C.d, tuple(a.reduce_to(ctx) for a in F.a))) for F in (f, f_prime))
    if not mat_det(T).is_unit():
        return False
    return gauge(Cfp, T).theta == Cf.theta
