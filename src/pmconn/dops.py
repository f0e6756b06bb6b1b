"""Negative-level differential operators, divided-power elements, Taylor
series, two-lift transition matrices, and the divided Frobenius on the PD
algebra.

Operators are kept in normal form: a dict from multi-indices l to Laurent
coefficients, meaning sum of c_l * D^<l> with coefficients on the left.
The single rewriting rule D^<k> f = sum_{k'+k''=k} C(k,k') D^<k'>(f) D^<k''>
makes products canonical.  A PDElement is a truncated divided-power series
sum of c_k * (tau/p^m)^[k].
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
from .laurent import ContextMismatch, FrobLift, LaurentPoly, frob_substitute


class TruncationOverflow(ValueError):
    pass


def _zero_idx(d):
    return (0,) * d


def multi_indices(d, degree):
    """All multi-indices in d variables with |l| = degree."""
    if d == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in multi_indices(d - 1, degree - first):
            out.append((first,) + rest)
    return out


def multi_indices_upto(d, bound):
    out = []
    for s in range(bound + 1):
        out.extend(multi_indices(d, s))
    return out


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
    def zero(ctx, d, m):
        return DiffOp(ctx, d, m, ())

    @staticmethod
    def partial(ctx, d, m, l, coeff=None):
        """The single operator c * D^<l>."""
        c = coeff if coeff is not None else LaurentPoly.one(ctx, d)
        return DiffOp.from_dict(ctx, d, m, {tuple(l): c})

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

    def scale(self, f):
        return DiffOp.from_dict(
            self.ctx, self.d, self.m, {l: c * f for l, c in self.terms})


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
        for e2, c2 in _action(l, f.terms, P.m, f.ctx):
            for e1, c1 in c.terms:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
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
    acts = {}  # l' -> [(k, e2 - l', coefficient)] over Q's monomials
    acc = {}  # output index -> {exponent: int}
    for l, c in P.terms:
        for lp in _sub_indices(l):
            binom = math.prod(map(math.comb, l, lp)) % mod
            if not binom:
                continue
            act = acts.get(lp)
            if act is None:
                act = acts[lp] = [(k, e2, c2) for k, q in Q.terms
                                  for e2, c2 in _action(lp, q.terms, P.m, ctx)]
            rest = tuple(map(sub, l, lp))
            for k, e2, c2 in act:
                idx = tuple(map(add, rest, k))
                out = acc.setdefault(idx, {})
                cb = c2 * binom
                for e1, c1 in c.terms:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * cb
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


# -- divided-power elements ---------------------------------------------------


@dataclass(frozen=True)
class PDElement:
    """Truncated divided-power series sum c_k * (tau/p^m)^[k], |k| <= K."""

    ctx: RingCtx
    d: int
    m: int
    K: int
    terms: tuple  # sorted tuple of (multi-index, LaurentPoly)

    @staticmethod
    def from_dict(ctx, d, m, K, mapping, strict=True):
        items = []
        for k, c in mapping.items():
            if c.is_zero():
                continue
            if sum(k) > K:
                if strict:
                    raise TruncationOverflow(
                        f"index {k} exceeds truncation order {K}")
                continue
            items.append((tuple(k), c))
        items.sort(key=lambda t: t[0])
        return PDElement(ctx, d, m, K, tuple(items))

    @staticmethod
    def zero(ctx, d, m, K):
        return PDElement(ctx, d, m, K, ())

    @staticmethod
    def const(ctx, d, m, K, f):
        return PDElement.from_dict(ctx, d, m, K, {_zero_idx(d): f})

    @staticmethod
    def monomial(ctx, d, m, K, k, c=None):
        coeff = c if c is not None else LaurentPoly.one(ctx, d)
        return PDElement.from_dict(ctx, d, m, K, {tuple(k): coeff})

    def as_dict(self):
        return dict(self.terms)

    def coeff(self, k):
        for kk, c in self.terms:
            if kk == tuple(k):
                return c
        return LaurentPoly.zero(self.ctx, self.d)

    def is_zero(self):
        return not self.terms

    def order_zero_part(self):
        return self.coeff(_zero_idx(self.d))

    def _chk(self, other):
        if (self.ctx, self.d, self.m) != (other.ctx, other.d, other.m):
            raise ContextMismatch("PD elements live in different algebras")

    def __add__(self, other):
        self._chk(other)
        K = min(self.K, other.K)
        acc = {}
        for k, c in self.terms + other.terms:
            acc[k] = acc[k] + c if k in acc else c
        return PDElement.from_dict(self.ctx, self.d, self.m, K, acc)

    def __neg__(self):
        return PDElement(self.ctx, self.d, self.m, self.K,
                         tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        acc = {k: c * f for k, c in self.terms}
        return PDElement.from_dict(self.ctx, self.d, self.m, self.K, acc,
                                   strict=False)

    def mul(self, other, strict=True):
        """PD product: x^[a] x^[b] = C(a+b,a) x^[a+b] on the generators."""
        self._chk(other)
        K = min(self.K, other.K)
        acc = {}
        for a, c1 in self.terms:
            for b, c2 in other.terms:
                k = tuple(x + y for x, y in zip(a, b))
                c = c1 * c2 * pd_product_coeff(a, b, self.ctx)
                if c.is_zero():
                    continue
                if sum(k) > K:
                    if strict:
                        raise TruncationOverflow(
                            f"product index {k} exceeds order {K}")
                    continue
                acc[k] = acc[k] + c if k in acc else c
        return PDElement.from_dict(self.ctx, self.d, self.m, K, acc)


def _gamma_mono_coeff(k, q):
    """Integer c with gamma_q(x^[k]) = c * x^[kq], for a nonzero multi-index k:
    c = prod_i (k_i q)! / (k_i!)^q, divided by q!."""
    num = 1
    for ki in k:
        num *= math.factorial(ki * q) // (math.factorial(ki) ** q)
    c, r = divmod(num, math.factorial(q))
    if r:
        raise ArithmeticError("divided power coefficient is not integral")
    return c


def pd_gamma(x, q, strict=True):
    """The q-th divided power gamma_q(x) of a PD element with no order-0 term.

    Expands gamma_q of a sum by the composition rule
    gamma_q(u + v) = sum_{a+b=q} gamma_a(u) gamma_b(v).
    """
    if not x.order_zero_part().is_zero():
        raise ValueError("divided powers require a zero order-0 part")
    one = PDElement.const(x.ctx, x.d, x.m, x.K, LaurentPoly.one(x.ctx, x.d))

    def rec(terms, q):
        if q == 0:
            return one
        if not terms:
            return PDElement.zero(x.ctx, x.d, x.m, x.K)
        (k, c), rest = terms[0], terms[1:]
        out = PDElement.zero(x.ctx, x.d, x.m, x.K)
        for j in range(q + 1):
            tail = rec(rest, q - j)
            if tail.is_zero():
                continue
            kq = tuple(ki * j for ki in k)
            if sum(kq) > x.K:
                continue
            head = PDElement.monomial(
                x.ctx, x.d, x.m, x.K, kq, (c ** j) * _gamma_mono_coeff(k, j))
            out = out + head.mul(tail, strict=strict)
        return out

    return rec(list(x.terms), q)


# -- Taylor / stratification --------------------------------------------------


def theta_table(C, v, K):
    """{k: theta^k(v)} in the dt basis, for |k| <= K.  Entry k is theta_i of
    entry k - e_i, where i is the first nonzero axis of k: the order in which
    theta_power_apply_dt composes, so each entry equals its value."""
    if not C.is_integrable():
        raise ValueError("theta powers are only well-defined when integrable")
    table = {_zero_idx(C.d): tuple(v)}
    for k in multi_indices_upto(C.d, K)[1:]:
        i = next(ax for ax in range(C.d) if k[ax])
        prev = k[:i] + (k[i] - 1,) + k[i + 1:]
        table[k] = C.theta_apply_dt(i + 1, table[prev])
    return table


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
    every higher PD degree."""
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


def tau_transition(C, f, f_prime, max_degree=512):
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
    T = [[LaurentPoly.zero(ctx, d) for _ in range(C.rank)]
         for _ in range(C.rank)]
    values = {(0,) * d: basis}
    s = 0
    while True:
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
                        T[b][j] = T[b][j] + hk * v[b].substitute(images_n)
        # certified stopping: all degree-s operator values vanished, or the
        # valuation of every later divided power already exceeds n
        if not alive:
            break
        if h_val >= 1 and (p > 2 or h_val > 1):
            s_next = s + 1
            if h_val * s_next - (s_next - 1) // (p - 1) >= n:
                break
        s += 1
        if s > max_degree:
            raise ArithmeticError(
                "transition series did not terminate within the bound")
        new = {}
        for k in multi_indices(d, s):
            i = next(ax for ax in range(d) if k[ax])
            prev = tuple(kk - (1 if ax == i else 0) for ax, kk in enumerate(k))
            new[k] = [C.theta_apply_dt(i + 1, v) for v in values[prev]]
        values = new
    return T


def verify_tau(C, f, f_prime, T):
    """Check the gauge relation gauge(pullback_{f'}(C), T) = pullback_f(C)."""
    ctx = C.ctx
    Cf, Cfp = (level_raise(C, F if F.ctx == ctx else FrobLift(
        ctx, C.d, tuple(a.reduce_to(ctx) for a in F.a))) for F in (f, f_prime))
    if not mat_det(T).is_unit():
        return False
    return gauge(Cfp, T).theta == Cf.theta


# -- divided Frobenius on the PD algebra --------------------------------------


def phi_star(x, F, K_out=None, a_order=None):
    """Image of a level -m PD element on the target chart under the divided
    Frobenius of the lift F, as a level -(m-1) PD element on the source.

    The generator image, obtained by expanding (t+tau)^p + p a(t+tau) minus
    the lift of t', is

      tau'_i/p^m  |->  (p-1)! p^{(m-1)(p-1)} (tau_i/p^{m-1})^[p]
                     + sum_{k=1}^{p-1} (C(p,k)/p) k! p^{(m-1)(k-1)} t_i^{p-k}
                                                   (tau_i/p^{m-1})^[k]
                     + sum_{k != 0} (k! del^[k] a_i) p^{(m-1)(|k|-1)}
                                                   (tau/p^{m-1})^[k].

    Order-0 coefficients pass through the lift substitution.
    """
    if x.m < 1:
        raise ValueError("divided Frobenius needs level m >= 1")
    ctx, d, p = x.ctx, x.d, x.ctx.p
    if F.ctx != ctx or F.d != d:
        raise ContextMismatch("lift in wrong ring")
    m = x.m
    K = K_out if K_out is not None else p * x.K
    a_bound = a_order if a_order is not None else K
    gen_images = []
    for i in range(d):
        mapping = {}
        ei = lambda k: tuple(k if ax == i else 0 for ax in range(d))
        top = math.factorial(p - 1) * p ** ((m - 1) * (p - 1))
        mapping[ei(p)] = LaurentPoly.const(ctx, d, top)
        for k in range(1, p):
            c = (math.comb(p, k) // p) * math.factorial(k) \
                * p ** ((m - 1) * (k - 1))
            mono = LaurentPoly.var(ctx, d, i + 1, p - k) * c
            mapping[ei(k)] = mapping.get(
                ei(k), LaurentPoly.zero(ctx, d)) + mono
        if not F.a[i].is_zero():
            for k in multi_indices_upto(d, a_bound):
                if sum(k) == 0:
                    continue
                der = F.a[i]
                for ax in range(d):
                    for _ in range(k[ax]):
                        der = der.partial(ax + 1)
                if der.is_zero():
                    continue
                c = p ** ((m - 1) * (sum(k) - 1))
                mapping[k] = mapping.get(
                    k, LaurentPoly.zero(ctx, d)) + der * c
        gen_images.append(
            PDElement.from_dict(ctx, d, m - 1, K, mapping, strict=False))
    out = PDElement.zero(ctx, d, m - 1, K)
    for k, c in x.terms:
        term = PDElement.const(ctx, d, m - 1, K, frob_substitute(c, F))
        for i, ki in enumerate(k):
            if ki:
                term = term.mul(pd_gamma(gen_images[i], ki, strict=False),
                                strict=False)
        out = out + term
    return out


# -- mod-p rank check for the divided Frobenius --------------------------------


def _divexact(a, b):
    """a / b for one-variable polynomials over F_p; raises ArithmeticError
    unless b divides a."""
    (db,), cb = b.terms[-1]
    inv = pow(cb, -1, b.ctx.p)
    quo = LaurentPoly.zero(a.ctx, 1)
    while not a.is_zero():
        (da,), ca = a.terms[-1]
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        step = LaurentPoly.monomial(a.ctx, 1, (da - db,), ca * inv)
        quo = quo + step
        a = a - step * b
    return quo


def _bareiss_det(M):
    """Fraction-free determinant of a square matrix over F_p[s], its entries
    one-variable Laurent polynomials mod p with polynomial support."""
    k = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = LaurentPoly.one(M[0][0].ctx, 1)
    for t in range(k - 1):
        if M[t][t].is_zero():
            swap = next((i for i in range(t + 1, k)
                         if not M[i][t].is_zero()), None)
            if swap is None:
                return LaurentPoly.zero(prev.ctx, 1)
            M[t], M[swap] = M[swap], M[t]
            sign = -sign
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                M[i][j] = _divexact(M[i][j] * M[t][t] - M[i][t] * M[t][j],
                                    prev)
        prev = M[t][t]
    return M[k - 1][k - 1] if sign > 0 else -M[k - 1][k - 1]


def phi_rank_check(p, d=1, L=1, a=None):
    """Freeness check for the mod-p divided Frobenius at PD truncation L.

    Target tiers are the divided generators y_l = tau^[p^l], l <= L; the
    images x_l of the source generators are gamma_{p^l} of the generator
    image, truncated to the same tiers.  Verifies that the p^{L+2} candidate
    monomials t^i * prod_l x_l^{e_l} (0 <= i, e_l < p) form a basis of the
    target over F_p[t^{p}, t^{-p}], by a fraction-free determinant: the map
    is then finite free of relative rank p per coordinate direction.
    """
    if d != 1:
        raise ValueError("rank check implemented on the 1-dimensional chart")
    ctx1 = RingCtx(p, 1)
    K = p ** (L + 1) - 1
    report = {"p": p, "d": d, "L": L, "matrix_size": p ** (L + 2),
              "relative_rank": p ** d}
    # generator image mod p at level 1 -> 0 (a-corrections optional)
    F = FrobLift(ctx1, 1, (a if a is not None else LaurentPoly.zero(ctx1, 1),))
    gen = PDElement.monomial(ctx1, 1, 1, 1, (1,))
    X = phi_star(gen, F, K_out=K, a_order=K)
    images = [pd_gamma(X, p ** l, strict=False) for l in range(L + 1)]
    # candidates t^i * prod x_l^{e_l}, expanded over the basis t^r tau^[c]
    size = p ** (L + 2)
    cols = []
    for idx in range(size):
        rem, i = divmod(idx, p)
        elt = PDElement.const(ctx1, 1, 0, K,
                              LaurentPoly.var(ctx1, 1, 1, i) if i
                              else LaurentPoly.one(ctx1, 1))
        for l in range(L + 1):
            rem, e = divmod(rem, p)
            for _ in range(e):
                elt = elt.mul(images[l], strict=False)
        cols.append(elt)
    # matrix over F_p[s], s = t^p; row index (r, c) with r in [0,p), c <= K
    rows = {}
    for j, elt in enumerate(cols):
        for (c,), poly in elt.terms:
            for (e,), coeff in poly.terms:
                row = rows.setdefault((e % p, c), [{} for _ in range(size)])
                row[j][(e // p,)] = coeff
    keys = sorted(rows)
    if len(keys) != size:
        report["det_is_unit_monomial"] = False
        report["pass"] = False
        return report
    M = [[LaurentPoly.from_dict(ctx1, 1, entry) for entry in rows[key]]
         for key in keys]
    # shift every column to polynomial support (changes det by a monomial)
    for j in range(size):
        shift = min((e for row in M for (e,), _ in row[j].terms), default=0)
        if shift:
            mono = LaurentPoly.var(ctx1, 1, 1, -shift)
            for row in M:
                row[j] = row[j] * mono
    det = _bareiss_det(M)
    report["det_is_unit_monomial"] = len(det.terms) == 1
    report["pass"] = len(det.terms) == 1
    return report
