"""Truncated Witt vectors over F_p[t^{+-1}] and the degree <= 1 part of the
de Rham-Witt complex of the 1-dimensional torus.

Arithmetic goes through ghost components on canonical integer lifts: the
ghost map is injective enough mod p^n (component i is only ever needed mod
p^{i+1}), and lift-choice errors sit in p^{k+1}Z before the division by p^k,
so the recursive inversion is exact.  The weight-graded normal form

    x = sum_w c_w [t^w]  +  sum_{r>=1, p!|j} c_{r,j} V^r([t^j])

is read off from the top ghost component mod p^n, the vector's code: c_w
sits at t^(w p^{n-1}) and p^r c_{r,j} at t^(j p^{n-1-r}).  So each integer
exponent e is one generator, of level r = n-1-v_p(e), or r = 0 (integral)
where p^{n-1} | e, and of order p^{n-r}.  A one-form

    omega = sum_w c_w [t^w] dlog[t]  +  sum_{r>=1, p!|j} c_{r,j} dV^r([t^j])

has the same code, a LaurentPoly over Z/p^n with d = 1, and _decode reads
vectors and one-forms alike.  d, x -> x dlog[t] and F change coefficients
only, never exponents; sums, integer multiples and equality of one-forms
are those of LaurentPoly.

The top ghost w_{n-1} mod p^n is an injective ring map W_n(F_p[t^{+-1}]) ->
Z/p^n[t^{+-1}] (Illusie, Ann. ENS 12, 1979, I.1-I.2).  So a Witt connection's
nabla takes x as its top ghost w(x) and reads the code of p^m dx + x f
dlog[t] off w(x) and w(x) w(f); a window generator V^r([t^j]) enters as its
code p^r t^(j p^(n-1-r)), never as a vector.  witt_compare builds each
side's windowed complex with linalg.windowed_block, as cohomology does,
each generator of its own order p^(n-r).

A vector is immutable, so its ghost components mod p^n are computed once: on
first use, or for the result of an operation by the inversion that built it,
summed from the powers x_i^{p^j} of its own components that it computes
anyway, never copied from the ghost list it was inverted from (the two agree
only mod p^{k+1}).  So the `witt-identities` ghost laws still compare two
computations.  Every later sum, product, Frobenius or normal form reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import RingCtx, int_val_p
from .laurent import LaurentPoly
from .linalg import (components, diagonal_p_exponents, freeze_columns,
                     homology_divisors, snf_int, windowed_block)


class NotNilpotent(ValueError):
    pass


@lru_cache(maxsize=None)
def _ring(p, n):
    """The ring context Z/p^nZ, built once per (p, n)."""
    return RingCtx(p, n)


@dataclass(frozen=True)
class WittVector:
    p: int
    n: int
    comps: tuple  # n LaurentPoly over Z/pZ, d = 1; meaning sum_r V^r[x_r]

    def __post_init__(self):
        if len(self.comps) != self.n:
            raise ValueError("need exactly n components")
        for c in self.comps:
            if c.ctx.p != self.p or c.ctx.n != 1 or c.d != 1:
                raise ValueError("components live in F_p[t^{+-1}]")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p, n):
        z = LaurentPoly.zero(_ring(p, 1), 1)
        return WittVector(p, n, (z,) * n)

    @staticmethod
    def teichmuller(f, n):
        """[f] = (f, 0, ..., 0)."""
        z = LaurentPoly.zero(f.ctx, 1)
        return WittVector(f.ctx.p, n, (f,) + (z,) * (n - 1))

    @staticmethod
    def from_int(c, p, n):
        """The image of the integer c under Z -> W_n (w_k = c mod p^{k+1})."""
        ctxN = _ring(p, n)
        g = [LaurentPoly.const(ctxN, 1, c) for _ in range(n)]
        return _ghost_invert(g, p, n)

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    # -- ghost components ----------------------------------------------------

    def ghost(self, k):
        """Ghost component w_k = sum_{i<=k} p^i x_i^{p^{k-i}} on canonical
        lifts, as a polynomial mod p^n, for k < n (well-defined mod p^{k+1}
        regardless of lifts, exact here since lifts are canonical).  Read
        from the vector's memo."""
        return self._ghosts[k]

    def ghosts(self):
        """Ghost components w_0, ..., w_{n-1} mod p^n, as a new list."""
        return list(self._ghosts)

    @cached_property
    def _ghosts(self):
        return tuple(self._ghost_chain(_ring(self.p, self.n), self.n - 1))

    def _ghost_chain(self, ctxN, top):
        """w_0, ..., w_top mod ctxN.  Each power x_i^{p^j} is computed once,
        as the p-th power of the one before."""
        powers = []  # powers[i][j] = x_i^{p^j} on the canonical lift
        for i in range(min(top + 1, self.n)):
            chain = [self.comps[i].reduce_to(ctxN)]
            for _ in range(top - i):
                chain.append(chain[-1] ** self.p)
            powers.append(chain)
        return _ghost_sums(powers, self.p, top, ctxN)

    # -- ring operations -----------------------------------------------------

    def _chk(self, other):
        if self.p != other.p or self.n != other.n:
            raise ValueError("Witt vectors of different shape")

    def __add__(self, other):
        self._chk(other)
        ga, gb = self.ghosts(), other.ghosts()
        return _ghost_invert([a + b for a, b in zip(ga, gb)], self.p, self.n)

    def __neg__(self):
        return _ghost_invert([-g for g in self.ghosts()], self.p, self.n)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):  # w_k(from_int(c)) = c mod p^{k+1}
            gs = [g * other for g in self.ghosts()]
        else:
            self._chk(other)
            gs = [a * b for a, b in zip(self.ghosts(), other.ghosts())]
        return _ghost_invert(gs, self.p, self.n)

    __rmul__ = __mul__

    # -- structure maps ------------------------------------------------------

    def verschiebung(self):
        """V: componentwise shift, W_n -> W_n (top component dropped)."""
        z = LaurentPoly.zero(_ring(self.p, 1), 1)
        return WittVector(self.p, self.n, (z,) + self.comps[:-1])

    def restrict(self):
        """W_n -> W_{n-1}, drop the last component."""
        if self.n < 2:
            raise ValueError("cannot restrict below length 1")
        return WittVector(self.p, self.n - 1, self.comps[:-1])

    def frobenius(self):
        """F: W_n -> W_{n-1}, the ghost-component shift."""
        if self.n < 2:
            raise ValueError("F needs length >= 2")
        return _ghost_invert(self.ghosts()[1:], self.p, self.n - 1)

    def frobenius_same_level(self):
        """F composed with the zero-extension of components to length n+1.

        Well-defined because the ambiguity F(V^n[z]) = V^{n-1}(p[z]) dies in
        W_n; this is the Frobenius used by level-raising at fixed truncation.
        """
        gs = self._ghost_chain(_ring(self.p, self.n + 1), self.n)[1:]
        return _ghost_invert(gs, self.p, self.n)

    # -- normal form ---------------------------------------------------------

    def normal_form(self):
        """Weight-graded coordinates: ({w: c_w mod p^n},
        {(r, j): c_{r,j} mod p^{n-r}})."""
        return _decode(self.ghost(self.n - 1), self.p, self.n)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"


def _level(e, p, n):
    """The level r of the exponent e in a top-ghost code over Z/p^n:
    n-1-v_p(e), or 0 (integral) where p^(n-1) | e.  The generator at e has
    order p^(n-r)."""
    return max(n - 1 - int_val_p(e, p), 0) if e else 0


def _coded_terms(g, p, n):
    """(e, r, c) per term c t^e of a top-ghost code over Z/p^n: r is the
    level of e, and c is p^r times the coordinate."""
    for (e,), c in g.terms:
        r = _level(e, p, n)
        if c % p ** r:
            raise ArithmeticError(
                f"ghost coefficient {c} at t^{e} not divisible by "
                f"p^{r}; not in the image of the weight decomposition")
        yield e, r, c


def _decode(g, p, n):
    """Normal-form coordinates of the vector of W_n, or the one-form, whose
    top-ghost code mod p^n is g (the exponent j*p^{n-1-r} carries p^r *
    c_{r,j})."""
    integral = {}
    fractional = {}
    for e, r, c in _coded_terms(g, p, n):
        if r:
            fractional[(r, e // p ** (n - 1 - r))] = c // p ** r
        else:
            integral[e // p ** (n - 1)] = c
    return integral, fractional


def _ghost_sums(powers, p, top, ctx):
    """w_0, ..., w_top mod ctx from powers[i][j] = x_i^{p^j}, which may be
    taken mod any p^{n'} at least ctx's modulus (reduction is a ring map)."""
    out = []
    for k in range(top + 1):
        acc = LaurentPoly.zero(powers[0][0].ctx, 1)
        for i in range(min(k + 1, len(powers))):
            acc = acc + powers[i][k - i] * (p ** i)
        out.append(acc if acc.ctx is ctx else acc.reduce_to(ctx))
    return out


def _ghost_invert(gs, p, n):
    """Recover components from ghost polynomials (mod p^{n'} with n' >= n);
    the result's ghost memo is summed from the powers built here, not gs."""
    ctx1, work_ctx = _ring(p, 1), gs[0].ctx
    comps = []
    powers = []  # powers[i][j] = x_i^{p^j} on the canonical lift
    for k in range(n):
        acc = gs[k].reduce_to(work_ctx) if gs[k].ctx != work_ctx else gs[k]
        for i in range(k):
            powers[i].append(powers[i][-1] ** p)
            acc = acc - powers[i][k - i] * (p ** i)
        pk = p ** k
        out = {}
        for e, c in acc.terms:
            if c % pk:
                raise ArithmeticError(
                    f"ghost sequence not integral: {c} not divisible by p^{k}")
            out[e] = c // pk
        comps.append(LaurentPoly.from_dict(ctx1, 1, out))
        powers.append([comps[k].reduce_to(work_ctx)])
    x = WittVector(p, n, tuple(comps))
    x.__dict__["_ghosts"] = tuple(_ghost_sums(powers, p, n - 1, _ring(p, n)))
    return x


def nf_to_witt(integral, fractional, p, n):
    """Rebuild a Witt vector from normal-form coordinates (test oracle).

    The ghost map is additive, so the summands' ghosts are added and inverted
    once: w_k(c [t^w]) = c t^{w p^k}, and w_k(c V^r([t^j])) = p^r c
    t^{j p^{k-r}} for k >= r and 0 below.
    """
    ctxN = _ring(p, n)
    gs = []
    for k in range(n):
        acc = {}
        for w, c in integral.items():
            e = (w * p ** k,)
            acc[e] = acc.get(e, 0) + c
        for (r, j), c in fractional.items():
            if r <= k:
                e = (j * p ** (k - r),)
                acc[e] = acc.get(e, 0) + c * p ** r
        gs.append(LaurentPoly.from_dict(ctxN, 1, acc))
    return _ghost_invert(gs, p, n)


# -- one-forms --------------------------------------------------------------


def _d(g, p, n):
    """d on codes: c [t^w] -> c w [t^w] dlog[t] on integral exponents
    e = w p^(n-1); a fractional V^r([t^j]) goes to dV^r([t^j]) unchanged."""
    top = p ** (n - 1)
    return LaurentPoly.from_dict(g.ctx, 1, {
        (e,): c if r else c * (e // top) for e, r, c in _coded_terms(g, p, n)})


def _dlog(g, p, n):
    """x -> x dlog[t] on codes: V^r(c[t^j]) dlog[t] = c j^{-1} p^r
    dV^r([t^j]), by the projection formula V(y F omega) = V(y) omega and
    V^r(dy) = p^r dV^r(y); integral terms pass straight through."""
    return LaurentPoly.from_dict(g.ctx, 1, {
        (e,): c * p ** r * pow(e // p ** (n - 1 - r), -1, p ** n) if r else c
        for e, r, c in _coded_terms(g, p, n)})


def drw_d(x):
    """The de Rham-Witt differential of x, as a one-form code."""
    return _d(x.ghost(x.n - 1), x.p, x.n)


def mul_dlog(x):
    """x * dlog[t], as a one-form code."""
    return _dlog(x.ghost(x.n - 1), x.p, x.n)


def drw_F(omega):
    """F on a one-form code over Z/p^n, into Z/p^(n-1) with every exponent
    kept: F(f dlog[t]) = F(f) dlog[t] (weights multiply by p), F(dV^r) =
    dV^{r-1}, and F(dV([t^j])) = d([t^j]) = j [t^j] dlog[t]."""
    p, n = omega.ctx.p, omega.ctx.n
    if n < 2:
        raise ValueError("F needs length >= 2")
    acc = {}
    for e, r, c in _coded_terms(omega, p, n):
        if r:
            c //= p
            if r == 1:
                c *= e // p ** (n - 2)
        acc[(e,)] = c
    return LaurentPoly.from_dict(_ring(p, n - 1), 1, acc)


def integral_to_witt(f, n):
    """The Witt vector with purely integral normal form f (Teichmueller
    coordinates), i.e. sum_w f_w [t^w]."""
    p = f.ctx.p
    return nf_to_witt({w: c for (w,), c in f.terms}, {}, p, n)


# -- rank-1 Witt connections --------------------------------------------------


@dataclass(frozen=True)
class WittConnection:
    """nabla = p^m d + f dlog[t] on the rank-1 module over W_n(F_p[t^{+-1}])."""

    m: int
    f: WittVector

    @property
    def p(self):
        return self.f.p

    @property
    def n(self):
        return self.f.n

    def nabla(self, g):
        """nabla(x) = p^m dx + x f dlog[t] for the x whose top ghost mod p^n
        is g, as a one-form code.  The top ghost is a ring map, so x f has
        the code g w_{n-1}(f)."""
        p, n = self.p, self.n
        return (_d(g, p, n) * p ** self.m
                + _dlog(g * self.f.ghost(n - 1), p, n))

    def is_nilpotent(self):
        """The rank-1 nilpotence condition: f in p^m W_n, checked on the
        normal form (each coordinate divisible by p^m in its cyclic group)."""
        p, n, m = self.p, self.n, self.m
        integral, fractional = self.f.normal_form()
        for c in integral.values():
            if c % p ** min(m, n):
                return False
        for (r, _), c in fractional.items():
            if c % p ** min(m, n - r):
                return False
        return True

    def restrict(self):
        return WittConnection(self.m, self.f.restrict())


def witt_level_raise(C):
    """Level m -> m-1 at fixed truncation: coefficient f -> F(f) computed by
    the same-level Frobenius (the chart twist is the identity here)."""
    if C.m < 1:
        raise ValueError("already at level 0")
    return WittConnection(C.m - 1, C.f.frobenius_same_level())


# -- per-weight cohomology and the level-raise comparison ----------------------


def _gen_ghost(e, p, n):
    """The top-ghost code p^r t^e of the generator at exponent e of level r:
    V^r([t^j]) for e = j p^(n-1-r)."""
    return LaurentPoly.monomial(_ring(p, n), 1, (e,),
                                p ** _level(e, p, n))


def witt_compare(C, D):
    """Per-weight comparison of the cohomology of C with its level-raise.

    The generators of the window are the exponents e with |e| <= D p^(n-1),
    each of weight e / p^(n-1) and of order p^(n-r) at its level r.  Weights
    multiply by p under the raise, so the raised complex is restricted to
    the exact image of the window, e -> p e, where each raised generator has
    its own order: p e sits one level below e.  Each side's nabla images are
    computed once, and both sides are cut along one clustering that joins
    each generator to every target of its image, the same side's generator
    there or a point of that side's own past the window, so clusters whose
    images meet past the window are one.  linalg.windowed_block builds each
    cluster's block and keeps every reached target as a row: a generator
    whose image leaves the window is not horizontal, and H^1 is the
    cluster's one-forms modulo the images that stay inside it.  Clusters
    repeat, so the call keeps one memo of solves, keyed by each solve's
    input under linalg.freeze_columns: H^0 by the block's B and the orders
    of its generators and targets, H^1 by its A and the generators' orders.
    Each distinct block is solved once, and every report gets lists of its
    own.  H^0 must
    agree exactly on purely integral clusters; clusters with fractional
    weights may differ by at most one power of p per fractional generator
    (the V-level drop shifts one unit of torsion).  H^1 total lengths must
    agree up to 14(m-1) + frac_gens + 1.  The raise is also certified as a
    chain map through F at truncation n-1 on window generators: F(nabla x) =
    nabla'(F x), with F x entering nabla' as w_{n-1}(x) mod p^{n-1}, since
    w_{n-2}(F x) = w_{n-1}(x).
    """
    if C.m < 1:
        raise ValueError("comparison needs level >= 1")
    if not C.is_nilpotent():
        raise NotNilpotent("coefficient is not in p^m W_n")
    p, n, m = C.p, C.n, C.m
    C2 = witt_level_raise(C)
    top = p ** (n - 1)
    window = range(-D * top, D * top + 1)
    sides, links = [], []
    for side, conn in enumerate((C, C2)):
        gens = [p ** side * e for e in window]
        images = [{e2: c // p ** r for e2, r, c in _coded_terms(
            conn.nabla(_gen_ghost(e, p, n)), p, n)} for e in gens]
        index = {e: k for k, e in enumerate(gens)}
        links += [(k, index.get(e2, (side, e2)))
                  for k, image in enumerate(images) for e2 in image]
        sides.append((gens, images))
    report = {"p": p, "n": n, "m": m, "window": D, "nilpotent": True,
              "components": [], "pass": True}
    solved = {}

    def divisors(A, B, ords, out):
        key = (freeze_columns(A), freeze_columns(B), tuple(ords), tuple(out))
        if key not in solved:
            solved[key] = homology_divisors(A, B, ords, out, p, n)
        return list(solved[key])

    for members in components(range(len(window)), links):
        h = []
        for gens, images in sides:
            mid = [gens[k] for k in members]
            cols = [images[k] for k in members]
            A, B, targets = windowed_block(mid, cols, cols)
            ords = [n - _level(e, p, n) for e in mid]
            h += [divisors([], B, ords, [n - _level(e, p, n)
                                         for e in targets]),
                  divisors(A, [{}] * len(mid), ords, [])]
        h0a, h1a, h0b, h1b = h
        fg = sum(1 for k in members if _level(window[k], p, n))
        ok0 = abs(sum(h0a) - sum(h0b)) <= fg if fg else h0a == h0b
        ok1 = abs(sum(h1a) - sum(h1b)) <= 14 * (m - 1) + fg + 1
        report["components"].append({
            "weights": [str(Fraction(window[k], top)) for k in members],
            "h0": h0a, "h1": h1a, "h0_raised": h0b, "h1_raised": h1b,
            "h0_ok": ok0, "h1_ok": ok1})
        report["pass"] = report["pass"] and ok0 and ok1
    # chain map: F(nabla x) = nabla'(F x) at truncation n-1
    chain = True
    if n >= 2:
        Cr = C2.restrict()
        D2 = min(D, 2)
        for e in range(-D2 * top, D2 * top + 1):
            g = _gen_ghost(e, p, n)
            if drw_F(C.nabla(g)) != Cr.nabla(g.reduce_to(_ring(p, n - 1))):
                chain = False
                break
    report["chain_map"] = chain
    if not chain:
        report["pass"] = False
    return report


def fractional_presentation_orders(p, n, r, j):
    """Validate the predicted group Z/p^{n-r} for the fractional weight
    j/p^r piece of W_n: generators V^{r'}([t^{j p^{r'-r}}]) for r' = r..n-1,
    relations p g_{r'} = g_{r'+1} and p g_{n-1} = 0, verified by actual Witt
    arithmetic, then presented and diagonalized."""
    if j % p == 0 or not 1 <= r <= n - 1:
        raise ValueError("need p !| j and 1 <= r <= n-1")
    gens = []
    for rp in range(r, n):
        x = WittVector.teichmuller(
            LaurentPoly.monomial(_ring(p, 1), 1, (j * p ** (rp - r),)), n)
        for _ in range(rp):
            x = x.verschiebung()
        gens.append(x)
    verified = True
    for k in range(len(gens) - 1):
        if (gens[k] * p).comps != gens[k + 1].comps:
            verified = False
    if not (gens[-1] * p).is_zero():
        verified = False
    s = len(gens)
    rel = [{k - 1: -1, k: p} if k else {k: p} for k in range(s)]
    _, Dm, _ = snf_int(rel, s, p ** (n + 1), transforms=False)
    return {"orders": diagonal_p_exponents(Dm, p, n), "verified": verified,
            "predicted": [n - r]}
