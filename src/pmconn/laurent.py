"""Sparse multivariate Laurent polynomials over Z/p^nZ.

This is the coordinate ring of the d-dimensional torus chart that the whole
package lives on.  Terms are a dict from exponent vectors (tuples in Z^d) to
nonzero coefficients stored as canonical integers in [0, p^n).  The dlog
basis convention for 1-forms lives in the connection module; here we provide
the two derivations (ordinary and logarithmic), unit inversion by a finite
geometric series, and substitution along a Frobenius lift t_i -> t_i^p + p a_i.

Every product of polynomials goes through one multiply-accumulate kernel:
mul_into adds the term-pair products of two term lists into an exact integer
dict, and dot reduces a whole sum of products x * y once, sending the large
pairs through the packed (Kronecker) kernel.  The product operator, the
operator ring and the matrix layer are built on these two.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import add

from .arith import RingCtx


class ContextMismatch(ValueError):
    pass


class NotAUnit(ZeroDivisionError):
    pass


def _zero_exp(d):
    return (0,) * d


@dataclass(frozen=True)
class LaurentPoly:
    ctx: RingCtx
    d: int
    terms: tuple  # sorted tuple of (exponent tuple, int coefficient)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(ctx, d, mapping):
        acc = {}
        for e, c in mapping.items():
            if len(e) != d:
                raise ValueError(f"exponent {e} has wrong arity for d={d}")
            acc[tuple(e)] = int(c)
        return LaurentPoly._canon(ctx, d, acc)

    @staticmethod
    def _canon(ctx, d, acc):
        """The polynomial sum of c * t^e over acc, for internal results whose
        exponents are already tuples of arity d and coefficients ints: reduce
        mod p^n, drop zeros and sort."""
        mod = ctx.modulus
        items = []
        for e, c in acc.items():
            if c := c % mod:
                items.append((e, c))
        items.sort()
        return LaurentPoly(ctx, d, tuple(items))

    @staticmethod
    def zero(ctx, d):
        return LaurentPoly(ctx, d, ())

    @staticmethod
    def const(ctx, d, c):
        return LaurentPoly._canon(ctx, d, {_zero_exp(d): int(c)})

    @staticmethod
    def one(ctx, d):
        return LaurentPoly.const(ctx, d, 1)

    @staticmethod
    def monomial(ctx, d, e, c=1):
        return LaurentPoly.from_dict(ctx, d, {tuple(e): c})

    @staticmethod
    def var(ctx, d, i, power=1):
        """t_i^power with 1-based axis index i."""
        e = [0] * d
        e[i - 1] = power
        return LaurentPoly.monomial(ctx, d, e)

    # -- basic structure ---------------------------------------------------

    def as_dict(self):
        return dict(self.terms)

    def is_zero(self):
        return not self.terms

    def _chk(self, other):
        # the identity test skips the dataclass __eq__ on the common case
        if self.d != other.d or (self.ctx is not other.ctx
                                 and self.ctx != other.ctx):
            raise ContextMismatch(
                f"({self.ctx}, d={self.d}) vs ({other.ctx}, d={other.d})")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._chk(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._canon(self.ctx, self.d, acc)

    def __neg__(self):
        mod = self.ctx.modulus
        return LaurentPoly(self.ctx, self.d,
                           tuple((e, mod - c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._canon(
                self.ctx, self.d, {e: c * other for e, c in self.terms})
        self._chk(other)
        a, b = self.terms, other.terms
        if len(a) * len(b) > _PACKED_MIN_PAIRS:
            terms = _packed_mul(a, b, self.d, self.ctx.modulus)
            if terms is not None:
                return LaurentPoly(self.ctx, self.d, terms)
        acc = {}
        mul_into(acc, a, b)
        return LaurentPoly._canon(self.ctx, self.d, acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = LaurentPoly.one(self.ctx, self.d)
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def is_unit(self):
        """Units of the Laurent ring mod p^n are c*t^e*(1 + p*u), c a unit."""
        red = [(e, c % self.ctx.p) for e, c in self.terms]
        red = [(e, c) for e, c in red if c]
        return len(red) == 1

    def invert(self):
        """Exact inverse of a unit, via geometric series truncated at n terms."""
        red = [(e, c) for e, c in self.terms if c % self.ctx.p]
        if len(red) != 1:
            raise NotAUnit(f"not a unit mod p: {self}")
        e0, c0 = red[0]
        lead_inv = LaurentPoly.monomial(
            self.ctx, self.d, tuple(-x for x in e0),
            pow(c0, -1, self.ctx.modulus))
        # self * lead_inv = 1 + u with u = 0 mod p, so the series stops at n.
        u = self * lead_inv - LaurentPoly.one(self.ctx, self.d)
        acc = LaurentPoly.one(self.ctx, self.d)
        pw = LaurentPoly.one(self.ctx, self.d)
        for _ in range(1, self.ctx.n):
            pw = pw * (-u)
            if pw.is_zero():
                break
            acc = acc + pw
        return lead_inv * acc

    # -- derivations -------------------------------------------------------

    def partial(self, i):
        """d/dt_i, 1-based axis: t^k -> k_i t^(k - e_i)."""
        if not 1 <= i <= self.d:
            raise ValueError(f"axis {i} out of range for d={self.d}")
        acc = {}
        for e, c in self.terms:
            if e[i - 1]:
                e2 = list(e)
                e2[i - 1] -= 1
                acc[tuple(e2)] = c * e[i - 1]
        return LaurentPoly._canon(self.ctx, self.d, acc)

    def log_partial(self, i):
        """t_i * d/dt_i: exponent-preserving, t^k -> k_i t^k."""
        if not 1 <= i <= self.d:
            raise ValueError(f"axis {i} out of range for d={self.d}")
        return LaurentPoly._canon(
            self.ctx, self.d, {e: c * e[i - 1] for e, c in self.terms})

    # -- context changes ---------------------------------------------------

    def reduce_to(self, new_ctx):
        """Reduce coefficients into Z/p^n' (n' <= n), or lift canonically."""
        if new_ctx.p != self.ctx.p:
            raise ContextMismatch("different primes")
        return LaurentPoly._canon(new_ctx, self.d, dict(self.terms))

    # -- substitution ------------------------------------------------------

    def substitute(self, images):
        """Ring map sending t_i to images[i-1]; images must be units when a
        negative exponent of t_i occurs."""
        if len(images) != self.d:
            raise ValueError("need one image per variable")
        cache = {}

        def ipow(i, k):
            key = (i, k)
            if key not in cache:
                if k >= 0:
                    cache[key] = images[i] ** k
                else:
                    cache[key] = images[i].invert() ** (-k)
            return cache[key]

        out = LaurentPoly.zero(self.ctx, self.d)
        for e, c in self.terms:
            term = LaurentPoly.const(self.ctx, self.d, c)
            for i, k in enumerate(e):
                if k:
                    term = term * ipow(i, k)
            out = out + term
        return out

    # -- text form ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = [str(c)]
            for i, k in enumerate(e):
                if k:
                    factors.append(f"t{i + 1}^{k}")
            parts.append("*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.ctx.p}^{self.ctx.n}, {self})"


def mul_into(acc, a, b, scale=1):
    """Add scale * c1 * c2 at exponent e1 + e2 into acc, a dict from
    exponents to exact ints, for every term (e1, c1) of a and (e2, c2) of b.
    a and b are sequences of (exponent tuple, int) pairs of one arity; the
    caller reduces acc once, when it is complete."""
    for e2, c2 in b:
        c2 *= scale
        for e1, c1 in a:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def dot(xs, ys):
    """sum of x * y over the pairs of xs and ys, reduced mod p^n once.

    All operands must live in the ring of xs[0], which must exist.  A pair
    with more than _PACKED_MIN_PAIRS term pairs tries the packed kernel, as
    x * y would; the others go through mul_into."""
    first = xs[0]
    ctx, d = first.ctx, first.d
    acc = {}
    for x, y in zip(xs, ys, strict=True):
        first._chk(x)
        first._chk(y)
        a, b = x.terms, y.terms
        if len(a) * len(b) > _PACKED_MIN_PAIRS:
            terms = _packed_mul(a, b, d, ctx.modulus)
            if terms is not None:
                for e, c in terms:
                    acc[e] = acc.get(e, 0) + c
                continue
        mul_into(acc, a, b)
    return LaurentPoly._canon(ctx, d, acc)


# Products with more term pairs than this try the packed kernel; below it the
# pair loop is cheaper than packing.
_PACKED_MIN_PAIRS = 64
# The packed kernel pays per slot of the product's exponent box, the pair
# loop per term pair; beyond this many slots per pair the pair loop wins.
_PACKED_MAX_SLOTS_PER_PAIR = 2
# Machine-word formats for the slots, (bytes, format) narrowest first.
_SLOT_FORMATS = sorted((memoryview(bytes(8)).cast(code).itemsize, code)
                       for code in "BHIQ")


def _packed_mul(a, b, d, mod):
    """Kronecker-substitution product of two sorted term tuples mod `mod`.

    Each axis is offset by the operands' minimum exponents, and the product's
    exponent box is laid out row-major in one integer, one machine word per
    exponent vector.  A word must hold the largest exact coefficient sum,
    min(len a, len b) * (mod - 1)^2, so the bigint product carries nothing
    from one slot into the next.  Returns the product's sorted term tuple, or
    None when the box is too sparse for packing to pay or a coefficient sum
    does not fit in 64 bits.
    """
    lo_a = [min(e[i] for e, _ in a) for i in range(d)]
    lo_b = [min(e[i] for e, _ in b) for i in range(d)]
    spans = [max(e[i] for e, _ in a) - lo_a[i]
             + max(e[i] for e, _ in b) - lo_b[i] + 1 for i in range(d)]
    strides = [1] * d
    for i in range(d - 1, 0, -1):
        strides[i - 1] = strides[i] * spans[i]
    slots = strides[0] * spans[0]
    if slots > _PACKED_MAX_SLOTS_PER_PAIR * len(a) * len(b):
        return None
    bits = (min(len(a), len(b)) * (mod - 1) ** 2).bit_length()
    fits = [f for f in _SLOT_FORMATS if 8 * f[0] >= bits]
    if not fits:
        return None
    size, code = fits[0]

    def pack(terms, lo):
        buf = bytearray(slots * size)
        words = memoryview(buf).cast(code)
        for e, c in terms:
            words[sum((x - l) * s for x, l, s in zip(e, lo, strides))] = c
        return int.from_bytes(buf, sys.byteorder)

    prod = memoryview((pack(a, lo_a) * pack(b, lo_b)).to_bytes(
        slots * size, sys.byteorder)).cast(code)
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    out = []
    for k, c in enumerate(prod):
        if c and (c := c % mod):
            e, rest = [], k
            for s, l in zip(strides, lo):
                q, rest = divmod(rest, s)
                e.append(q + l)
            out.append((tuple(e), c))
    return tuple(out)


@dataclass(frozen=True)
class FrobLift:
    """The ring endomorphism t_i -> t_i^p + p*a_i of the torus chart."""

    ctx: RingCtx
    d: int
    a: tuple  # d LaurentPoly correction terms

    def __post_init__(self):
        if len(self.a) != self.d:
            raise ValueError("need one correction term per variable")
        for ai in self.a:
            if ai.ctx != self.ctx or ai.d != self.d:
                raise ContextMismatch("correction term in wrong ring")

    @staticmethod
    def pure(ctx, d):
        """The coordinatewise p-th power lift (all a_i = 0)."""
        return FrobLift(ctx, d, tuple(LaurentPoly.zero(ctx, d) for _ in range(d)))

    def is_pure(self):
        return all(ai.is_zero() for ai in self.a)

    def images(self):
        p = self.ctx.p
        return [LaurentPoly.var(self.ctx, self.d, i + 1, p) + self.a[i] * p
                for i in range(self.d)]


def frob_substitute(f, F):
    """Image of f under the Frobenius lift endomorphism."""
    if f.ctx != F.ctx or f.d != F.d:
        raise ContextMismatch("poly and lift in different rings")
    return f.substitute(F.images())


# -- text grammar ------------------------------------------------------------

_FACTOR = r"(?:\d+|t\d+(?:\^[+-]?\d+)?)"
_TERM = rf"{_FACTOR}(?:\*{_FACTOR})*"
_POLY = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")


def parse_poly(text, ctx, d):
    """Parse the CLI grammar: sum of terms c*t1^e1*...*td^ed.

    Whitespace is insignificant.  A term is factors joined by `*`, each an
    integer or a variable with an optional integer exponent (`t1` means
    1*t1^1); terms are joined by `+` or `-`.  Example: `2*t1^-1+3`.
    """
    s = re.sub(r"\s+", "", text)
    if not _POLY.fullmatch(s):
        raise ValueError(f"cannot read polynomial text: {text!r}")
    acc = {}
    for term in re.findall(rf"[+-]?{_TERM}", s):
        coeff = -1 if term[0] == "-" else 1
        exps = [0] * d
        for factor in term.lstrip("+-").split("*"):
            if factor[0] != "t":
                coeff *= int(factor)
                continue
            var, _, power = factor[1:].partition("^")
            if not 1 <= int(var) <= d:
                raise ValueError(f"variable t{var} out of range for d={d}")
            exps[int(var) - 1] += int(power or 1)
        e = tuple(exps)
        acc[e] = acc.get(e, 0) + coeff
    return LaurentPoly.from_dict(ctx, d, acc)


def format_poly(f):
    return str(f)
