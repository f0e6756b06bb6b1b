"""Exact arithmetic in Z/p^nZ: the ring context, p-adic valuations, and the
factorial and binomial coefficients of divided powers.

Residues are plain ints in [0, p^n).  The ring context travels with the
containers built on them (Laurent polynomials, connections, operators),
which refuse to mix moduli instead of wrapping around silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache


def is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class RingCtx:
    """The coefficient ring Z/p^nZ."""

    p: int
    n: int
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"n = {self.n} must be >= 1")
        object.__setattr__(self, "modulus", self.p ** self.n)


def int_val_p(v, p):
    """p-adic valuation of a nonzero integer (unbounded)."""
    if v == 0:
        raise ValueError("int_val_p(0) is infinite")
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def factorial_val(p, k):
    """val_p(k!) by Legendre's formula: sum of floor(k/p^i)."""
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


def binom_int(i, l):
    """Integer value of the generalized binomial C(i, l) for i in Z, l >= 0.

    C(i, l) = i(i-1)...(i-l+1)/l!, which is an integer for every integer i;
    for i < 0 it is (-1)^l C(l-i-1, l).
    """
    if l < 0:
        raise ValueError("lower index must be a natural number")
    if i >= 0:
        return math.comb(i, l)
    return (-1) ** l * math.comb(l - i - 1, l)


def pd_product_coeff(a, b, ctx):
    """Coefficient in x^[a] * x^[b] = C(a+b, a) x^[a+b], componentwise.

    a and b are multi-indices of equal length; the result is the product of
    the componentwise binomials C(a_i + b_i, a_i) mod p^n, as an int.
    """
    if len(a) != len(b):
        raise ValueError("multi-index length mismatch")
    c = 1
    for ai, bi in zip(a, b):
        c *= binom_int(ai + bi, ai)
    return c % ctx.modulus


@lru_cache(maxsize=None)
def multi_factorial(k):
    """k! for a multi-index: the product of componentwise factorials."""
    out = 1
    for ki in k:
        out *= math.factorial(ki)
    return out


def multi_binom_int(k, kp):
    """Componentwise product of binomials C(k_i, kp_i) as an integer."""
    out = 1
    for a, b in zip(k, kp):
        out *= binom_int(a, b)
    return out
