import math

import pytest
from hypothesis import given, strategies as st

from pmconn.arith import (RingCtx, int_val_p, factorial_val, binom_int,
                          pd_product_coeff, multi_factorial,
                          multi_binom_int, is_prime)

primes = st.sampled_from([2, 3, 5, 7])
ctxs = st.builds(RingCtx, primes, st.integers(min_value=1, max_value=5))


def test_ring_ctx_rejects_composite():
    with pytest.raises(ValueError):
        RingCtx(6, 2)
    with pytest.raises(ValueError):
        RingCtx(3, 0)


def test_ring_ctx_is_its_p_and_n():
    # modulus is stored at construction, but repr, equality and hash still
    # read (p, n) only
    ctx = RingCtx(3, 2)
    assert repr(ctx) == "RingCtx(p=3, n=2)"
    assert ctx.modulus == 9
    assert ctx == RingCtx(3, 2) and hash(ctx) == hash(RingCtx(3, 2))
    assert ctx != RingCtx(3, 3) and ctx != RingCtx(5, 2)
    assert len({ctx, RingCtx(3, 2), RingCtx(3, 3)}) == 2


@given(ctxs, st.integers())
def test_val_p_matches_int_val(ctx, a):
    # canonical lifts in [0, p^n) have valuation below n; 0 has none
    x = a % ctx.modulus
    if x == 0:
        with pytest.raises(ValueError):
            int_val_p(x, ctx.p)
    else:
        v = int_val_p(x, ctx.p)
        assert v < ctx.n
        assert x % ctx.p ** v == 0
        assert x % ctx.p ** (v + 1) != 0


@given(primes, st.integers(min_value=0, max_value=400))
def test_factorial_val_legendre(p, k):
    # oracle: count factors of p in k! directly
    want = int_val_p(math.factorial(k), p) if k > 1 else 0
    assert factorial_val(p, k) == want


@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=0, max_value=10))
def test_binom_int_is_integral_and_matches_product(i, l):
    got = binom_int(i, l)
    num = 1
    for j in range(l):
        num *= i - j
    assert got * math.factorial(l) == num


def test_binom_reduces_mod_ctx():
    ctx = RingCtx(3, 2)
    assert binom_int(-1, 2) == 1
    assert pd_product_coeff((4,), (3,), ctx) == 35 % 9


@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8))
def test_pd_product_coeff_is_binomial(a, b):
    # x^[a] x^[b] = C(a+b, a) x^[a+b]
    ctx = RingCtx(5, 4)
    assert pd_product_coeff((a,), (b,), ctx) == math.comb(a + b, a) % 5 ** 4


def test_multi_index_helpers():
    assert multi_factorial((2, 3)) == 2 * 6
    assert multi_binom_int((3, 2), (1, 2)) == 3 * 1
    assert is_prime(2) and is_prime(97) and not is_prime(91)
