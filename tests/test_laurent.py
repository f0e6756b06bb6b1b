import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmconn import laurent
from pmconn.arith import RingCtx
from pmconn.laurent import (LaurentPoly, FrobLift, frob_substitute,
                            parse_poly, format_poly, ContextMismatch,
                            NotAUnit, _packed_mul, _PACKED_MIN_PAIRS, dot,
                            mul_into)
from pmconn.dops import DiffOp, op_apply

ctxs = st.builds(RingCtx,
                 st.sampled_from([2, 3, 5]),
                 st.integers(min_value=1, max_value=4))


def polys(ctx, d, max_terms=4, deg=3):
    exp = st.tuples(*[st.integers(min_value=-deg, max_value=deg)
                      for _ in range(d)])
    return st.dictionaries(exp, st.integers(), max_size=max_terms).map(
        lambda t: LaurentPoly.from_dict(ctx, d, t))


@st.composite
def ctx_and_polys(draw, k=2, d=1):
    ctx = draw(ctxs)
    return (ctx,) + tuple(draw(polys(ctx, d)) for _ in range(k))


@given(ctx_and_polys(k=3))
def test_ring_laws(args):
    ctx, f, g, h = args
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == LaurentPoly.zero(ctx, 1)
    assert f * LaurentPoly.one(ctx, 1) == f


@given(ctx_and_polys(k=1))
def test_no_zero_terms_stored(args):
    ctx, f = args
    assert all(c != 0 for c in f.as_dict().values())
    assert (f * ctx.modulus).is_zero()


@given(ctx_and_polys(k=2))
def test_partial_leibniz(args):
    ctx, f, g = args
    # log derivative t d/dt is a derivation
    lhs = (f * g).log_partial(1)
    rhs = f.log_partial(1) * g + f * g.log_partial(1)
    assert lhs == rhs
    assert f.partial(1) * LaurentPoly.var(ctx, 1, 1) == f.log_partial(1)


@given(ctx_and_polys(k=1))
def test_unit_inversion(args):
    ctx, f = args
    u = f * ctx.p + LaurentPoly.monomial(ctx, 1, (2,), 1)
    assert u.is_unit()
    assert u * u.invert() == LaurentPoly.one(ctx, 1)


def test_non_unit_raises():
    ctx = RingCtx(3, 2)
    f = parse_poly("1+1*t1^1", ctx, 1)
    assert not f.is_unit()
    with pytest.raises(NotAUnit):
        f.invert()


@given(ctx_and_polys(k=1))
def test_parse_format_round_trip(args):
    ctx, f = args
    assert parse_poly(format_poly(f), ctx, 1) == f


def test_parse_examples():
    ctx = RingCtx(5, 2)
    f = parse_poly("3*t1^-1+5", ctx, 1)
    assert dict(f.terms).get((-1,), 0) == 3
    assert dict(f.terms).get((0,), 0) == 5
    assert format_poly(LaurentPoly.zero(ctx, 1)) == "0"


@pytest.mark.parametrize("text, want", [
    ("3*t1", "3*t1^1"), ("2*t1^2", "2*t1^2"), ("t1*t1", "1*t1^2"),
    ("3*t1*2", "6*t1^1"), ("-t1^-1 + 2", "6*t1^-1+2"),
    ("+t2^+1*t1", "1*t1^1*t2^1"),
    ("1-t1-t1", "1+5*t1^1"), ("t1^0*4", "4"),
])
def test_parse_explicit_operators(text, want):
    ctx = RingCtx(7, 1)
    assert format_poly(parse_poly(text, ctx, 2)) == want


@pytest.mark.parametrize("text", [
    "3t1", "2t1^2", "t1t1", "3*", "*3", "t1^", "t1^--1", "1--t1", "1+",
    "t1 t2", "", "3^2", "x1", "t3",
])
def test_parse_rejects_text_it_would_have_to_guess(text):
    with pytest.raises(ValueError):
        parse_poly(text, RingCtx(7, 1), 2)


def test_context_mismatch_guard():
    a = LaurentPoly.one(RingCtx(3, 2), 1)
    # an equal but distinct context combines; the identity short-cut is only
    # a short-cut
    twin = LaurentPoly.var(RingCtx(3, 2), 1, 1)
    assert a.ctx is not twin.ctx
    assert (a + twin).terms == (((0,), 1), ((1,), 1))
    assert (a * twin).terms == (((1,), 1),)
    other_n = LaurentPoly.one(RingCtx(3, 3), 1)
    other_d = LaurentPoly.one(a.ctx, 2)
    for b in (other_n, other_d):
        with pytest.raises(ContextMismatch):
            a + b
        with pytest.raises(ContextMismatch):
            a * b
        with pytest.raises(ContextMismatch):
            b * a


def test_from_dict_rejects_wrong_arity():
    ctx = RingCtx(3, 2)
    with pytest.raises(ValueError, match="arity"):
        LaurentPoly.from_dict(ctx, 2, {(1,): 1})
    with pytest.raises(ValueError, match="arity"):
        LaurentPoly.from_dict(ctx, 1, {(0,): 1, (1, 1): 2})


def _assert_canonical(f):
    """Sorted terms, coefficients in [1, p^n), exponents of arity d, and the
    same value as validating the terms through from_dict."""
    es = [e for e, _ in f.terms]
    assert es == sorted(es) and len(set(es)) == len(es)
    assert all(isinstance(c, int) and 1 <= c < f.ctx.modulus
               for _, c in f.terms)
    assert all(isinstance(e, tuple) and len(e) == f.d for e in es)
    assert f == LaurentPoly.from_dict(f.ctx, f.d, f.as_dict())


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3),
       st.sampled_from([1, 2]), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_internal_results_are_canonical(p, n, d, seed):
    rng = random.Random(seed)
    ctx = RingCtx(p, n)
    f, g = (random_poly(rng, ctx, d, rng.randint(0, 4), 3) for _ in range(2))
    # dense operands, all coefficients nonzero, go through the packed kernel
    side = 9 if d == 1 else 3
    box = list(itertools.product(range(-1, side - 1), repeat=d))
    dense = [LaurentPoly.from_dict(ctx, d, {
        e: rng.randrange(1, ctx.modulus) for e in box}) for _ in range(2)]
    assert _packed_mul(dense[0].terms, dense[1].terms, d,
                       ctx.modulus) is not None
    k = rng.randint(-3 * ctx.modulus, 3 * ctx.modulus)
    results = [f + g, f - g, g - f, f - f, -f, -(-f), f * g, g * f,
               dense[0] * dense[1], dense[0] * f, f * k, k * f,
               dense[0] * k, f * ctx.modulus]
    for i in range(1, d + 1):
        results += [f.partial(i), f.log_partial(i), dense[0].partial(i)]
    for m in range(3):
        for l in itertools.product(range(3), repeat=d):
            results.append(op_apply(DiffOp.partial(ctx, d, m, l), f))
    for r in results:
        assert r.ctx is ctx and r.d == d
        _assert_canonical(r)


@given(ctx_and_polys(k=1))
@settings(max_examples=40)
def test_substitute_composes_with_frobenius(args):
    ctx, f = args
    F = FrobLift.pure(ctx, 1)
    g = frob_substitute(f, F)
    # a=0 lift acts on exponents: t |-> t^p
    assert g.as_dict() == {(p_e[0] * ctx.p,): c
                           for p_e, c in f.as_dict().items()}


def test_frob_lift_images():
    ctx = RingCtx(3, 2)
    a = parse_poly("2*t1^-1", ctx, 1)
    F = FrobLift(ctx, 1, (a,))
    img = F.images()[0]
    assert img == parse_poly("1*t1^3+6*t1^-1", ctx, 1)
    assert not F.is_pure()
    assert FrobLift.pure(ctx, 1).is_pure()


def test_two_variable_substitute():
    ctx = RingCtx(2, 3)
    f = parse_poly("1*t1^1*t2^-2+3*t2^1", ctx, 2)
    t1 = LaurentPoly.var(ctx, 2, 1)
    t2 = LaurentPoly.var(ctx, 2, 2)
    swapped = f.substitute([t2, t1])
    assert swapped == parse_poly("1*t2^1*t1^-2+3*t1^1", ctx, 2)


# -- the packed multiply kernel against a schoolbook reference ---------------


def schoolbook(f, g):
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return LaurentPoly.from_dict(f.ctx, f.d, acc)


def random_poly(rng, ctx, d, terms, spread):
    return LaurentPoly.from_dict(ctx, d, {
        tuple(rng.randint(-spread, spread) for _ in range(d)):
            rng.randrange(ctx.modulus)
        for _ in range(terms)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multiply_matches_schoolbook(d):
    rng = random.Random(d)
    spread = {1: 20, 2: 5, 3: 2}[d]
    packed = 0
    for _ in range(150):
        ctx = RingCtx(rng.choice([2, 3, 5]), rng.randint(1, 5))
        f, g = (random_poly(rng, ctx, d, rng.randint(1, 30),
                            rng.randint(0, spread)) for _ in range(2))
        want = schoolbook(f, g)
        assert f * g == want
        if f.terms and g.terms:
            got = _packed_mul(f.terms, g.terms, d, ctx.modulus)
            if got is not None:
                packed += len(f.terms) * len(g.terms) > _PACKED_MIN_PAIRS
                assert got == want.terms
    assert packed >= 10  # the dense side of the dispatch was exercised


def test_multiply_small_and_edge_rings():
    rng = random.Random(7)
    ctx = RingCtx(2, 1)
    for terms in (1, 2, 8, 9, 40):  # pairs on both sides of the threshold
        f = random_poly(rng, ctx, 1, terms, 30)
        g = random_poly(rng, ctx, 1, terms, 30)
        assert f * g == schoolbook(f, g)
    # coefficient sums too wide for a machine word fall back exactly
    big = RingCtx(5, 16)
    f = random_poly(rng, big, 1, 20, 6)
    g = random_poly(rng, big, 1, 20, 6)
    assert _packed_mul(f.terms, g.terms, 1, big.modulus) is None
    assert f * g == schoolbook(f, g)


def test_multiply_negative_exponents_and_cancellation():
    ctx = RingCtx(3, 2)
    # (t^-20 + ... + t^19) * (1 - t) telescopes to t^-20 - t^20
    f = LaurentPoly.from_dict(ctx, 1, {(e,): 1 for e in range(-20, 20)})
    g = parse_poly("1-t1", ctx, 1)
    assert len(f.terms) * len(g.terms) > _PACKED_MIN_PAIRS
    assert f * g == parse_poly("t1^-20-t1^20", ctx, 1)
    # 3 * (dense block) squared vanishes mod 9
    for d, side in ((1, 20), (2, 5)):
        block = [tuple(e) for e in itertools.product(range(-side, side),
                                                     repeat=d)]
        a = LaurentPoly.from_dict(ctx, d, {e: 3 for e in block})
        assert _packed_mul(a.terms, a.terms, d, ctx.modulus) == ()
        assert (a * a).is_zero()


@pytest.mark.parametrize("d, text, k", [(1, "1+2*t1^-1", 127),
                                        (2, "1+t1+t2^-1", 31)])
def test_power_matches_repeated_multiplication(d, text, k):
    rng = random.Random(10 + d)
    ctx = RingCtx(5, 3) if d == 1 else RingCtx(2, 3)
    f = random_poly(rng, ctx, d, 3, 2)
    acc = LaurentPoly.one(ctx, d)
    for j in range(10):
        assert f ** j == acc
        acc = acc * f
    g = parse_poly(text, ctx, d)
    acc = LaurentPoly.one(ctx, d)
    for _ in range(k):  # every bit of k is set
        acc = schoolbook(acc, g)
    assert g ** k == acc


# -- the multiply-accumulate kernel against a term-pair reference ------------


def term_pair_sum(pairs, ctx, d, scale=1):
    """sum of scale * x * y over pairs, one term pair at a time."""
    acc = {}
    for x, y in pairs:
        for e1, c1 in x.terms:
            for e2, c2 in y.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = (acc.get(e, 0) + scale * c1 * c2) % ctx.modulus
    return LaurentPoly.from_dict(ctx, d, acc)


@pytest.mark.parametrize("d", [1, 2])
def test_dot_and_mul_into_match_the_term_pair_reference(d, monkeypatch):
    calls = []

    def counted(a, b, d, mod):
        calls.append(len(a) * len(b))
        out = _packed_mul(a, b, d, mod)
        assert out is not None  # the dense boxes below always pack
        return out
    monkeypatch.setattr(laurent, "_packed_mul", counted)
    rng = random.Random(40 + d)
    # a dense operand fills a box of 10 (d = 1) or 12 (d = 2) exponents, so
    # a dense pair has more than _PACKED_MIN_PAIRS term pairs
    box = list(itertools.product(range(-5, 5)) if d == 1
               else itertools.product(range(-1, 2), range(-2, 2)))
    sides = {"packed": 0, "pair loop": 0, "zero": 0, "mixed": 0}
    for _ in range(60):
        ctx = RingCtx(rng.choice([2, 3, 5]), rng.randint(1, 4))

        def small():
            return random_poly(rng, ctx, d, rng.randint(1, 3), 3)

        def dense():
            return LaurentPoly.from_dict(ctx, d, {
                e: rng.randrange(1, ctx.modulus) for e in box})

        def pair():
            kind = rng.choice(["packed", "pair loop", "pair loop", "zero"])
            if kind == "packed":
                return dense(), dense()
            x, y = small(), rng.choice([small, dense])()
            if kind == "zero":
                x = LaurentPoly.zero(ctx, d)
            return (x, y) if rng.randrange(2) else (y, x)
        pairs = [pair() for _ in range(rng.randint(1, 4))]
        big = [len(x.terms) * len(y.terms) > _PACKED_MIN_PAIRS
               for x, y in pairs]
        del calls[:]
        xs, ys = (list(z) for z in zip(*pairs))
        assert dot(xs, ys) == term_pair_sum(pairs, ctx, d)
        assert len(calls) == sum(big)
        assert all(n > _PACKED_MIN_PAIRS for n in calls)
        sides["packed"] += sum(big)
        sides["pair loop"] += len(big) - sum(big)
        sides["zero"] += sum(not (x.terms and y.terms) for x, y in pairs)
        sides["mixed"] += any(big) and not all(big)
        scale = rng.randrange(-ctx.modulus, ctx.modulus)
        acc = {}
        for x, y in pairs:
            mul_into(acc, x.terms, y.terms, scale)
        assert LaurentPoly.from_dict(ctx, d, acc) == \
            term_pair_sum(pairs, ctx, d, scale)
    assert min(sides.values()) >= 10, sides


def test_dot_of_zero_operands_and_the_empty_product():
    ctx = RingCtx(3, 2)
    zero, f = LaurentPoly.zero(ctx, 2), parse_poly("1+t1*t2^-1", ctx, 2)
    assert dot([zero, f], [f, zero]).is_zero()
    assert dot([f, f * 8], [f, f]).is_zero()  # f^2 + 8 f^2 = 9 f^2 = 0
    acc = {}
    mul_into(acc, f.terms, ())
    mul_into(acc, (), f.terms)
    assert acc == {}


def test_dot_refuses_mixed_rings_and_unequal_lengths():
    ctx = RingCtx(3, 2)
    f = LaurentPoly.one(ctx, 1)
    for other in (LaurentPoly.one(RingCtx(3, 3), 1),
                  LaurentPoly.one(RingCtx(5, 2), 1),
                  LaurentPoly.one(ctx, 2)):
        with pytest.raises(ContextMismatch):
            dot([f], [other])
        with pytest.raises(ContextMismatch):
            dot([f, other], [f, f])
        with pytest.raises(ContextMismatch):
            dot([f, f], [f, other])
    with pytest.raises(ValueError):
        dot([f, f], [f])
