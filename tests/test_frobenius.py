import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly, FrobLift, frob_substitute, parse_poly
from pmconn.connection import (Connection, gauge, is_quasi_nilpotent,
                               mat_matmul, mat_inverse)
from pmconn.frobenius import (level_raise, LiftChain, psi, twist_decompose,
                              essential_image_rank1, descend_rank1)
from pmconn.cohomology import hom_space, verify_pullback_iso, _unit_in_span


def _rand_poly(rng, ctx, d, terms, deg=2):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(-deg, deg + 1) for _ in range(d))
        out[e] = rng.randrange(ctx.modulus)
    return LaurentPoly.from_dict(ctx, d, out)


grid = st.tuples(st.sampled_from([2, 3]),
                 st.integers(min_value=1, max_value=3),
                 st.integers(min_value=1, max_value=2),
                 st.integers(min_value=0, max_value=10 ** 6))


@given(grid)
@settings(max_examples=40)
def test_rank1_pure_lift_substitutes_exponents(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    f = _rand_poly(rng, ctx, 1, 2)
    C = Connection.rank1(ctx, 1, m, [f])
    F = FrobLift.pure(ctx, 1)
    C2 = level_raise(C, F)
    assert C2.m == m - 1
    assert C2.theta[0][0][0] == frob_substitute(f, F)


@given(grid)
@settings(max_examples=30, deadline=None)
def test_level_raise_preserves_integrability_and_nilpotence(args):
    p, n, m, seed = args
    ctx = RingCtx(p, n)
    rng = random.Random(seed)
    F = FrobLift.pure(ctx, 1)
    z = LaurentPoly.zero(ctx, 1)
    C = Connection(ctx, 1, m, 2,
                   ([[z, _rand_poly(rng, ctx, 1, 2)], [z, z]],))
    C2 = level_raise(C, F)
    assert C2.is_integrable()
    if is_quasi_nilpotent(C):
        assert is_quasi_nilpotent(C2)


def test_level_raise_rejects_level_zero():
    ctx = RingCtx(3, 2)
    C = Connection.trivial(ctx, 1, 0)
    with pytest.raises(ValueError):
        level_raise(C, FrobLift.pure(ctx, 1))


def test_psi_chain_composes_pure_lifts():
    p, n, m = 3, 2, 2
    ctx = RingCtx(p, n)
    f = parse_poly("2*t1^1+1*t1^-1", ctx, 1)
    C = Connection.rank1(ctx, 1, m, [f])
    chain = LiftChain((FrobLift.pure(ctx, 1), FrobLift.pure(ctx, 1)))
    C2 = psi(C, chain)
    assert C2.m == 0
    want = {(e[0] * p ** 2,): c for e, c in f.as_dict().items()}
    assert C2.theta[0][0][0].as_dict() == want


def test_twist_decompose_covers_all_residues():
    p, n, m = 3, 3, 2
    ctx = RingCtx(p, n)
    C = Connection.trivial(ctx, 1, m)
    F = FrobLift.pure(ctx, 1)
    tw = twist_decompose(C, F)
    assert sorted(tw.keys()) == [(a,) for a in range(p)]
    for a, Ca in tw.items():
        assert Ca.rank == C.rank
        assert Ca.m == m  # summands stay at level m, shifted by p^{m-1} a


def test_hom_space_detects_gauge_pairs():
    ctx = RingCtx(3, 2)
    rng = random.Random(3)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    g = [[LaurentPoly.monomial(ctx, 1, (2,), 1) +
          _rand_poly(rng, ctx, 1, 1) * 3]]
    C2 = gauge(C, g)
    # the gauge itself is a horizontal map, so it lies in the span of the
    # generators: some generator of order p^n has a unit coefficient at t^2
    gens = hom_space(C, C2, 6)
    assert any(e == ctx.n and dict(h[0][0].terms).get((2,), 0) % ctx.p
               for h, e in gens)


def test_descend_round_trip_with_witness():
    p, n = 3, 2
    ctx = RingCtx(p, n)
    F = FrobLift.pure(ctx, 1)
    f = parse_poly("3*t1^1+6*t1^-1", ctx, 1)
    C = Connection.rank1(ctx, 1, 1, [f])
    down = level_raise(C, F)
    res = descend_rank1(down, F)
    assert res["ok"]
    back = level_raise(res["connection"], F)
    g = res["gauge"]
    assert g.is_unit()
    G = gauge(down, [[g]])
    assert all((a - b).is_zero()
               for ra, rb in zip(G.theta[0], back.theta[0])
               for a, b in zip(ra, rb))


def test_descend_normalises_a_gauged_raise():
    # gauging the raise of nabla_{3 + 3t} by 1 + 3t adds 3t, a term at an
    # exponent prime to p that only the normalising gauge removes
    p, n = 3, 2
    ctx = RingCtx(p, n)
    F = FrobLift.pure(ctx, 1)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3+3*t1^1", ctx, 1)])
    G = gauge(level_raise(C, F), [[parse_poly("1+3*t1^1", ctx, 1)]])
    res = descend_rank1(G, F)
    assert res["ok"]
    assert res["gauge"] != LaurentPoly.one(ctx, 1)
    assert gauge(G, [[res["gauge"]]]).theta == \
        level_raise(res["connection"], F).theta


def test_descend_obstruction_for_theta_t():
    # (O, nabla_t) at level 0 is not in the image of level raising
    p, n = 3, 2
    ctx = RingCtx(p, n)
    C = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
    res = descend_rank1(C, FrobLift.pure(ctx, 1))
    assert not res["ok"]
    assert res["obstruction"] is not None


def test_essential_image_obstruction_certificate():
    for p in (2, 3, 5):
        ctx = RingCtx(p, 2)
        C = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
        rep = essential_image_rank1(C)
        assert rep["in_image"] is False
        assert rep["obstruction"]


def test_verify_pullback_iso_positive():
    p, n = 2, 2
    ctx = RingCtx(p, n)
    F = FrobLift.pure(ctx, 1)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("2*t1^1", ctx, 1)])
    down = level_raise(C, F)
    rep = verify_pullback_iso(C, down, F, 8)
    assert rep["found"]


def test_verify_pullback_iso_rank1_span_search():
    # the target differs from the level-raise by a non-monomial gauge unit,
    # so the witness comes from the mod-p span of the intertwiners
    ctx = RingCtx(3, 2)
    F = FrobLift.pure(ctx, 1)
    C = Connection.rank1(ctx, 1, 1, [parse_poly("3*t1^1", ctx, 1)])
    LR = level_raise(C, F)
    down = gauge(LR, [[parse_poly("2*t1^-1 + 3*t1^1", ctx, 1)]])
    assert down.theta != LR.theta
    rep = verify_pullback_iso(C, down, F, 4)
    assert rep["found"]
    assert rep["witness"][0][0].is_unit()
    assert gauge(LR, rep["witness"]).theta == down.theta
    # theta = t is not theta_LR plus a logarithmic derivative of a unit
    other = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
    rep = verify_pullback_iso(C, other, F, 4)
    assert not rep["found"]
    assert rep["obstruction"]["kind"] == "no-unit-in-solution-span"


def _swapped_diagonal_pullback():
    # down is the level-raise of diag(3, 6) with its basis swapped: every
    # single intertwiner generator is singular mod 3, their sum is the swap
    ctx = RingCtx(3, 2)
    F = FrobLift.pure(ctx, 1)
    z, one = LaurentPoly.zero(ctx, 1), LaurentPoly.one(ctx, 1)
    up = Connection(ctx, 1, 1, 2, (((LaurentPoly.const(ctx, 1, 3), z),
                                    (z, LaurentPoly.const(ctx, 1, 6))),))
    LR = level_raise(up, F)
    return up, LR, gauge(LR, [[z, one], [one, z]]), F


@pytest.mark.parametrize("D", [2, 4, 8])
def test_verify_pullback_iso_rank2_combines_generators(D):
    up, LR, down, F = _swapped_diagonal_pullback()
    rep = verify_pullback_iso(up, down, F, D)
    assert rep["found"] is True
    assert gauge(LR, rep["witness"]).theta == down.theta


def test_verify_pullback_iso_rank2_verdicts():
    up, LR, down, F = _swapped_diagonal_pullback()
    # 12 generators of order 3^2 give 3^12 - 1 combinations: too many to try
    rep = verify_pullback_iso(up, down, F, 12)
    assert rep["found"] is None
    assert rep["obstruction"]["kind"] == "undetermined"
    # diag(3, 3) needs t^3 or t^-3 on the second basis vector, outside the
    # window D = 2
    ctx = LR.ctx
    z, three = LaurentPoly.zero(ctx, 1), LaurentPoly.const(ctx, 1, 3)
    other = Connection(ctx, 1, 0, 2, (((three, z), (z, three)),))
    rep = verify_pullback_iso(up, other, F, 2)
    assert rep["found"] is False
    assert rep["obstruction"]["kind"] == "no-invertible-candidate"
    assert verify_pullback_iso(up, other, F, 4)["found"] is True


def test_unit_in_span_needs_three_vectors():
    # mod 2 only v1 + v2 + v3 = (1, 0, 0, 0) is a monomial: no single
    # vector and no pair combination is one
    vecs = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]]
    p, modulus = 2, 4
    lift = _unit_in_span(vecs, p, modulus)
    assert [x % p for x in lift] == [1, 0, 0, 0]
    combos = {tuple(sum(c * v[i] for c, v in zip(cs, vecs)) % modulus
                    for i in range(4))
              for cs in itertools.product(range(modulus), repeat=3)}
    assert tuple(lift) in combos
    # the span {0, 110, 011, 101} mod 2 holds no monomial
    assert _unit_in_span([[1, 1, 0], [0, 1, 1]], 2, 4) is None
    assert _unit_in_span([], 2, 4) is None
