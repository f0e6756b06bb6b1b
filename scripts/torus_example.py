#!/usr/bin/env python3
"""Walk through the motivating rank-1 examples on the 1-dimensional torus.

Prints, for a chosen (p, n):
  * the hom space between (O, nabla_1) and (O, nabla_0) at levels 0 and 1,
    with the gauge witness at level 0;
  * the divided-derivative ladder of nabla_{p^{m-1}} at level m;
  * the obstruction showing (O, nabla_t) is not a level raise.
"""

import argparse

from pmconn.arith import RingCtx
from pmconn.laurent import FrobLift, LaurentPoly, parse_poly
from pmconn.connection import Connection, gauge
from pmconn.cohomology import hom_space
from pmconn.frobenius import descend_rank1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--n", type=int, default=2)
    args = ap.parse_args()
    p, n = args.p, args.n
    ctx = RingCtx(p, n)
    one = LaurentPoly.one(ctx, 1)

    print(f"base ring Z/{p}^{n}, chart Z[t, t^-1]")
    print()
    print("hom((O, nabla_1), (O, nabla_0)):")
    C1 = Connection.rank1(ctx, 1, 0, [one])
    C0 = Connection.trivial(ctx, 1, 0)
    gens = hom_space(C1, C0, 8)
    print(f"  level 0: {len(gens)} generators")
    for g, e in gens:
        print(f"    {g[0][0]}  of order p^{e}")
        if e == n:
            moved = gauge(C1, g)
            ok = moved.theta[0][0][0] == C0.theta[0][0][0]
            print(f"    gauge by it sends theta=1 to theta=0: {ok}")
    D1 = Connection.rank1(ctx, 1, 1, [one])
    D0 = Connection.trivial(ctx, 1, 1)
    print(f"  level 1: {len(hom_space(D1, D0, 8))} generators")

    for m in (1, 2):
        if m > n:
            continue
        print()
        print(f"divided derivatives of nabla_{{p^{m - 1}}} at level {m}:")
        C = Connection.rank1(ctx, 1, m,
                             [LaurentPoly.const(ctx, 1, p ** (m - 1))])
        e = C.basis_vector(0)
        for l in range(1, 2 * n + 1):
            print(f"  partial^{l}(1) = {C.theta_power_apply_dt((l,), e)[0]}")

    print()
    print("is (O, nabla_t) a level raise of anything?")
    Ct = Connection.rank1(ctx, 1, 0, [parse_poly("1*t1^1", ctx, 1)])
    rep = descend_rank1(Ct, FrobLift.pure(ctx, 1))
    print(f"  descends: {rep['ok']}")
    print(f"  obstruction: {rep['obstruction']}")


if __name__ == "__main__":
    main()
