#!/usr/bin/env python3
"""Demonstrate truncated Witt vector arithmetic over the torus.

Shows the ghost coordinates of a product, the normal form of a random
vector split into integral and fractional weights, the F/V/d identities,
and the finite group orders of the fractional weight pieces.
"""

import argparse
import random

from pmconn.arith import RingCtx
from pmconn.laurent import LaurentPoly
from pmconn.witt import (WittVector, drw_d, drw_F,
                         fractional_presentation_orders)


def rand_witt(rng, p, n):
    comps = []
    for _ in range(n):
        comps.append(LaurentPoly.from_dict(
            RingCtx(p, 1), 1,
            {(rng.randrange(-2, 3),): rng.randrange(p) for _ in range(2)}))
    return WittVector(p, n, tuple(comps))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    p, n = args.p, args.n
    rng = random.Random(args.seed)

    x = rand_witt(rng, p, n)
    y = rand_witt(rng, p, n)
    print(f"x = {x.comps}")
    print(f"y = {y.comps}")
    print(f"ghost(x)   = {[str(g) for g in x.ghosts()]}")
    print(f"ghost(x*y) = {[str(g) for g in (x * y).ghosts()]}")

    integral, fractional = x.normal_form()
    print()
    print(f"normal form of x: integral weights {integral}")
    print(f"                  fractional pieces {fractional}")

    if n >= 2:
        print()
        fv = x.verschiebung().frobenius()
        print(f"FV(x) == p*x: {fv.comps == (x * p).restrict().comps}")
        lhs = drw_d(x.frobenius())
        rhs = drw_F(drw_d(x)) * p
        print(f"dF == pFd:    {lhs == rhs}")
        lhs2 = drw_F(drw_d(x.verschiebung()))
        rhs2 = drw_d(x.restrict())
        print(f"FdV == d:     {lhs2 == rhs2}")

    print()
    print("orders of the fractional weight pieces dV^r[t^j]:")
    for r in range(1, n):
        rep = fractional_presentation_orders(p, n, r, p + 1)
        print(f"  r={r}, j={p + 1}: p-exponents {rep['orders']} "
              f"(predicted {rep['predicted']}, verified {rep['verified']})")


if __name__ == "__main__":
    main()
