"""De Rham complexes of connections on the torus chart, computed exactly
per weight over Z/p^nZ.

In the log basis nabla sends the weight w to the weights w + u, for u an
exponent of the connection matrices or 0.  Two window weights are linked
when their images meet, w + u = w2 + u2, so the windowed complex is block
diagonal over the linked components; constant matrices leave each weight
alone.  One routine builds each component's block, over a given list of
weights, with linalg.windowed_block from nabla's images, with a row for
every form they reach.  It builds and solves one block per translation
class of components, keyed by its shape and p^m w mod p^n.  The images come
from a plan of the connection's terms, built once per call and degree.
compute_H solves with homology_divisors: homology groups are finite
p-groups, reported as p-exponents of elementary divisors, and exact on
components away from the window boundary.  compare_theorem25 solves
through one linalg.solve_once per degree, shared by the raise, the twists
and C, whose blocks repeat along the pure lift, and gives the raise only
the weights it reads.  hom_space solves with kernel_generators:
a horizontal map g with Theta1 g + p^m t dg = g Theta2 is a degree-0
cocycle of C1 (x) C2^dual, and the gauge search reads hom_space.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add, sub

from .arith import RingCtx
from .connection import (Connection, check_presentation, dual, mat_add,
                         mat_det, mat_id, mat_scale, tensor)
from .frobenius import level_raise, twist_decompose
from .laurent import LaurentPoly
from .linalg import (components, homology_divisors, kernel_generators,
                     snf_int, solve_once, windowed_block)


@dataclass
class CohomologyReport:
    degree: int
    window: int
    entries: list  # [{"w": [...], "divisors": [...]}], sorted by w
    free_rank: int
    stable: bool

    def as_dict(self):
        return {"degree": self.degree,
                "weights": [{"w": list(e["w"]), "divisors": list(e["divisors"])}
                            for e in self.entries],
                "stable": self.stable}

    def by_weight(self):
        return {tuple(e["w"]): list(e["divisors"]) for e in self.entries}


def _theta_shifts(C):
    """The weight shifts of nabla: the exponents of the theta entries, and 0
    for the diagonal p^m w term."""
    return {(0,) * C.d} | {u for M in C.theta for row in M for f in row
                           for u, _ in f.terms}


def _window_exponents(d, D):
    """The exponent vectors of the window [-D, D]^d, in lexicographic order."""
    return list(itertools.product(range(-D, D + 1), repeat=d))


def weight_components(C, weights):
    """Connected components of the list of weights, two weights joined when
    nabla sends both to a common weight (w + u = w2 + u2 for exponent shifts
    u, u2 of the connection matrices or 0), among the weights or past them:
    each weight is linked to its images.  The complex restricted to the
    weights is then block diagonal over the components."""
    shifts = [u for u in _theta_shifts(C) if any(u)]
    return components(weights, ((w, tuple(map(add, w, u)))
                                for w in weights for u in shifts))


def _form_basis(weights, rank, d, q):
    subsets = list(itertools.combinations(range(1, d + 1), q))
    return [(w, j, S) for w in weights for j in range(rank) for S in subsets]


def _boundary_plan(C, q):
    """Per form (j, S) of degree q, the terms of nabla on t^w e_j dlog t_S:
    (u, b, S2, c) for c t^(w+u) e_b dlog t_S2 and (axis, j, S2, sign) for
    sign * p^m w_axis t^w e_j dlog t_S2, the only coefficients that vary.
    This keeps its own copy of theta_i on exponent vectors: one plan serves
    every weight, where Connection.theta_apply would build and reduce a
    LaurentPoly per form and weight on the cohomology hot path."""
    plan = {}
    for j in range(C.rank):
        for S in itertools.combinations(range(1, C.d + 1), q):
            terms, diag = [], []
            for i in range(1, C.d + 1):
                if i in S:
                    continue
                S2 = tuple(sorted(S + (i,)))
                sign = -1 if sum(1 for s in S if s < i) % 2 else 1
                for b in range(C.rank):
                    terms.extend((u, b, S2, sign * cu)
                                 for u, cu in C.theta[i - 1][b][j].terms)
                diag.append((i - 1, j, S2, sign))
            plan[j, S] = (terms, diag)
    return plan


def _nabla_images(C, plan, basis):
    """nabla of each form (w, j, S) of basis, in the log basis, as a dict
    {(w2, b, S2): entry}, walked from the degree-q plan of C.  A form that
    terms reach and then cancel stays, with entry 0."""
    pm = C.p_to_m()
    out = []
    for w, j, S in basis:
        terms, diag = plan[j, S]
        image = {}
        get = image.get
        for u, b, S2, c in terms:
            key = (tuple(map(add, w, u)), b, S2)
            image[key] = get(key, 0) + c
        for axis, jj, S2, sign in diag:
            c = pm * w[axis]
            if c:
                key = (w, jj, S2)
                image[key] = get(key, 0) + sign * c
        out.append(image)
    return out


def _component_solves(C, i, weights, solve):
    """Each component of weights (weight_components), in the order of their
    first members, with solve(A, B, out) on its degree-i block from
    linalg.windowed_block: A the sparse columns of nabla_(i-1) into the
    component's i-forms (the columns that leak out of it dropped), B those
    of nabla_i from them onto the (i+1)-forms they reach, listed in out.
    The i-forms are _form_basis(comp, C.rank, C.d, i), weight-major.

    A translate of a component has the same blocks mod p^n: the forms and
    the leaking columns move with it, theta's coefficients do not depend on
    w, and the diagonal p^m w_i mod p^n is fixed by the key.  So one block
    is built and solved per translation class, and its translates share the
    result.
    """
    pm = C.p_to_m()
    plan = _boundary_plan(C, i)
    plan_src = _boundary_plan(C, i - 1) if i else None
    solved = {}
    for comp in weight_components(C, weights):
        w0 = comp[0]
        key = (tuple(tuple(map(sub, w, w0)) for w in comp),
               tuple(pm * x % C.ctx.modulus for x in w0))
        if key not in solved:
            mid = _form_basis(comp, C.rank, C.d, i)
            src = _form_basis(comp, C.rank, C.d, i - 1) if i else []
            solved[key] = solve(*windowed_block(
                mid, _nabla_images(C, plan, mid),
                _nabla_images(C, plan_src, src)))
        yield comp, solved[key]


def _homology(ctx):
    """homology_divisors over ctx, looked up at each call."""
    return lambda *block: homology_divisors(*block, ctx.p, ctx.n)


def _H_entries(C, i, weights, solve):
    """compute_H's entries over the components of weights, each block solved
    by solve(A, B, orders_mid, orders_out).  Each entry gets its own list."""
    if not C.is_integrable():
        raise ValueError("cohomology needs an integrable connection")
    if not 0 <= i <= C.d:
        raise ValueError(f"degree {i} out of range for d = {C.d}")
    n = C.ctx.n

    def divisors(A, B, out):
        return solve(A, B, [n] * len(B), [n] * len(out))

    return [{"w": comp[0], "weights": comp, "divisors": list(divs)}
            for comp, divs in _component_solves(C, i, weights, divisors)
            if divs]


def compute_H(C, i, D, stability=True):
    """Elementary divisor p-exponents of the i-th de Rham cohomology of C,
    per weight component within the window [-D, D]^d.

    stable cannot be false.  The pass compares only interior components,
    max|w| + reach <= D.  Under a nonzero theta shift u every chain w, w + u,
    ... runs to the window edge, so no component is interior; on constant
    theta an interior component has the same block at D + 2.  The D + 2
    pass stays because dropping it read +20% peak_rss_mb on the
    cohomology-coupled benchmark (ROADMAP 1a)."""
    entries = _H_entries(C, i, _window_exponents(C.d, D), _homology(C.ctx))
    free_rank = sum(1 for e in entries for x in e["divisors"] if x == C.ctx.n)
    rep = CohomologyReport(i, D, entries, free_rank, True)
    if stability:
        reach = max(sum(map(abs, u)) for u in _theta_shifts(C))
        big = compute_H(C, i, D + 2, stability=False).by_weight()
        for e in rep.entries:
            if max(abs(x) for w in e["weights"] for x in w) + reach > D:
                continue  # component touches the window boundary
            if big.get(tuple(e["w"])) != e["divisors"]:
                rep.stable = False
    return rep


# -- Hom spaces and the gauge search -------------------------------------------

# The most F_p-combinations of intertwiner generators a rank >= 2 pullback
# search tries before it reports the window as undetermined.
MAX_GAUGE_COMBINATIONS = 4096


def hom_space(C1, C2, D):
    """Generators of the group of matrices g over Z/p^n (entries supported on
    the exponent window [-D, D]^d) with Theta1 g + p^m t_i dg/dlog t_i =
    g Theta2 for all i, i.e. horizontal maps in the gauge-action convention
    gauge(C1, g) = C2 for invertible g.

    Such a g is a degree-0 cocycle of H = C1 (x) C2^dual, whose basis index
    a*r2 + b is the slot of g[a][b], so the group is the direct sum of the
    kernels of H's nabla_0 on its weight components.  Returns a list of
    (matrix, p_exponent_of_order) whose cyclic groups sum directly to the
    whole group, in window order; trivial generators are left out.
    """
    if C1.m != C2.m:
        raise ValueError("hom spaces need equal levels")
    H = tensor(C1, dual(C2))
    ctx, d, r2 = H.ctx, H.d, C2.rank

    def kernel(A, B, out):
        # the rows of B that hold an entry; the others constrain nothing
        rows = {}
        for k, col in enumerate(B):
            for row, c in col.items():
                rows.setdefault(row, {})[k] = c
        return kernel_generators(list(rows.values()), len(B), ctx.p, ctx.n)

    out = []
    for comp, gens in _component_solves(H, 0, _window_exponents(d, D),
                                        kernel):
        for vec, e in gens:
            g = [[{} for _ in range(r2)] for _ in range(C1.rank)]
            for k, x in enumerate(vec):
                if x:
                    w, slot = divmod(k, H.rank)
                    g[slot // r2][slot % r2][comp[w]] = x
            out.append((tuple(tuple(LaurentPoly.from_dict(ctx, d, f)
                                    for f in row) for row in g), e))
    return out


def verify_pullback_iso(C_up, C_down, F, D):
    """Search for an invertible gauge g with
    gauge(level_raise(C_up, F), g) = C_down, entries within the window.

    Returns a dict with 'found', the 'witness' matrix when found, and an
    'obstruction' record otherwise.  For rank 1 the failure is conclusive:
    a gauge unit is c*t^v modulo p, so solvability modulo p over the window
    is a complete monomial search.  For rank >= 2 it is too, but 'found' is
    None when more than MAX_GAUGE_COMBINATIONS gauges mod p need trying.
    """
    if C_up.rank != C_down.rank:
        raise ValueError("ranks differ")
    LR = level_raise(C_up, F)
    if LR.m != C_down.m:
        raise ValueError("hom spaces need equal levels")
    r = LR.rank
    ctx, d = LR.ctx, LR.d
    if LR.theta == C_down.theta:
        return {"found": True, "witness": mat_id(ctx, d, r),
                "obstruction": None}
    gens = hom_space(LR, C_down, D)
    if r == 1:
        # a gauge unit is c*t^v mod p, so it exists iff some monomial lies in
        # the mod-p span of the solutions; absence is a certificate of
        # non-isomorphism on the window
        exps = _window_exponents(d, D)
        coeffs = [g[0][0].as_dict() for g, _ in gens]
        lift = _unit_in_span([[f.get(x, 0) for x in exps] for f in coeffs],
                             ctx.p, ctx.modulus)
        if lift is not None:
            unit = LaurentPoly.from_dict(ctx, d, dict(zip(exps, lift)))
            return {"found": True, "obstruction": None,
                    "witness": ((unit,),)}
        return {"found": False, "witness": None,
                "obstruction": {
                    "kind": "no-unit-in-solution-span",
                    "window": D,
                    "detail": "no monomial lies in the mod-p span of the "
                              "intertwiner space, so no gauge unit exists "
                              "with support in the window"}}
    # g is invertible iff det(g) mod p is a unit monomial, and mod p the group
    # is spanned by its generators of order p^n (the others are p times a
    # matrix), so trying their F_p-combinations decides the window
    units = [g for g, e in gens if e == ctx.n]
    if ctx.p ** len(units) - 1 > MAX_GAUGE_COMBINATIONS:
        return {"found": None, "witness": None,
                "obstruction": {"kind": "undetermined", "window": D,
                                "generators": len(units)}}
    for coeffs in itertools.product(range(ctx.p), repeat=len(units)):
        if not any(coeffs):
            continue
        g = functools.reduce(mat_add, (mat_scale(u, c)
                                       for c, u in zip(coeffs, units) if c))
        if mat_det(g).is_unit():
            return {"found": True, "witness": g, "obstruction": None}
    return {"found": False, "witness": None,
            "obstruction": {"kind": "no-invertible-candidate", "window": D}}


def _unit_in_span(vectors, p, modulus):
    """An integer combination of vectors, reduced mod modulus, that is
    congruent mod p to a standard basis vector e_k, for the first k that
    allows one; None when no e_k lies in the span mod p.

    With U K V = D mod p for the matrix K whose columns are the vectors, e_k
    lies in the span mod p iff p | (U e_k)_t at every t with p | d_t, and
    then K V z with z_t = (U e_k)_t / d_t mod p is congruent to e_k.
    """
    if not vectors:
        return None
    nv, c = len(vectors[0]), len(vectors)
    K = [{} for _ in range(nv)]
    for j, v in enumerate(vectors):
        for i, x in enumerate(v):
            if x:
                K[i][j] = x
    U, D, V = snf_int(K, c, p)
    diag = D + [0] * (nv - len(D))
    for k in range(nv):
        if any(U[t][k] % p for t in range(nv) if diag[t] % p == 0):
            continue
        z = [U[t][k] * pow(diag[t], -1, p) % p
             if t < nv and diag[t] % p else 0 for t in range(c)]
        Vz = [sum(x * y for x, y in zip(row, z)) for row in V]
        return [sum(x * Vz[j] for j, x in row.items()) % modulus
                for row in K]
    return None


# -- Theorem-25-style comparison -------------------------------------------------


def compare_theorem25(C, F, presentation, D):
    """Desk-scale comparison of the cohomology of C (level m, nilpotent of
    length l) with its level-raise along the pure-power lift F.

    Checks, per degree i <= d:
      (a) per-weight divisor equality between the level-raise at source
          weight p*w + a and the a-twist at target weight w (monomial
          decomposition of the pullback);
      (b) every divisor of every a != 0 twist has p-exponent at most
          min(4*l*(m-1)*(i+1), n);
      (c) the a = 0 twist is C itself;
      (h0) divisors of H^0(C) at weight w equal divisors of the level-raise
          at weight p*w (the pullback map is weight-multiplication by p).
    Here theta is constant, so the raise keeps it, and p^(m-1)(p w + a) =
    p^m w + p^(m-1) a: (a) and (h0) compare equal blocks mod p^n, and only
    (b) and (c) can fail on such input.

    So one linalg.solve_once serves a degree's cohomology of LR, of every
    twist and of C, and is dropped after it; LR is solved only at the
    weights p*w + a that the checks read.  A wrong raise or twist changes
    its blocks, misses the memo and is still compared.
    """
    rep = check_presentation(presentation)
    if rep.classification == "invalid":
        raise ValueError(f"invalid nilpotence presentation: {rep.reason}")
    if len(_theta_shifts(C)) > 1:
        raise ValueError("the comparison is implemented for weight-preserving "
                         "(constant-matrix) connections")
    if not F.is_pure():
        raise ValueError("comparison along the pure-power lift only")
    p, n, d, m = C.ctx.p, C.ctx.n, C.d, C.m
    ell = rep.length
    LR = level_raise(C, F)
    twists = twist_decompose(C, F)
    zero = twists[(0,) * d].theta == C.theta
    result = {"p": p, "n": n, "m": m, "l": ell, "window": D, "degrees": {},
              "zero_twist_is_original": zero, "pass": zero}
    window = _window_exponents(d, D)
    raised = [tuple(p * x + y for x, y in zip(w, a))
              for a in twists for w in window]
    for i in range(d + 1):
        solve = solve_once(_homology(C.ctx))

        def H(Cx, weights):
            return {e["w"]: e["divisors"]
                    for e in _H_entries(Cx, i, weights, solve)}

        H_LR = H(LR, raised)
        findings = {"decomposition": True, "bound": True, "h0": True,
                    "violations": []}
        for a, Ct in twists.items():
            H_t = H(Ct, window)
            bound = min(4 * ell * (m - 1) * (i + 1), n)
            for w in window:
                u = tuple(p * x + y for x, y in zip(w, a))
                lhs = H_LR.get(u, [])
                rhs = H_t.get(w, [])
                if lhs != rhs:
                    findings["decomposition"] = False
                    findings["violations"].append(
                        {"kind": "decomposition", "i": i, "a": list(a),
                         "w": list(w), "lr": lhs, "twist": rhs})
                if any(a) and any(e > bound for e in rhs):
                    findings["bound"] = False
                    findings["violations"].append(
                        {"kind": "bound", "i": i, "a": list(a),
                         "w": list(w), "divisors": rhs, "bound": bound})
        if i == 0:
            H_C = H(C, window)
            for w in window:
                c, lr = H_C.get(w, []), H_LR.get(tuple(p * x for x in w), [])
                if c != lr:
                    findings["h0"] = False
                    findings["violations"].append(
                        {"kind": "h0", "w": list(w), "c": c, "lr": lr})
        if not (findings["decomposition"] and findings["bound"]
                and findings["h0"]):
            result["pass"] = False
        result["degrees"][i] = findings
    return result


def higgs_vanishing(p, d, a):
    """H^i of the rank-1 Higgs object (O, theta_a) over Z/pZ, all degrees.

    For a with some component not divisible by p this must vanish.
    """
    ctx = RingCtx(p, 1)
    coeffs = [LaurentPoly.const(ctx, d, ai) for ai in a]
    C = Connection.rank1(ctx, d, 1, coeffs)  # p^m = 0 mod p: a Higgs field
    return [compute_H(C, i, 4, stability=False).entries for i in range(d + 1)]
