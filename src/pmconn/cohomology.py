"""De Rham complexes of connections on the torus chart, computed exactly
per weight over Z/p^nZ.

The log basis makes every boundary map block-diagonal over the torus
character (weight) grading whenever the connection matrices are constant;
general Laurent entries couple weights in a band whose width is the max
log-degree of the entries, and the window truncation is exact on interior
components.  Blocks are assembled from a plan of the connection's terms,
built once per call and degree, and each translation class of components,
keyed by its shape and p^m w mod p^n, is solved once per call.  Homology
groups are finite p-groups, reported as p-exponents of elementary divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, sub

from .arith import int_val_p
from .frobenius import (gauge_intertwiner_lattice, level_raise,
                        twist_decompose, _vec_to_matrix, _window_exponents)
from .laurent import LaurentPoly
# snf_int stays bound for perfbench test_wrappers_are_removed_after_the_pass
from .linalg import components, homology_divisors, snf_int


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
    shifts = set()
    for M in C.theta:
        for row in M:
            for f in row:
                for u, _ in f.terms:
                    if any(u):
                        shifts.add(u)
    return shifts


def weight_components(C, D):
    """Connected components of the window weights under the exponent shifts
    appearing in the connection matrices."""
    weights = _window_exponents(C.d, D)
    shifts = _theta_shifts(C)
    present = set(weights)
    links = ((w, w2) for w in weights for u in shifts
             if (w2 := tuple(a + b for a, b in zip(w, u))) in present)
    return [sorted(ws) for ws in components(weights, links)]


def _form_basis(weights, rank, d, q):
    subsets = list(itertools.combinations(range(1, d + 1), q))
    return [(w, j, S) for w in weights for j in range(rank) for S in subsets]


def _boundary_plan(C, q):
    """Per form (j, S) of degree q, the terms of nabla on t^w e_j dlog t_S:
    (u, b, S2, c) for c t^(w+u) e_b dlog t_S2 and (axis, j, S2, sign) for
    sign * p^m w_axis t^w e_j dlog t_S2, the only coefficients that vary."""
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


def _boundary_matrix(C, plan, basis_in, basis_out):
    """Integer matrix of nabla_q from basis_in to basis_out, in the log
    basis, walked from the degree-q plan.  Also returns, per column, whether
    any image term fell outside basis_out (window leakage)."""
    row_of = {b: k for k, b in enumerate(basis_out)}.get
    pm = C.p_to_m()
    rows = [[0] * len(basis_in) for _ in basis_out]
    leaks = [False] * len(basis_in)
    for col, (w, j, S) in enumerate(basis_in):
        terms, diag = plan[j, S]
        for u, b, S2, c in terms:
            r = row_of((tuple(map(add, w, u)), b, S2))
            if r is None:
                leaks[col] = True
            else:
                rows[r][col] += c
        for axis, jj, S2, sign in diag:
            c = pm * w[axis]
            if c:
                r = row_of((w, jj, S2))
                if r is None:
                    leaks[col] = True
                else:
                    rows[r][col] += sign * c
    return rows, leaks


def de_rham_complex(C, D):
    """Boundary matrices of the windowed de Rham complex, per degree.

    Returns a list over q = 0..d-1 of dicts with the source/target bases
    and the integer matrix of nabla_q.
    """
    if not C.is_integrable():
        raise ValueError("the de Rham complex needs an integrable connection")
    weights = _window_exponents(C.d, D)
    out = []
    for q in range(C.d):
        bin_ = _form_basis(weights, C.rank, C.d, q)
        bout = _form_basis(weights, C.rank, C.d, q + 1)
        M, leaks = _boundary_matrix(C, _boundary_plan(C, q), bin_, bout)
        out.append({"q": q, "source": bin_, "target": bout,
                    "matrix": M, "leaks": leaks})
    return out


def compute_H(C, i, D, stability=True):
    """Elementary divisor p-exponents of the i-th de Rham cohomology of C,
    per weight component within the window [-D, D]^d."""
    if not C.is_integrable():
        raise ValueError("cohomology needs an integrable connection")
    if not 0 <= i <= C.d:
        raise ValueError(f"degree {i} out of range for d = {C.d}")
    n = C.ctx.n
    p = C.ctx.p
    shifts = _theta_shifts(C) | {(0,) * C.d}
    reach = max(sum(abs(x) for x in u) for u in shifts)
    pm = C.p_to_m()
    plan = _boundary_plan(C, i)
    plan_src = _boundary_plan(C, i - 1) if i else None
    # A translate of a component has the same blocks mod p^n: the bases and
    # the leaking columns move with it, theta's coefficients do not depend on
    # w, and the diagonal p^m w_i mod p^n is fixed by the key.  The memo is
    # local to this call so that the stability pass below computes its own
    # blocks; sharing it would compare every interior component with itself.
    solved = {}
    entries = []
    for comp in weight_components(C, D):
        w0 = comp[0]
        key = (tuple(tuple(map(sub, w, w0)) for w in comp),
               tuple(pm * x % C.ctx.modulus for x in w0))
        if key not in solved:
            mid = _form_basis(comp, C.rank, C.d, i)
            # extended target basis so that the kernel at the middle window
            # is computed without truncation loss
            ext = sorted({tuple(map(add, w, u)) for w in comp for u in shifts})
            out_basis = _form_basis(ext, C.rank, C.d, i + 1)
            B, _ = _boundary_matrix(C, plan, mid, out_basis)
            if i == 0:
                A = [[] for _ in mid]
            else:
                src = _form_basis(comp, C.rank, C.d, i - 1)
                A_full, leaks = _boundary_matrix(C, plan_src, src, mid)
                keep = [c for c in range(len(src)) if not leaks[c]]
                A = [[A_full[r][c] for c in keep] for r in range(len(mid))]
            solved[key] = homology_divisors(A, B, [n] * len(mid),
                                            [n] * len(out_basis), p, n)
        if solved[key]:
            entries.append({"w": w0, "weights": comp,
                            "divisors": list(solved[key])})
    entries.sort(key=lambda e: e["w"])
    free_rank = sum(1 for e in entries for x in e["divisors"] if x == n)
    stable = True
    if stability:
        bigger = compute_H(C, i, D + 2, stability=False)
        big = {tuple(e["w"]): e["divisors"] for e in bigger.entries}
        for e in entries:
            if max(abs(x) for w in e["weights"] for x in w) + reach > D:
                continue  # component touches the window boundary
            if big.get(tuple(e["w"])) != e["divisors"]:
                stable = False
    return CohomologyReport(i, D, entries, free_rank, stable)


# -- Hom spaces ----------------------------------------------------------------


def hom_space(C1, C2, D):
    """Generators of the group of matrices g with
    Theta1 g + p^m t_i dg/dlog t_i = g Theta2 (entries within the window),
    i.e. horizontal maps in the gauge-action convention
    gauge(C1, g) = C2 for invertible g.

    Returns a list of (matrix, p_exponent_of_order) whose cyclic groups sum
    directly to the whole group; trivial generators are left out.
    """
    if C1.m != C2.m:
        raise ValueError("hom spaces need equal levels")
    exps, gens = gauge_intertwiner_lattice(C1, C2, D)
    return [(_vec_to_matrix(vec, exps, C1.rank, C2.rank, C1.ctx, C1.d), e)
            for vec, e in gens]


# -- rank-1 triviality ----------------------------------------------------------


def rank1_trivial_test(f, m, ctx, max_stages=200):
    """Decide whether (O, p^m d + f dlog t) is gauge-isomorphic to
    (O, p^m d) on the 1-dimensional chart.

    Necessary filter: modulo p^{m+1}, f must be a constant in p^m Z (any
    gauge unit c t^N (1+z) with z in pR contributes p^m N plus terms in
    p^{m+1}).  When the filter passes, a gauge witness is built order by
    order; a residual that stops shrinking leaves the answer undetermined.

    Returns {"status": "iso"|"not-iso"|"undetermined", "witness": (N, u),
    "obstruction": ...}; the witness unit is t^N * u.
    """
    if f.d != 1:
        raise ValueError("the classification is implemented for d = 1")
    p, n = ctx.p, ctx.n
    pm = p ** m
    pn = p ** n
    if m >= n:
        # Higgs range: p^m = 0, the connection is O-linear multiplication
        if all(c % pn == 0 for _, c in f.terms):
            return {"status": "iso", "witness": (0, LaurentPoly.one(ctx, 1)),
                    "obstruction": None}
        return {"status": "not-iso", "witness": None,
                "obstruction": {"kind": "nonzero-higgs-field"}}
    f0 = f.coeff((0,))
    if f0 % pm:
        return {"status": "not-iso", "witness": None,
                "obstruction": {"kind": "constant-term",
                                "detail": "constant term not in p^m Z"}}
    for e, c in f.terms:
        if e != (0,) and c % (p ** min(m + 1, n)):
            return {"status": "not-iso", "witness": None,
                    "obstruction": {"kind": "non-constant-term-mod-p^{m+1}",
                                    "exponent": e[0], "coefficient": c}}
    N = (-(f0 // pm)) % (p ** (n - m))
    u = LaurentPoly.one(ctx, 1)
    residual = f + LaurentPoly.const(ctx, 1, pm * N)
    for _ in range(max_stages):
        if residual.is_zero():
            return {"status": "iso", "witness": (N, u), "obstruction": None}
        c0 = residual.coeff((0,))
        if c0:
            if c0 % pm:
                return {"status": "undetermined", "witness": None,
                        "obstruction": {"kind": "constant-residue",
                                        "value": c0}}
            N = (N - c0 // pm) % (p ** (n - m))
            residual = residual - LaurentPoly.const(ctx, 1, c0)
            continue
        terms = [(e[0], c) for e, c in residual.terms]
        k, c = min(terms, key=lambda t: (int_val_p(t[1], p), abs(t[0])))
        vk = int_val_p(k, p)
        # killing c t^k with 1 + gamma t^k needs gamma = -c / (p^m k), and
        # gamma in pR so the geometric tail keeps gaining valuation
        if int_val_p(c, p) < m + vk + 1:
            return {"status": "undetermined", "witness": None,
                    "obstruction": {"kind": "stalled", "exponent": k,
                                    "coefficient": c}}
        k_unit = k // p ** vk
        gamma = (-(c // (pm * p ** vk)) * pow(k_unit, -1, pn)) % pn
        g = LaurentPoly.from_dict(ctx, 1, {(0,): 1, (k,): gamma})
        u = u * g
        residual = residual + g.log_partial(1) * g.invert() * pm
    return {"status": "undetermined", "witness": None,
            "obstruction": {"kind": "no-convergence"}}


# -- Theorem-25-style comparison -------------------------------------------------


def _require_weight_preserving(C):
    if _theta_shifts(C):
        raise ValueError(
            "the comparison is implemented for weight-preserving "
            "(constant-matrix) connections")


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
    """
    from .connection import check_presentation
    rep = check_presentation(presentation)
    if rep.classification == "invalid":
        raise ValueError(f"invalid nilpotence presentation: {rep.reason}")
    _require_weight_preserving(C)
    if not F.is_pure():
        raise ValueError("comparison along the pure-power lift only")
    p, n, d, m = C.ctx.p, C.ctx.n, C.d, C.m
    ell = len(presentation.ranks)
    LR = level_raise(C, F)
    twists = twist_decompose(C, F)
    result = {"p": p, "n": n, "m": m, "l": ell, "window": D,
              "degrees": {}, "pass": True}
    zero_twist = twists[(0,) * d]
    result["zero_twist_is_original"] = all(
        zero_twist.theta[i][a][b] == C.theta[i][a][b]
        for i in range(d) for a in range(C.rank) for b in range(C.rank))
    if not result["zero_twist_is_original"]:
        result["pass"] = False
    # H_LR is read only at u = p*w + a, inside [-p*D, p*D + p - 1]^d.  LR
    # keeps C's constant matrices, so each weight is its own component and
    # H_LR at u does not depend on the window: a wider one only adds work.
    W = p * D + p - 1
    for i in range(d + 1):
        H_LR = compute_H(LR, i, W, stability=False).by_weight()
        findings = {"decomposition": True, "bound": True, "h0": True,
                    "violations": []}
        for a, Ct in twists.items():
            H_t = compute_H(Ct, i, D, stability=False).by_weight()
            bound = min(4 * ell * (m - 1) * (i + 1), n)
            for w in _window_exponents(d, D):
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
            H_C = compute_H(C, 0, D, stability=False).by_weight()
            for w in _window_exponents(d, D):
                u = tuple(p * x for x in w)
                if H_C.get(w, []) != H_LR.get(u, []):
                    findings["h0"] = False
                    findings["violations"].append(
                        {"kind": "h0", "w": list(w),
                         "c": H_C.get(w, []), "lr": H_LR.get(u, [])})
        if not (findings["decomposition"] and findings["bound"]
                and findings["h0"]):
            result["pass"] = False
        result["degrees"][i] = findings
    return result


def higgs_vanishing(p, d, a):
    """H^i of the rank-1 Higgs object (O, theta_a) over Z/pZ, all degrees.

    For a with some component not divisible by p this must vanish.
    """
    from .arith import RingCtx
    from .connection import Connection
    ctx = RingCtx(p, 1)
    coeffs = [LaurentPoly.const(ctx, d, ai) for ai in a]
    C = Connection.rank1(ctx, d, 1, coeffs)  # p^m = 0 mod p: a Higgs field
    return [compute_H(C, i, 4, stability=False).entries for i in range(d + 1)]
