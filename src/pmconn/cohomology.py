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

Hom spaces and the gauge search read the same blocks: a horizontal map g
with Theta1 g + p^m t dg = g Theta2 is a degree-0 cocycle of C1 (x) C2^dual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, sub

from .arith import RingCtx
from .connection import (Connection, check_presentation, dual, mat_det,
                         mat_id, tensor)
from .frobenius import level_raise, twist_decompose
from .laurent import LaurentPoly
from .linalg import components, homology_divisors, kernel_generators, snf_int


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


def _window_exponents(d, D):
    """The exponent vectors of the window [-D, D]^d, in lexicographic order."""
    return list(itertools.product(range(-D, D + 1), repeat=d))


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
    basis, as sparse columns {row: entry}, one per element of basis_in,
    walked from the degree-q plan (an entry where terms cancel stays, as
    0).  Also returns, per column, whether any image term fell outside
    basis_out (window leakage)."""
    row_of = {b: k for k, b in enumerate(basis_out)}.get
    pm = C.p_to_m()
    cols = [{} for _ in basis_in]
    leaks = [False] * len(basis_in)
    for col, (w, j, S) in enumerate(basis_in):
        terms, diag = plan[j, S]
        image = cols[col]
        get = image.get
        for u, b, S2, c in terms:
            r = row_of((tuple(map(add, w, u)), b, S2))
            if r is None:
                leaks[col] = True
            else:
                image[r] = get(r, 0) + c
        for axis, jj, S2, sign in diag:
            c = pm * w[axis]
            if c:
                r = row_of((w, jj, S2))
                if r is None:
                    leaks[col] = True
                else:
                    image[r] = get(r, 0) + sign * c
    return cols, leaks


def de_rham_complex(C, D):
    """Boundary maps of the windowed de Rham complex, per degree.

    Returns a list over q = 0..d-1 of dicts with the source/target bases
    and the integer matrix of nabla_q as sparse columns, "columns"[k] =
    {target index: entry} for source element k.
    """
    if not C.is_integrable():
        raise ValueError("the de Rham complex needs an integrable connection")
    weights = _window_exponents(C.d, D)
    out = []
    for q in range(C.d):
        bin_ = _form_basis(weights, C.rank, C.d, q)
        bout = _form_basis(weights, C.rank, C.d, q + 1)
        cols, leaks = _boundary_matrix(C, _boundary_plan(C, q), bin_, bout)
        out.append({"q": q, "source": bin_, "target": bout,
                    "columns": cols, "leaks": leaks})
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
            A = []
            if i:
                src = _form_basis(comp, C.rank, C.d, i - 1)
                A_full, leaks = _boundary_matrix(C, plan_src, src, mid)
                A = [col for col, leak in zip(A_full, leaks) if not leak]
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


# -- Hom spaces and the gauge search -------------------------------------------

# The most F_p-combinations of intertwiner generators a rank >= 2 pullback
# search tries before it reports the window as undetermined.
MAX_GAUGE_COMBINATIONS = 4096


def gauge_intertwiner_lattice(C1, C2, D):
    """Generators of the group of matrices g over Z/p^n (entries supported on
    the exponent window [-D, D]^d) with Theta1 g + p^m t_i dg/dlog t_i =
    g Theta2 for all i, i.e. candidate gauges with gauge(C1, g) = C2
    whenever g is invertible.

    Such a g is a degree-0 cocycle of H = C1 (x) C2^dual, whose basis index
    a*r2 + b is the slot of g[a][b]: the system is H's nabla_0 from the
    window to the window widened by the reach of the entries of C1 and C2.

    Returns (exponent list, list of (vector, e)): the group is the direct sum
    of the cyclic groups of order p^e generated by the vectors, and a vector
    lists the coefficient of each (row, col, exponent) slot.
    """
    H = tensor(C1, dual(C2))
    d, slots = H.d, range(H.rank)
    exps = _window_exponents(d, D)
    reach = max([1] + [f.log_degree()
                       for M in C1.theta + C2.theta for row in M for f in row])
    out_exps = _window_exponents(d, D + reach)
    basis_in = [(e, j, ()) for j in slots for e in exps]
    basis_out = [(e, j, (i,)) for i in range(1, d + 1) for j in slots
                 for e in out_exps]
    cols, _ = _boundary_matrix(H, _boundary_plan(H, 0), basis_in, basis_out)
    rows = [{} for _ in basis_out]
    for k, col in enumerate(cols):
        for r, c in col.items():
            rows[r][k] = c
    rows = [row for row in rows if any(row.values())]
    return exps, kernel_generators(rows, len(basis_in), H.ctx.p, H.ctx.n)


def _vec_to_matrix(vec, exps, r1, r2, ctx, d):
    mats = []
    L = len(exps)
    for a in range(r1):
        row = []
        for b in range(r2):
            chunk = vec[(a * r2 + b) * L:(a * r2 + b + 1) * L]
            row.append(LaurentPoly.from_dict(ctx, d, dict(zip(exps, chunk))))
        mats.append(tuple(row))
    return tuple(mats)


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
    r = LR.rank
    ctx, d = LR.ctx, LR.d
    if LR.theta == C_down.theta:
        return {"found": True, "witness": mat_id(ctx, d, r),
                "obstruction": None}
    exps, gens = gauge_intertwiner_lattice(LR, C_down, D)
    if r == 1:
        # a gauge unit is c*t^v mod p, so it exists iff some monomial lies in
        # the mod-p span of the solutions; absence is a certificate of
        # non-isomorphism on the window
        lift = _unit_in_span([vec for vec, _ in gens], ctx.p, ctx.modulus)
        if lift is not None:
            return {"found": True, "obstruction": None,
                    "witness": _vec_to_matrix(lift, exps, 1, 1, ctx, d)}
        return {"found": False, "witness": None,
                "obstruction": {
                    "kind": "no-unit-in-solution-span",
                    "window": D,
                    "detail": "no monomial lies in the mod-p span of the "
                              "intertwiner space, so no gauge unit exists "
                              "with support in the window"}}
    # g is invertible iff det(g) mod p is a unit monomial, and mod p the group
    # is spanned by its generators of order p^n (the others are p times a
    # vector), so trying their F_p-combinations decides the window
    units = [vec for vec, e in gens if e == ctx.n]
    if ctx.p ** len(units) - 1 > MAX_GAUGE_COMBINATIONS:
        return {"found": None, "witness": None,
                "obstruction": {"kind": "undetermined", "window": D,
                                "generators": len(units)}}
    for coeffs in itertools.product(range(ctx.p), repeat=len(units)):
        if not any(coeffs):
            continue
        vec = [sum(c * x for c, x in zip(coeffs, col)) % ctx.modulus
               for col in zip(*units)]
        g = _vec_to_matrix(vec, exps, r, r, ctx, d)
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
    Here theta is constant, so the raise keeps it, and p^(m-1)(p w + a) =
    p^m w + p^(m-1) a: (a) and (h0) compare equal blocks mod p^n, and only
    (b) and (c) can fail on such input.
    """
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
    result["zero_twist_is_original"] = twists[(0,) * d].theta == C.theta
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
    ctx = RingCtx(p, 1)
    coeffs = [LaurentPoly.const(ctx, d, ai) for ai in a]
    C = Connection.rank1(ctx, d, 1, coeffs)  # p^m = 0 mod p: a Higgs field
    return [compute_H(C, i, 4, stability=False).entries for i in range(d + 1)]
