"""Independent reference implementations used to validate the package.

Everything here recomputes results through a different code path than the
module under test: counting by per-point evaluation over term data, orbit
counting by explicit orbit-set construction, the blown-up quintic by its
fibers over (x1, x2, x3), the exceptional set by inclusion-exclusion over its
strata, zeros on the exceptional set point by point, the planner's
homogeneity lattice one exponent difference at a time, fan gradings by
sympy's Smith and Hermite normal forms, and the ring A_s by sympy's Groebner
basis for grevlex with x > v (the library divides for v > x), by the
Gorenstein-trace recurrence and by its closed form for gamma. The Chow-ring helpers that only tests use
(the class u = x + v, products of classes, and the recomputation of a
membership certificate from its cofactors) live here too, as does the
equation/unknown accounting of the coordinate sections of the strict
transform; ``TsenCertificate.equations`` and ``unknowns`` report the
headline 5s+c+1 against 6s+6.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
import sympy
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from toricount.chow import ChowRingSpec, MembershipResult, class_v, class_x
from toricount.count import _zero_masks
from toricount.errors import (
    InvalidParams,
    NonEffectiveGrading,
    TorsionClassGroup,
)
from toricount.fan import Fan, GradingData, Space, _column_hnf, validate
from toricount.ff import FieldElement, FieldSpec, enumerate_field
from toricount.poly import MultiPoly, multidegree
from toricount.quintic import QuinticInstance


def _eval_term(coeff: FieldElement, exps, point) -> FieldElement:
    acc = coeff
    for e, x in zip(exps, point):
        for _ in range(e):
            acc = acc * x
    return acc


def eval_poly(P: MultiPoly, point) -> FieldElement:
    total = P.domain.zero()
    for exps, coeff in P.as_dict().items():
        total = total + _eval_term(coeff, exps, point)
    return total


def naive_affine_count(P: MultiPoly, spec: FieldSpec) -> int:
    """Point-by-point count using only field-element multiplication."""
    count = 0
    for point in itertools.product(enumerate_field(spec), repeat=P.nvars):
        if eval_poly(P, point).is_zero:
            count += 1
    return count


def naive_zero_mask(system: Sequence[MultiPoly], spec: FieldSpec, axes) -> np.ndarray:
    """The common zeros of `system` on the box axes[0] x ... x axes[-1] of element
    indices, point by point in odometer order."""
    points = itertools.product(*([spec.from_index(int(i)) for i in a] for a in axes))
    return np.array(
        [all(eval_poly(P, point).is_zero for P in system) for point in points], dtype=bool
    )


def blowup_fiber_count(inst: QuinticInstance) -> int:
    """N_affine of the strict transform x0^2*P3 + x0*x4*Q3 + x4*x5*Q4, fiber by fiber.

    Over y = (x1, x2, x3) with a, b, c = P3(y), Q3(y), Q4(y), the fiber in
    (x0, x4, x5) has (q^2 - L) + q*M points, where L = q^2 if b = c = 0 and q
    otherwise, and M = (1 if c != 0 else q) if a != 0, else M = L. The count
    sums the fiber over the 8 zero patterns of (a, b, c) on F_q^3. The
    patterns come from the kernel's masks of P3, Q3 and Q4, one polynomial at a
    time and with no planner; the kernel itself is checked against
    `naive_affine_count`.
    """
    spec = inst.field
    q = spec.q
    axes = [np.arange(q)] * 3
    a, b, c = (
        np.concatenate([mask.ravel() for _, mask in _zero_masks(P, spec, axes)]).astype(np.int64)
        for P in (inst.p3, inst.q3, inst.q4)
    )
    patterns = np.bincount(4 * a + 2 * b + c, minlength=8)
    total = 0
    for pattern, points in enumerate(patterns):
        a0, b0, c0 = pattern & 4, pattern & 2, pattern & 1
        L = q * q if b0 and c0 else q
        M = L if a0 else (q if c0 else 1)
        total += int(points) * (q * q - L + q * M)
    return total


def naive_exceptional_count(P: MultiPoly, space: Space, spec: FieldSpec) -> int:
    """Zeros of P on the exceptional set, point by point over the union of its strata."""
    elements = enumerate_field(spec)
    rho = space.grading.rho
    points = set()
    for stratum in space.strata:
        free = [i for i in range(rho) if i not in stratum]
        for values in itertools.product(range(spec.q), repeat=len(free)):
            point = [0] * rho
            for i, v in zip(free, values):
                point[i] = v
            points.add(tuple(point))
    return sum(1 for point in points if eval_poly(P, [elements[i] for i in point]).is_zero)


def naive_power_sum(spec: FieldSpec, alpha: int) -> FieldElement:
    total = spec.zero()
    for x in enumerate_field(spec):
        term = spec.one()
        for _ in range(alpha):
            term = term * x
        total = total + term
    return total


def naive_toric_orbits(P: MultiPoly, space: Space, spec: FieldSpec) -> int:
    """Count orbits by building each orbit as an explicit frozenset of points."""
    G = space.grading
    elements = enumerate_field(spec)
    units = [e for e in elements if not e.is_zero]
    group = list(itertools.product(units, repeat=G.r))

    def act(mu, point):
        out = []
        for i, x in enumerate(point):
            scale = spec.one()
            for j, m in enumerate(mu):
                for _ in range(G.weights[i][j]):
                    scale = scale * m
            out.append(scale * x)
        return tuple(out)

    def exceptional(point):
        return any(all(point[i].is_zero for i in stratum) for stratum in space.strata)

    orbits: set[frozenset] = set()
    for point in itertools.product(elements, repeat=G.rho):
        if exceptional(point):
            continue
        if not (P.is_zero or eval_poly(P, point).is_zero):
            continue
        orbits.add(frozenset(act(mu, point) for mu in group))
    return len(orbits)


def groebner_gamma(s: int, c: int, E: int | None = None) -> Fraction | None:
    """Socle coefficient of (5x+2v)^E v^(6s+4-E) via Groebner normal forms."""
    x, v = sympy.symbols("x v")
    if E is None:
        E = 5 * s + c + 1
    k = 6 * s + 4 - E
    if k < 0:
        return None
    basis = sympy.groebner(
        [x ** (3 * s + 3), (x + v) ** (2 * s + 2) * v ** (s + 1)], x, v, order="grevlex"
    )
    target = sympy.expand((5 * x + 2 * v) ** E * v ** k)
    fund = sympy.expand(x ** (3 * s + 2) * (x + v) ** (2 * s + 2) * v ** s)
    nf_t = basis.reduce(target)[1]
    nf_f = basis.reduce(fund)[1]
    pt = sympy.Poly(nf_t, x, v)
    pf = sympy.Poly(nf_f, x, v)
    ratios = set()
    td = dict(pt.terms())
    for mono, coeff in pf.terms():
        ratios.add(sympy.Rational(td.get(mono, sympy.Integer(0)), coeff))
    extra = set(td) - {m for m, _ in pf.terms()}
    assert not extra, f"target normal form has monomials outside the socle span: {extra}"
    assert len(ratios) == 1, f"normal forms are not proportional: {ratios}"
    r = ratios.pop()
    return Fraction(int(r.p), int(r.q))


def groebner_is_zero(poly_xv: MultiPoly, s: int) -> bool:
    """Ideal membership via sympy's Groebner reduction (independent of the library's division)."""
    x, v = sympy.symbols("x v")
    basis = sympy.groebner(
        [x ** (3 * s + 3), (x + v) ** (2 * s + 2) * v ** (s + 1)], x, v, order="grevlex"
    )
    expr = sympy.Integer(0)
    for (i, j), coeff in poly_xv.as_dict().items():
        fr = Fraction(coeff)
        expr += sympy.Rational(fr.numerator, fr.denominator) * x ** i * v ** j
    return basis.reduce(sympy.expand(expr))[1] == 0


def groebner_hilbert(s: int, d_max: int) -> list[int]:
    """Hilbert function of A_s in degrees 0..d_max from sympy's grevlex basis (x > v).

    Counts the degree-d monomials divisible by no leading monomial of the
    reduced Groebner basis; for this order the basis has more than the two
    relations, unlike the library's order v > x.
    """
    x, v = sympy.symbols("x v")
    basis = sympy.groebner(
        [x ** (3 * s + 3), (x + v) ** (2 * s + 2) * v ** (s + 1)], x, v, order="grevlex"
    )
    leads = [sympy.Poly(g, x, v).monoms(order="grevlex")[0] for g in basis.exprs]
    return [
        sum(1 for i in range(d + 1) if not any(i >= a and d - i >= b for a, b in leads))
        for d in range(d_max + 1)
    ]


def trace_gamma(s: int, c: int, E: int | None = None) -> tuple[Fraction | None, bool]:
    """gamma and the nonvanishing of (5x+2v)^E in A_s from the Gorenstein trace, integers only.

    A_s is a complete intersection with socle degree D = 6s+4. Its trace
    phi_i = phi(x^i v^(D-i)), normalized on the fundamental class
    x^(3s+2)(x+v)^(2s+2)v^s, is phi_i = 0 for i >= 3s+3, phi_(3s+2) = 1 and
    phi_t = -sum_(l>=1) C(2s+2, l) phi_(t+l). gamma is phi((5x+2v)^E v^(D-E)),
    and (5x+2v)^E != 0 iff some monomial of the complementary degree pairs
    with it to a nonzero trace (the pairing is perfect). E defaults to 5s+c+1.
    """
    D = 6 * s + 4
    if E is None:
        E = 5 * s + c + 1
    if E > D:
        return None, False
    phi = [0] * (D + 1)
    phi[3 * s + 2] = 1
    for t in range(3 * s + 1, -1, -1):
        phi[t] = -sum(comb(2 * s + 2, l) * phi[t + l] for l in range(1, 2 * s + 3) if t + l <= D)
    coeffs = [comb(E, j) * 5 ** j * 2 ** (E - j) for j in range(E + 1)]
    pairings = [sum(a * phi[j + i] for j, a in enumerate(coeffs)) for i in range(D - E + 1)]
    return Fraction(pairings[0]), any(pairings)


def closed_form_gamma(s: int, c: int, E: int | None = None) -> Fraction | None:
    """gamma = [z^(3s+2)] (2+5z)^E * (1+z)^(-(2s+2)), or None when E > 6s+4.

    The recurrence of `trace_gamma` solves to phi_(3s+2-k) = (-1)^k C(2s+1+k, k),
    the coefficients of (1+z)^(-(2s+2)), and gamma = sum_j C(E, j) 5^j 2^(E-j) phi_j
    is the coefficient of z^(3s+2) in the product. E defaults to 5s+c+1.
    """
    if E is None:
        E = 5 * s + c + 1
    if E > 6 * s + 4:
        return None
    n = 3 * s + 2
    return Fraction(sum(
        comb(E, j) * 5 ** j * 2 ** (E - j) * (-1) ** (n - j) * comb(2 * s + 1 + n - j, n - j)
        for j in range(min(E, n) + 1)
    ))


def relations(spec: ChowRingSpec) -> tuple[MultiPoly, MultiPoly]:
    """The generators (x^(3s+3), (x+v)^(2s+2) v^(s+1)) of the ideal of A_s, expanded."""
    s = spec.s
    x, v = class_x(), class_v()
    return (x ** (3 * s + 3), (x + v) ** (2 * s + 2) * v ** (s + 1))


def class_u() -> MultiPoly:
    """The second ruling class u = x + v of A_s."""
    return class_x() + class_v()


def multiply(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return a * b


def check_cofactors(c: MultiPoly, spec: ChowRingSpec, result: MembershipResult) -> bool:
    """Recompute c from the membership certificate by exact multiplication."""
    if not result.in_ideal or result.cofactors is None:
        return False
    g1, g2 = relations(spec)
    p, q = result.cofactors
    return g1 * p + g2 * q == c


#: variable multiplicities of the three monomial families of the strict
#: transform: (fixed factors, degree of the cubic/quartic part in x1..x3)
_FAMILIES = (
    ("x0^2*P3", ((0, 2),), 3),
    ("x0*x4*Q3", ((0, 1), (4, 1)), 3),
    ("x4*x5*Q4", ((4, 1), (5, 1)), 4),
)


def dimension_count(s: int, c: int, degree_vector: tuple[int, ...] | None = None) -> dict:
    """Unknown/equation accounting for coordinate sections of degree_vector.

    equations uses the honest per-family maximum T-degree (+1); the dict also
    carries the headline accounting (claimed_*) of 5s+c+1 equations against
    6s+6 unknowns for cross-reference.
    """
    if s < 0 or c < 0:
        raise InvalidParams(f"need s >= 0 and c >= 0, got ({s}, {c})")
    d = tuple(degree_vector) if degree_vector is not None else (s,) * 6
    if len(d) != 6 or any(x < 0 for x in d):
        raise InvalidParams(f"degree_vector needs 6 entries >= 0, got {d!r}")
    cubic_max = max(d[1], d[2], d[3])
    family_bounds = {}
    for name, fixed, part_degree in _FAMILIES:
        t = sum(d[i] * m for i, m in fixed) + part_degree * cubic_max
        family_bounds[name] = c + t
    equations = max(family_bounds.values()) + 1
    unknowns = sum(x + 1 for x in d)
    return {
        "equations": equations,
        "unknowns": unknowns,
        "slack": unknowns - equations,
        "family_degree_bounds": family_bounds,
        "claimed_equations": 5 * s + c + 1,
        "claimed_unknowns": 6 * s + 6,
        "degree_vector": list(d),
    }


def union_subspace_count(space: Space, q: int) -> int:
    """#Z(F_q) of the exceptional set: inclusion-exclusion over its coordinate subspaces."""
    strata, rho = space.strata, space.grading.rho
    total = 0
    for k in range(1, len(strata) + 1):
        for combo in itertools.combinations(strata, k):
            union = set().union(*combo)
            total += (-1) ** (k + 1) * q ** (rho - len(union))
    return total


def rowwise_homogeneity_lattice(system: Sequence[MultiPoly], m: int) -> list[list[int]]:
    """The planner's homogeneity lattice built one exponent difference at a time.

    Generators of the c in Z^m that make every polynomial of `system`
    c-homogeneous. Starting from Z^m, each difference e - e' between a term and
    its polynomial's first term cuts the lattice to its vectors orthogonal to
    e - e': the integer kernel of the one-row matrix of pairings with the
    current generators is read off the unimodular transform of its column
    Hermite normal form.
    """
    lattice = [[int(i == j) for j in range(m)] for i in range(m)]
    for P in system:
        first = P.terms[0][0]
        for e, _ in P.terms[1:]:
            row = [sum((a - b) * x for a, b, x in zip(e, first, c)) for c in lattice]
            if not any(row):
                continue
            U = _column_hnf([row])[1]
            lattice = [
                [sum(U[k][col] * c[i] for k, c in enumerate(lattice)) for i in range(m)]
                for col in range(len(lattice) - 1)
            ]
    return lattice


def scaling_character(
    P: MultiPoly,
    grading: GradingData,
    mu: Sequence[FieldElement],
    point: Sequence[FieldElement],
) -> tuple[FieldElement, FieldElement]:
    """Return (P(mu·point), chi(mu)·P(point)); equal for homogeneous P.

    mu·point scales coordinate i by prod_j mu_j^{A[i][j]}, and
    chi(mu) = prod_j mu_j^{d_j} where d = multidegree(P).
    """
    if len(mu) != grading.r:
        raise InvalidParams(f"mu has {len(mu)} entries, grading rank is {grading.r}")
    for m in mu:
        if m.is_zero:
            raise InvalidParams("mu entries must be nonzero (torus elements)")
    d = multidegree(P, grading)
    scaled = []
    for i, x in enumerate(point):
        factor = x
        for j, mj in enumerate(mu):
            w = grading.weights[i][j]
            if w:
                factor = factor * mj ** w
        scaled.append(factor)
    chi = None
    for j, mj in enumerate(mu):
        piece = mj ** d[j]
        chi = piece if chi is None else chi * piece
    lhs = eval_poly(P, scaled)
    rhs = chi * eval_poly(P, point) if chi is not None else eval_poly(P, point)
    return lhs, rhs


# The grading derivation of toricount.fan as it was before the package had its
# own Hermite normal form: sympy's Smith decomposition of the ray matrix, then
# sympy's HNF and determinants in the nonnegative-representative search.

def sympy_grading(fan: Fan) -> GradingData:
    """Cokernel of x -> (<n_i, x>)_i as a weight matrix, canonically normalized.

    The cokernel has rank r = rho - rank(rays); row i of the returned matrix is
    the class of the i-th coordinate. Invariant factors > 1 raise TorsionClassGroup.
    """
    validate(fan)
    N = Matrix([list(ray) for ray in fan.rays])  # rho x d
    D, U, V = smith_normal_decomp(N)
    # sanity: exact decomposition with unimodular transforms
    assert (U * N * V - D).is_zero_matrix
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    diag = [D[i, i] for i in range(min(D.shape))]
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(int(abs(d)) for d in diag if d != 0 and abs(d) != 1)
    if torsion:
        raise TorsionClassGroup(
            f"grading group has invariant factors {torsion}; free grading required"
        )
    rho = fan.rho
    r = rho - rank
    if r == 0:
        return GradingData(weights=tuple(() for _ in range(rho)))
    W = U[rank:, :].T  # rho x r; row i = coordinates of [e_i]
    W = _sympy_normalize_weights(W)
    weights = tuple(tuple(int(W[i, j]) for j in range(r)) for i in range(rho))
    return GradingData(weights=weights)


def _sympy_normalize_weights(W: Matrix) -> Matrix:
    """Deterministic nonnegative representative of the column lattice of W.

    Candidate columns are small integer combinations of the HNF basis; we pick
    the first unimodular r-subset in (entry-sum, lex) order and sort the chosen
    columns in descending lexicographic order.
    """
    rho, r = W.shape
    H = hermite_normal_form(W)
    if H.shape[1] != r:
        raise InvalidParams("weight matrix does not have full column rank")
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (column, coeffs)
    seen: set[tuple[int, ...]] = set()
    for bound in range(1, 6 + 1):
        for t in itertools.product(range(-bound, bound + 1), repeat=r):
            if max((abs(x) for x in t), default=0) != bound:
                continue  # only new shell
            col = H * Matrix(r, 1, list(t))
            vec = tuple(int(col[i]) for i in range(rho))
            if vec in seen or any(x < 0 for x in vec) or all(x == 0 for x in vec):
                continue
            seen.add(vec)
            candidates.append((vec, t))
        if len(candidates) >= 4 * r + 8 and bound >= 2:
            break
    candidates.sort(key=lambda cv: (sum(cv[0]), cv[0]))
    candidates = candidates[:60]
    for combo in itertools.combinations(candidates, r):
        T = Matrix([list(cv[1]) for cv in combo]).T
        if abs(T.det()) == 1:
            cols = sorted((cv[0] for cv in combo), reverse=True)
            return Matrix([list(c) for c in cols]).T
    raise NonEffectiveGrading(
        f"no nonnegative unimodular representative found; HNF basis = {H.tolist()}"
    )
