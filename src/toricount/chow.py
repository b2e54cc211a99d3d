"""Exact rational arithmetic in the graded rings A_s = Q[x, v]/(x^(3s+3), (x+v)^(2s+2) v^(s+1)).

For an order with v > x the two relations have the leading terms x^(3s+3)
and v^(3s+3). These are coprime, so the relations are already a Groebner
basis (Buchberger's first criterion; Cox-Little-O'Shea, Ideals, Varieties,
and Algorithms, 2.9), and one division routine answers every question asked
here. A homogeneous class c divides as

    c = x^(3s+3) p + (x+v)^(2s+2) v^(s+1) q + r

with r supported on the standard monomials x^i v^j, i, j <= 3s+2. r is the
normal form; c is in the ideal iff r == 0, and then (p, q) is the cofactor
certificate; the standard monomials give the Hilbert function. The quotient
is Artinian with its one-dimensional socle in degree 6s+4, spanned by
x^(3s+2) v^(3s+2), the normal form of the fundamental class
x^(3s+2) (x+v)^(2s+2) v^s. All of it is exact: the division runs on Python
integers (a class with denominators is scaled by their least common multiple
first) and is integral on integral input.

``tsen_certificate`` packages the existence argument: the section class
(5x + 2v)^E is tested for non-vanishing, and (when the complementary power of
v is nonnegative) the socle coefficient gamma with

    (5x + 2v)^E * v^(6s+4-E)  =  gamma * x^(3s+2) (x+v)^(2s+2) v^s   (mod ideal)

is the coefficient of x^(3s+2) v^(3s+2) in the normal form of the left side.
gamma is an integer (the division keeps integral input integral), and its
sign is reported as data. v is the exceptional class and is not nef, so
nothing fixes the sign of gamma (it is negative for c <= 1); positivity holds
for the pairing with the nef, big class u = x + v instead, which the
acceptance suite checks.

Classes are plain bivariate polynomials (variables x = x0 and v = x1 of the
underlying representation); ``power`` and ``section_class`` never reduce —
only ``is_zero`` / ``normal_form`` consult the relations. The third display
generator u = x + v is eliminated on input and available for output via
``display_xu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import CapExceeded, InvalidParams
from .poly import QQ, MultiPoly, multidegree, print_poly, standard_grading, substitute

#: Largest s accepted. One certificate's division grows about as s^3 to s^4: on a
#: 2-CPU Xeon it took 0.13 s at s = 100, 0.88 s at 200, 6.4 s at 400 and 98 s at 800.
MAX_S = 200

#: Largest summed cost of a ``chow sweep``, (s+1)^3 for each certificate that divides: on
#: the same Xeon, sweeps to s_max = 40, 61 (the largest accepted) and 100 took 0.7, 2 and 7 s.
MAX_SWEEP_COST = 4 * 10**6


# --------------------------------------------------------------------------
# ring spec and classes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChowRingSpec:
    """The ring Q[x, v]/(x^(3s+3), (x+v)^(2s+2) v^(s+1)) for one s >= 0."""

    s: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise InvalidParams(f"s must be >= 0, got {self.s}")
        if self.s > MAX_S:
            raise CapExceeded(f"s = {self.s} exceeds the largest supported s, {MAX_S}")

    @property
    def relation_degree(self) -> int:
        return 3 * self.s + 3

    @property
    def top_degree(self) -> int:
        return 6 * self.s + 4


def class_x() -> MultiPoly:
    return MultiPoly.variable(0, 2, QQ)


def class_v() -> MultiPoly:
    return MultiPoly.variable(1, 2, QQ)


@lru_cache(maxsize=None)
def fundamental_class(spec: ChowRingSpec) -> MultiPoly:
    """x^(3s+2) (x+v)^(2s+2) v^s — spans the socle in degree 6s+4."""
    s = spec.s
    x, v = class_x(), class_v()
    return x ** (3 * s + 2) * (x + v) ** (2 * s + 2) * v ** s


def hyperplane_class(d1: int, d2: int) -> MultiPoly:
    """The degree-1 class d1*x + d2*v (for (5,2): 5x + 2v = 3x + 2u)."""
    if d1 < 0 or d2 < 0 or (d1 == 0 and d2 == 0):
        raise InvalidParams(f"need (d1, d2) >= (0, 0) and not both zero, got ({d1}, {d2})")
    return MultiPoly.from_dict(2, QQ, {(1, 0): d1, (0, 1): d2})


def class_degree(c: MultiPoly) -> int | None:
    """Total degree of a homogeneous class; None for the zero class."""
    if c.nvars != 2 or c.domain is not QQ:
        raise InvalidParams("classes are bivariate polynomials over the rationals")
    if c.is_zero:
        return None
    return multidegree(c, standard_grading(2))[0]  # NotHomogeneous on mixed degrees


def power(a: MultiPoly, n: int) -> MultiPoly:
    if n < 0:
        raise InvalidParams(f"power must be >= 0, got {n}")
    return a ** n


def section_class(E: int, v_shift: int = 0) -> MultiPoly:
    """(5x+2v)^E * v^v_shift, built term by term from the binomial theorem.

    The coefficient of x^(E-j) v^(j+v_shift) is the integer C(E, j) 5^(E-j) 2^j,
    so no polynomial is multiplied.
    """
    if E < 0 or v_shift < 0:
        raise InvalidParams(f"need E >= 0 and v_shift >= 0, got ({E}, {v_shift})")
    return MultiPoly.from_dict(
        2, QQ, {(E - j, j + v_shift): comb(E, j) * 5 ** (E - j) * 2 ** j for j in range(E + 1)}
    )


def display_xv(c: MultiPoly) -> str:
    return print_poly(c, names=("x", "v"))


def display_xu(c: MultiPoly) -> str:
    """The same class written in x and u = x + v (substitute v = u - x)."""
    x = MultiPoly.variable(0, 2, QQ)
    u = MultiPoly.variable(1, 2, QQ)
    return print_poly(substitute(c, [x, u - x]), names=("x", "u"))


# --------------------------------------------------------------------------
# division by the Groebner basis
# --------------------------------------------------------------------------

def _reduce(c: MultiPoly, spec: ChowRingSpec) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Divide a homogeneous class by the relations: (p, q, r) with c = g1 p + g2 q + r.

    With a = 3s+3, g1 = x^a and g2 = (x+v)^(2s+2) v^(s+1) = sum_l C(2s+2, l)
    x^l v^(a-l), whose leading terms for v > x are x^a and v^a. Coprime
    leading terms make (g1, g2) a Groebner basis (Buchberger's first
    criterion), so the remainder r, supported on x^i v^j with i, j < a, is
    unique: r == 0 iff c is in the ideal. g2 is monic in v^a, so integral
    input gives integral p, q and r, and the division runs on the integers
    den * c, den the least common denominator of c's coefficients; p, q and r
    are the quotients of the results by den.
    """
    zero = MultiPoly.zero(2, QQ)
    d = class_degree(c)
    if d is None:
        return zero, zero, zero
    a = spec.relation_degree
    tail = [comb(2 * spec.s + 2, l) for l in range(2 * spec.s + 3)]
    den = lcm(*(coeff.denominator for _, coeff in c.terms))
    vec = [0] * (d + 1)  # vec[j] is den times the coefficient of x^(d-j) v^j
    for (_, j), coeff in c.terms:
        vec[j] = coeff.numerator * (den // coeff.denominator)
    q = {}
    for j in range(d, a - 1, -1):  # subtract t x^(d-j) v^(j-a) g2 to clear v^j
        t = vec[j]
        if t:
            q[(d - j, j - a)] = t
            for l, b in enumerate(tail):
                vec[j - l] -= t * b
    p = {(d - j - a, j): vec[j] for j in range(d - a + 1) if vec[j]}
    r = {(d - j, j): vec[j] for j in range(max(0, d - a + 1), min(d, a - 1) + 1) if vec[j]}
    if den != 1:
        p, q, r = ({e: Fraction(n, den) for e, n in part.items()} for part in (p, q, r))
    return tuple(MultiPoly.from_dict(2, QQ, part) for part in (p, q, r))


@dataclass(frozen=True)
class MembershipResult:
    """Certified verdict: cofactors on membership, else the degree's quotient dimension."""

    in_ideal: bool
    degree: int | None
    cofactors: tuple[MultiPoly, MultiPoly] | None = None
    quotient_dim: int | None = None


def ideal_membership(c: MultiPoly, spec: ChowRingSpec) -> MembershipResult:
    """Exact membership of a homogeneous class in (x^(3s+3), (x+v)^(2s+2)v^(s+1)).

    Membership always comes with cofactors (p, q) reproducing c, including
    above the socle degree where every class is a member.
    """
    D = class_degree(c)
    p, q, r = _reduce(c, spec)
    if r.is_zero:
        return MembershipResult(in_ideal=True, degree=D, cofactors=(p, q))
    return MembershipResult(in_ideal=False, degree=D, quotient_dim=socle_dimension(spec, D))


def is_zero(c: MultiPoly, spec: ChowRingSpec) -> bool:
    return ideal_membership(c, spec).in_ideal


def normal_form(c: MultiPoly, spec: ChowRingSpec) -> MultiPoly:
    """Canonical representative: the remainder of c on division by the Groebner basis.

    It is the unique representative supported on the standard monomials
    x^i v^j with i, j <= 3s+2, so two classes are equal in A_s iff their
    normal forms are.
    """
    return _reduce(c, spec)[2]


def socle_dimension(spec: ChowRingSpec, degree: int | None = None) -> int:
    """Dimension of the degree-d graded piece of the quotient (default: top degree).

    The standard monomials of the Groebner basis form a basis of A_s, so this
    counts the x^i v^(d-i) with i, d-i <= 3s+2: the Hilbert function of
    (1 + t + ... + t^(3s+2))^2.
    """
    D = spec.top_degree if degree is None else degree
    if D < 0:
        raise InvalidParams(f"degree must be >= 0, got {D}")
    a = spec.relation_degree
    return max(0, min(D, a - 1) - max(0, D - a + 1) + 1)


# --------------------------------------------------------------------------
# the existence certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TsenCertificate:
    """Non-vanishing verdict for (5x+2v)^E in A_s plus the socle coefficient.

    Only s, c, E, default_E, nonzero, gamma and socle_dim are stored; the
    other fields of ``to_dict`` are read-only properties derived from them:
    within_socle (E <= 6s+4, the top degree), gamma_positive (None without
    gamma), equations (E) and unknowns (6s+6). gamma is an int, or None
    when 6s+4-E < 0.
    """

    s: int
    c: int
    E: int
    default_E: bool
    nonzero: bool
    gamma: int | None
    socle_dim: int

    @property
    def within_socle(self) -> bool:
        return self.E <= 6 * self.s + 4

    @property
    def gamma_positive(self) -> bool | None:
        return None if self.gamma is None else self.gamma > 0

    @property
    def equations(self) -> int:
        return self.E

    @property
    def unknowns(self) -> int:
        return 6 * self.s + 6

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "c": self.c,
            "E": self.E,
            "default_E": self.default_E,
            "nonzero": self.nonzero,
            "within_socle": self.within_socle,
            "gamma": self.gamma,
            "gamma_positive": self.gamma_positive,
            "equations": self.equations,
            "unknowns": self.unknowns,
            "socle_dim": self.socle_dim,
        }


def tsen_certificate(s: int, c: int, E_override: int | None = None) -> TsenCertificate:
    """Certify (5x+2v)^E != 0 in A_s and extract gamma from the socle.

    E defaults to 5s+c+1. gamma is defined by
    (5x+2v)^E * v^(6s+4-E) = gamma * fundamental_class (mod ideal) and is
    extracted whenever the v-exponent 6s+4-E is nonnegative, else None.
    Both classes are formed from their binomial coefficients
    (``section_class``). Above the top degree A_s is zero, so the power is
    not formed there.
    """
    if s < 0 or c < 0:
        raise InvalidParams(f"need s >= 0 and c >= 0, got ({s}, {c})")
    E = 5 * s + c + 1 if E_override is None else E_override
    if E <= 0:
        raise InvalidParams(f"exponent E must be >= 1, got {E}")
    spec = ChowRingSpec(s)
    nonzero, gamma = False, None
    if E <= spec.top_degree:
        nonzero = not is_zero(section_class(E), spec)
        gamma = _socle_coefficient(section_class(E, spec.top_degree - E), spec)
    return TsenCertificate(
        s=s,
        c=c,
        E=E,
        default_E=E_override is None,
        nonzero=nonzero,
        gamma=gamma,
        socle_dim=socle_dimension(spec),
    )


def _socle_coefficient(target: MultiPoly, spec: ChowRingSpec) -> int:
    """The gamma with target = gamma * fundamental_class (mod ideal), target of degree 6s+4.

    The target is integral, and the division keeps integral input integral.
    """
    return int(normal_form(target, spec).as_dict().get(_socle_monomial(spec), 0))


@lru_cache(maxsize=None)
def _socle_monomial(spec: ChowRingSpec) -> tuple[int, int]:
    """(3s+2, 3s+2): the exponents of the normal form of the fundamental class.

    The top degree has one standard monomial, x^(3s+2) v^(3s+2), and it is
    the normal form of the fundamental class: every other term of
    x^(3s+2) (x+v)^(2s+2) v^s is divisible by x^(3s+3). That is checked once
    per ring.
    """
    socle = (spec.relation_degree - 1,) * 2
    assert normal_form(fundamental_class(spec), spec).as_dict() == {socle: 1}
    return socle
