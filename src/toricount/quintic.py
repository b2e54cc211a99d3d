"""Quintic 3-folds with a triple line, and their blowup strict transforms.

An instance is the coefficient data (P3, Q3, Q4): two cubics and a quartic in
three variables. They assemble into

* the ambient quintic  x0^2*P3 + x0*x4*Q3 + x4*Q4        (5 variables), and
* its strict transform x0^2*P3 + x0*x4*Q3 + x4*x5*Q4     (6 variables),

where P3, Q3, Q4 are evaluated at (x1, x2, x3). The strict transform is
bihomogeneous of degree (5, 2) for the blowup grading, and composing the
ambient equation with the blowdown map (x0, x5*x1, x5*x2, x5*x3, x4) equals
x5^3 times the strict transform. ``pullback_identity_check`` composes the
polynomials of ``blowdown_images`` and compares canonical forms; equal
canonical polynomials agree at every point, so no point is tried.

Coefficient vectors are read in graded reverse lexicographic order on
(x1, x2, x3); ``monomial_basis`` makes the order explicit (10 cubic
monomials, 15 quartic ones). Instances serialize to JSON with elements
encoded as integers (see ``ff.FieldElement.to_index``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import (
    ArityMismatch,
    FieldMismatch,
    IdentityViolated,
    InvalidParams,
    NotHomogeneous,
)
from .ff import FieldElement, FieldSpec, make_field
from .poly import (
    MultiPoly,
    monomials_of_multidegree,
    multidegree,
    print_poly,
    standard_grading,
    substitute,
)
from .rng import SplitMix64

NONZERO_POLICIES = ("any", "p3_nonzero")


def monomial_basis(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree `degree`, in descending degrevlex order."""
    if nvars < 1 or degree < 0:
        raise InvalidParams("need nvars >= 1 and degree >= 0")
    exps = monomials_of_multidegree(standard_grading(nvars), (degree,))
    return tuple(sorted(exps, key=lambda e: e[::-1]))


def poly_from_coefficients(
    spec: FieldSpec, degree: int, coeffs: Sequence[FieldElement | int]
) -> MultiPoly:
    """Homogeneous 3-variable polynomial from a coefficient vector in basis order."""
    basis = monomial_basis(3, degree)
    if len(coeffs) != len(basis):
        raise ArityMismatch(f"degree {degree} needs {len(basis)} coefficients, got {len(coeffs)}")
    mapping = {}
    for exps, c in zip(basis, coeffs):
        elem = spec.from_index(c) if isinstance(c, int) else c
        if elem.spec != spec:
            raise FieldMismatch(f"coefficient over {elem.spec.name}, expected {spec.name}")
        mapping[exps] = elem
    return MultiPoly.from_dict(3, spec, mapping)


def coefficient_vector(P: MultiPoly, degree: int) -> tuple[FieldElement, ...]:
    """Coefficients of a homogeneous 3-variable polynomial in basis order."""
    if P.nvars != 3:
        raise ArityMismatch(f"expected 3 variables, got {P.nvars}")
    terms = P.as_dict()
    basis = monomial_basis(3, degree)
    leftovers = set(terms) - set(basis)
    if leftovers:
        raise NotHomogeneous(f"monomial {sorted(leftovers)[0]} is not of total degree {degree}")
    spec = P.domain
    return tuple(terms.get(e, spec.zero()) for e in basis)


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------

def _check_part(P: MultiPoly, spec: FieldSpec, degree: int, name: str) -> None:
    if P.nvars != 3:
        raise InvalidParams(f"{name} must have 3 variables, got {P.nvars}")
    if P.domain != spec:
        raise FieldMismatch(f"{name} is over {P.domain.name}, instance field is {spec.name}")
    if not P.is_zero:
        try:
            d = multidegree(P, standard_grading(3))[0]
        except NotHomogeneous:
            raise InvalidParams(f"{name} must be homogeneous of degree {degree} (or zero)") from None
        if d != degree:
            raise InvalidParams(f"{name} has degree {d}, expected {degree}")


@dataclass(frozen=True)
class QuinticInstance:
    """The (P3, Q3, Q4) data of a quintic whose zero locus triples along a line."""

    field: FieldSpec
    p3: MultiPoly
    q3: MultiPoly
    q4: MultiPoly
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_part(self.p3, self.field, 3, "P3")
        _check_part(self.q3, self.field, 3, "Q3")
        _check_part(self.q4, self.field, 4, "Q4")
        if self.p3.is_zero and self.q3.is_zero and self.q4.is_zero:
            raise InvalidParams("P3, Q3, Q4 must not all be zero")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": {"p": self.field.p, "f": self.field.f, "modulus": list(self.field.modulus)},
            "monomial_order": "degrevlex",
            "p3": [c.to_index() for c in coefficient_vector(self.p3, 3)],
            "q3": [c.to_index() for c in coefficient_vector(self.q3, 3)],
            "q4": [c.to_index() for c in coefficient_vector(self.q4, 4)],
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "QuinticInstance":
        try:
            fld = data["field"]
            spec = make_field(int(fld["p"]), int(fld.get("f", 1)))
            if "modulus" in fld and tuple(fld["modulus"]) != spec.modulus:
                raise InvalidParams(
                    f"modulus {fld['modulus']} differs from the canonical modulus {list(spec.modulus)}"
                )
            seed = data.get("seed")
            return QuinticInstance(
                field=spec,
                p3=poly_from_coefficients(spec, 3, [int(c) for c in data["p3"]]),
                q3=poly_from_coefficients(spec, 3, [int(c) for c in data["q3"]]),
                q4=poly_from_coefficients(spec, 4, [int(c) for c in data["q4"]]),
                seed=None if seed is None else int(seed),
            )
        except KeyError as exc:
            raise InvalidParams(f"instance data missing key {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "QuinticInstance":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"bad instance JSON: {exc}") from exc
        return QuinticInstance.from_dict(data)

    def describe(self) -> str:
        lines = [
            f"field: {self.field.name}",
            f"seed: {self.seed}",
            f"P3 = {print_poly(self.p3, names=('x1', 'x2', 'x3'))}",
            f"Q3 = {print_poly(self.q3, names=('x1', 'x2', 'x3'))}",
            f"Q4 = {print_poly(self.q4, names=('x1', 'x2', 'x3'))}",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the two equations and the blowdown map
# --------------------------------------------------------------------------

def _assemble(inst: QuinticInstance, suffixes: Sequence[tuple[int, ...]]) -> MultiPoly:
    """x0^2*P3*m0 + x0*Q3*m1 + Q4*m2, with P3, Q3, Q4 at (x1, x2, x3) and m_k the monomial
    of exponents `suffixes[k]` in the variables after x3.

    The parts' x0 exponents fall 2, 1, 0 and each part's terms are in descending
    lex order, so the concatenated terms are canonical: sorted and distinct.
    """
    parts = (inst.p3, inst.q3, inst.q4)
    terms = tuple(
        ((2 - k,) + e + suffix, c)
        for k, (part, suffix) in enumerate(zip(parts, suffixes))
        for e, c in part.terms
    )
    return MultiPoly(4 + len(suffixes[0]), inst.field, terms)


def ambient_quintic(inst: QuinticInstance) -> MultiPoly:
    """x0^2*P3 + x0*x4*Q3 + x4*Q4 in variables x0..x4 (degree 5)."""
    return _assemble(inst, ((0,), (1,), (1,)))


def strict_transform(inst: QuinticInstance) -> MultiPoly:
    """x0^2*P3 + x0*x4*Q3 + x4*x5*Q4 in variables x0..x5 (bidegree (5, 2))."""
    return _assemble(inst, ((0, 0), (1, 0), (1, 1)))


def blowdown_images(spec: FieldSpec) -> tuple[MultiPoly, ...]:
    """The blowdown (x0, x5*x1, x5*x2, x5*x3, x4), the contraction of the exceptional
    divisor, as polynomials in x0..x5 for symbolic composition."""
    v = [MultiPoly.variable(i, 6, spec) for i in range(6)]
    return (v[0], v[5] * v[1], v[5] * v[2], v[5] * v[3], v[4])


def pullback_identity_check(inst: QuinticInstance) -> bool:
    """Assert ambient ∘ blowdown = x5^3 * strict transform as canonical polynomials."""
    spec = inst.field
    composed = substitute(ambient_quintic(inst), blowdown_images(spec))
    x5cubed = MultiPoly.monomial(6, spec, (0, 0, 0, 0, 0, 3), spec.one())
    if composed != x5cubed * strict_transform(inst):
        raise IdentityViolated(
            "ambient equation composed with the blowdown differs from x5^3 * strict transform "
            f"for instance {inst.to_dict()!r}"
        )
    return True


# --------------------------------------------------------------------------
# seeded generation
# --------------------------------------------------------------------------

def _random_part(spec: FieldSpec, degree: int, rng: SplitMix64) -> MultiPoly:
    n = comb(degree + 2, 2)
    return poly_from_coefficients(spec, degree, [rng.next_below(spec.q) for _ in range(n)])


def random_instance(
    spec: FieldSpec, seed: int, nonzero_policy: str = "any"
) -> QuinticInstance:
    """Deterministic instance from (spec, seed); redraws until the policy holds."""
    if nonzero_policy not in NONZERO_POLICIES:
        raise InvalidParams(f"nonzero_policy must be one of {NONZERO_POLICIES}")
    rng = SplitMix64(seed)
    while True:
        p3 = _random_part(spec, 3, rng)
        q3 = _random_part(spec, 3, rng)
        q4 = _random_part(spec, 4, rng)
        if p3.is_zero and q3.is_zero and q4.is_zero:
            continue
        if nonzero_policy == "p3_nonzero" and p3.is_zero:
            continue
        return QuinticInstance(field=spec, p3=p3, q3=q3, q4=q4, seed=seed)


def random_batch(
    spec: FieldSpec, seed: int, count: int, nonzero_policy: str = "any"
) -> list[QuinticInstance]:
    """`count` independent instances; instance i depends only on (spec, seed, i)."""
    root = SplitMix64(seed)
    return [
        random_instance(spec, root.next_tagged(i), nonzero_policy) for i in range(count)
    ]
