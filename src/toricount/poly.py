"""Exact sparse multivariate polynomials over a pluggable coefficient domain.

Supported domains: a finite field (:class:`~toricount.ff.FieldSpec`) and the
rationals ``QQ`` (exact :class:`fractions.Fraction`).
Polynomials are immutable term maps in canonical form (terms sorted in
descending lexicographic order of exponent vectors, no zero coefficients), so
structural equality is mathematical equality.

Degrees are taken relative to a :class:`~toricount.fan.GradingData`:
``multidegree`` requires every term to share one degree vector, while
``degree_bounds`` returns the componentwise maximum over terms — the quantity
the divisibility theorems actually consume, which is why the congruence
checks accept inhomogeneous inputs such as y^2 - P(x) under a weighted
grading.

Text grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := nat ['/' nat]        # '/' only over QQ
            | 'x' nat              # variables x0..x{nvars-1}
            | 't'                  # extension-field generator
            | '(' expr ')'

``parse(print(P)) == P`` holds for every canonical polynomial. A power or
product is refused before it expands when a bound on its terms passes
``MAX_POWER_TERMS``, and a number past Python's digit limit is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .errors import (
    ArityMismatch,
    CapExceeded,
    CoefficientNotInDomain,
    DegreeZeroGrading,
    FieldMismatch,
    InvalidParams,
    NotHomogeneous,
    PolyParseError,
    UnknownVariable,
    ZeroPolynomial,
)
from .fan import GradingData
from .ff import FieldElement, FieldSpec
from .rng import SplitMix64

MultiDegree = tuple[int, ...]

#: Most terms a parsed power or product may expand to. (x0+x1+x2)^40 (861 terms)
#: parsed in 0.6 s on a 2-CPU Xeon over GF(101), ^60 (1891 terms) in 3.7 s.
MAX_POWER_TERMS = 1000


# --------------------------------------------------------------------------
# coefficient domains
# --------------------------------------------------------------------------

class _Rationals:
    """Singleton domain tag for exact rational coefficients."""

    name = "QQ"

    def __repr__(self) -> str:
        return "QQ"


QQ = _Rationals()

Domain = FieldSpec | _Rationals


def domain_one(domain: Domain):
    return domain.one() if isinstance(domain, FieldSpec) else Fraction(1)


def domain_coerce(domain: Domain, value):
    """Coerce an int / Fraction / FieldElement into the domain, checking membership."""
    if isinstance(domain, FieldSpec):
        if isinstance(value, FieldElement):
            if value.spec != domain:
                raise FieldMismatch(f"{value.spec.name} coefficient in {domain.name} polynomial")
            return value
        if isinstance(value, int):
            return domain.from_int(value)
        raise InvalidParams(f"cannot coerce {value!r} into {domain.name}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise InvalidParams(f"cannot coerce {value!r} into QQ")


def _is_zero_coeff(c) -> bool:
    if isinstance(c, FieldElement):
        return c.is_zero
    return c == 0


# --------------------------------------------------------------------------
# the polynomial type
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiPoly:
    """Sparse exact polynomial in nvars variables over `domain`, canonical form."""

    nvars: int
    domain: Domain
    terms: tuple[tuple[tuple[int, ...], object], ...]  # ((exponents, coeff), ...) desc-lex

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_dict(nvars: int, domain: Domain, mapping: Mapping[tuple[int, ...], object]) -> "MultiPoly":
        clean: dict[tuple[int, ...], object] = {}
        for exps, coeff in mapping.items():
            e = tuple(int(x) for x in exps)
            if len(e) != nvars:
                raise InvalidParams(f"exponent vector {e} has length {len(e)}, expected {nvars}")
            if any(x < 0 for x in e):
                raise InvalidParams(f"negative exponent in {e}")
            c = domain_coerce(domain, coeff)
            if e in clean:
                c = clean[e] + c
            if _is_zero_coeff(c):
                clean.pop(e, None)
            else:
                clean[e] = c
        ordered = tuple(sorted(clean.items(), key=lambda kv: kv[0], reverse=True))
        return MultiPoly(nvars=nvars, domain=domain, terms=ordered)

    @staticmethod
    def zero(nvars: int, domain: Domain) -> "MultiPoly":
        return MultiPoly(nvars=nvars, domain=domain, terms=())

    @staticmethod
    def constant(nvars: int, domain: Domain, value) -> "MultiPoly":
        return MultiPoly.from_dict(nvars, domain, {(0,) * nvars: value})

    @staticmethod
    def variable(index: int, nvars: int, domain: Domain) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise UnknownVariable(f"x{index} out of range (nvars={nvars})", 0)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return MultiPoly.from_dict(nvars, domain, {exps: domain_one(domain)})

    @staticmethod
    def monomial(nvars: int, domain: Domain, exps: Sequence[int], coeff) -> "MultiPoly":
        return MultiPoly.from_dict(nvars, domain, {tuple(exps): coeff})

    # -- basic structure -------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, ...], object]:
        return dict(self.terms)

    def _compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars or self.domain != other.domain:
            raise ArityMismatch(
                f"incompatible polynomials: {self.nvars} vars over {self.domain.name} "
                f"vs {other.nvars} vars over {other.domain.name}"
            )

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        self._compatible(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e)
            s = c if s is None else s + c
            if _is_zero_coeff(s):
                acc.pop(e, None)
            else:
                acc[e] = s
        return MultiPoly(self.nvars, self.domain, tuple(sorted(acc.items(), key=lambda kv: kv[0], reverse=True)))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, self.domain, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        self._compatible(other)
        acc: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = acc.get(e)
                s = c if s is None else s + c
                if _is_zero_coeff(s):
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return MultiPoly(self.nvars, self.domain, tuple(sorted(acc.items(), key=lambda kv: kv[0], reverse=True)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise InvalidParams("polynomial exponent must be an integer >= 0")
        result = MultiPoly.constant(self.nvars, self.domain, domain_one(self.domain))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            return other
        try:
            return MultiPoly.constant(self.nvars, self.domain, other)
        except (InvalidParams, FieldMismatch):
            return NotImplemented

    def __str__(self) -> str:
        return print_poly(self)


# --------------------------------------------------------------------------
# degrees
# --------------------------------------------------------------------------

def _term_degree(exps: Sequence[int], grading: GradingData) -> MultiDegree:
    return tuple(
        sum(e * grading.weights[i][j] for i, e in enumerate(exps))
        for j in range(grading.r)
    )


def multidegree(P: MultiPoly, grading: GradingData) -> MultiDegree:
    """Common degree vector of all terms; raises on zero or mixed-degree input."""
    if P.nvars != grading.rho:
        raise ArityMismatch(f"polynomial has {P.nvars} vars, grading expects {grading.rho}")
    if P.is_zero:
        raise ZeroPolynomial("the zero polynomial has every multidegree")
    degs = [(_term_degree(e, grading), e) for e, _ in P.terms]
    first_deg, first_exp = degs[0]
    for d, e in degs[1:]:
        if d != first_deg:
            raise NotHomogeneous(
                f"terms {_monomial_str(first_exp)} (degree {first_deg}) and "
                f"{_monomial_str(e)} (degree {d}) differ"
            )
    return first_deg


def degree_bounds(P: MultiPoly, grading: GradingData) -> MultiDegree:
    """Componentwise maximum term degree — the support bound the theorems use."""
    if P.nvars != grading.rho:
        raise ArityMismatch(f"polynomial has {P.nvars} vars, grading expects {grading.rho}")
    bounds = [0] * grading.r
    for e, _ in P.terms:
        d = _term_degree(e, grading)
        for j in range(grading.r):
            bounds[j] = max(bounds[j], d[j])
    return tuple(bounds)


def standard_grading(nvars: int) -> GradingData:
    """The rank-1 grading deg x_i = 1 (ordinary total degree)."""
    return GradingData(weights=((1,),) * nvars)


def total_generator_degree(grading: GradingData) -> MultiDegree:
    """Column sums of the weight matrix: deg x_1 + ... + deg x_rho."""
    return tuple(
        sum(grading.weights[i][j] for i in range(grading.rho)) for j in range(grading.r)
    )


def ax_exponent(grading: GradingData, d: MultiDegree) -> int:
    """Divisibility exponent mu = max_j ceil((a_j - d_j)/d_j), floored at 0.

    Components with d_j = 0 are excluded from the max (the bound is about the
    grading directions the polynomial actually moves in).
    """
    if len(d) != grading.r:
        raise InvalidParams(f"degree vector has {len(d)} entries, grading rank is {grading.r}")
    if any(x < 0 for x in d):
        raise InvalidParams(f"negative multidegree {d}")
    a = total_generator_degree(grading)
    included = [j for j in range(grading.r) if d[j] >= 1]
    if not included:
        raise DegreeZeroGrading("every multidegree component is zero")
    mu = max(-((d[j] - a[j]) // d[j]) for j in included)  # ceil((a-d)/d)
    return max(0, mu)


def classical_ax_exponent(nvars: int, total_degree: int) -> int:
    """The classical single-grading bound ceil((n - d)/d) for zeros in k^{n+1}."""
    if total_degree < 1:
        raise DegreeZeroGrading("total degree must be >= 1")
    n = nvars - 1
    return max(0, -((total_degree - n) // total_degree))


# --------------------------------------------------------------------------
# substitution
# --------------------------------------------------------------------------

def substitute(P: MultiPoly, images: Sequence[MultiPoly]) -> MultiPoly:
    """Exact composed polynomial P(images[0], ..., images[nvars-1])."""
    if len(images) != P.nvars:
        raise ArityMismatch(f"{len(images)} images for {P.nvars} variables")
    if not images:
        raise ArityMismatch("substitution needs at least one variable")
    m, dom = images[0].nvars, images[0].domain
    for img in images:
        if img.nvars != m or img.domain != dom:
            raise ArityMismatch("images disagree on variable count or domain")
    if P.domain != dom:
        raise ArityMismatch(
            f"polynomial domain {P.domain.name} differs from image domain {dom.name}"
        )
    result = MultiPoly.zero(m, dom)
    pow_cache: dict[tuple[int, int], MultiPoly] = {}

    def image_power(i: int, e: int) -> MultiPoly:
        key = (i, e)
        if key not in pow_cache:
            pow_cache[key] = images[i] ** e
        return pow_cache[key]

    for exps, coeff in P.terms:
        acc = MultiPoly.constant(m, dom, coeff)
        for i, e in enumerate(exps):
            if e:
                acc = acc * image_power(i, e)
        result = result + acc
    return result


# --------------------------------------------------------------------------
# monomial enumeration and seeded random polynomials
# --------------------------------------------------------------------------

def monomials_of_multidegree(grading: GradingData, d: MultiDegree) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of exact multidegree d, descending lex (deterministic).

    The last exponent is solved for, not searched. CapExceeded is raised past
    MAX_POWER_TERMS monomials or rho * MAX_POWER_TERMS exponent prefixes.
    """
    if len(d) != grading.r:
        raise InvalidParams(f"degree vector has {len(d)} entries, grading rank is {grading.r}")
    for i in range(grading.rho):
        if all(w == 0 for w in grading.weights[i]):
            raise InvalidParams(f"variable x{i} has zero weight; exponents unbounded")
    out: list[tuple[int, ...]] = []
    steps = iter(range(grading.rho * MAX_POWER_TERMS))

    def rec(i: int, rem: tuple[int, ...], prefix: tuple[int, ...]) -> None:
        if next(steps, None) is None:
            raise CapExceeded(f"the monomials of multidegree {tuple(d)} take more than "
                              f"{grading.rho * MAX_POWER_TERMS} steps to list")
        w = grading.weights[i]
        e_max = min(rem[j] // w[j] for j in range(grading.r) if w[j] > 0)
        if i < grading.rho - 1:
            for e in range(e_max + 1):
                rec(i + 1, tuple(rem[j] - e * w[j] for j in range(grading.r)), prefix + (e,))
        elif all(x == e_max * wj for x, wj in zip(rem, w)):
            out.append(prefix + (e_max,))
            if len(out) > MAX_POWER_TERMS:
                raise CapExceeded(f"multidegree {tuple(d)} has more than {MAX_POWER_TERMS} monomials")

    if not grading.rho:
        return ((),)
    if all(x >= 0 for x in d):
        rec(0, tuple(d), ())
    return tuple(sorted(out, reverse=True))


def random_homogeneous(
    grading: GradingData,
    d: MultiDegree,
    spec: FieldSpec,
    rng: SplitMix64,
) -> MultiPoly:
    """Seeded nonzero random polynomial with support in the multidegree-d monomials."""
    monos = monomials_of_multidegree(grading, d)
    if not monos:
        raise InvalidParams(f"no monomials of multidegree {d} under this grading")
    while True:
        coeffs = {m: spec.from_index(rng.next_below(spec.q)) for m in monos}
        P = MultiPoly.from_dict(grading.rho, spec, coeffs)
        if not P.is_zero:
            return P


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

def _monomial_str(exps: Sequence[int], names: Sequence[str] | None = None) -> str:
    parts = []
    for i, e in enumerate(exps):
        name = names[i] if names is not None else f"x{i}"
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _coeff_str(c, for_product: bool) -> tuple[str, bool]:
    """(text, negative_sign_extracted); parenthesizes multi-term field elements."""
    if isinstance(c, FieldElement):
        if c.spec.f == 1:
            return str(c.coeffs[0]), False
        nonzero = [i for i, x in enumerate(c.coeffs) if x]
        text = str(c)
        if len(nonzero) > 1 and for_product:
            return f"({text})", False
        return text, False
    neg = c < 0
    c = -c if neg else c
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}", neg
    return str(int(c)), neg


def print_poly(P: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Canonical text form; parse(print_poly(P)) == P for the default names."""
    if P.is_zero:
        return "0"
    if names is not None and len(names) != P.nvars:
        raise ArityMismatch(f"{len(names)} names for {P.nvars} variables")
    pieces: list[tuple[bool, str]] = []
    one = domain_one(P.domain)
    for exps, coeff in P.terms:
        mono = _monomial_str(exps, names)
        if mono == "1":
            text, neg = _coeff_str(coeff, for_product=False)
            pieces.append((neg, text))
            continue
        if coeff == one:
            pieces.append((False, mono))
            continue
        text, neg = _coeff_str(coeff, for_product=True)
        pieces.append((neg, f"{text}*{mono}"))
    out = []
    for k, (neg, text) in enumerate(pieces):
        if k == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    return " ".join(out)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, nvars: int, domain: Domain):
        self.text = text
        self.nvars = nvars
        self.domain = domain
        self.pos = 0

    # -- lexer helpers ---------------------------------------------------------
    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise PolyParseError(f"expected {ch!r}", self.pos, self.text)
        self.pos += 1

    def _nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start, self.text)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past Python's limit on the digits of an int
            raise PolyParseError("number has too many digits", start, self.text) from None

    # -- grammar ---------------------------------------------------------------
    def parse(self) -> MultiPoly:
        result = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolyParseError("unexpected trailing input", self.pos, self.text)
        return result

    def expr(self) -> MultiPoly:
        negate = False
        if self._peek() == "-":
            self.pos += 1
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                result = result + self.term()
            elif ch == "-":
                self.pos += 1
                result = result - self.term()
            else:
                return result

    def term(self) -> MultiPoly:
        result = self.factor()
        while self._peek() == "*":
            self.pos += 1
            factor = self.factor()
            if result.terms and factor.terms:  # a product of t1 and t2 terms has at most t1*t2
                d = sum(max(map(sum, (exps for exps, _ in P.terms))) for P in (result, factor))
                _check_terms("product", len(result.terms) * len(factor.terms), (result, factor), d)
            result = result * factor
        return result

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self._peek() != "^":
            return base
        self.pos += 1
        e = self._nat()
        if base.terms:
            # base^e has at most C(t+e-1, e) terms, the multisets of e of its t terms
            d = max(map(sum, (exps for exps, _ in base.terms)))
            _check_terms("power", comb(len(base.terms) + e - 1, e), (base,), e * d)
        return base ** e

    def atom(self) -> MultiPoly:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self._expect(")")
            return inner
        if ch == "x":
            self.pos += 1
            idx = self._nat()
            if idx >= self.nvars:
                raise UnknownVariable(
                    f"variable x{idx} out of range (nvars={self.nvars})", start, self.text
                )
            return MultiPoly.variable(idx, self.nvars, self.domain)
        if ch == "t":
            self.pos += 1
            if not (isinstance(self.domain, FieldSpec) and self.domain.f > 1):
                raise CoefficientNotInDomain(
                    f"generator t is not an element of {self.domain.name}", start, self.text
                )
            return MultiPoly.constant(self.nvars, self.domain, self.domain.gen())
        if ch.isdigit():
            num = self._nat()
            if self._peek() == "/":
                if self.domain is not QQ:
                    raise CoefficientNotInDomain(
                        f"fractions are not elements of {self.domain.name}",
                        self.pos,
                        self.text,
                    )
                self.pos += 1
                den = self._nat()
                if den == 0:
                    raise PolyParseError("zero denominator", start, self.text)
                return MultiPoly.constant(self.nvars, self.domain, Fraction(num, den))
            return MultiPoly.constant(self.nvars, self.domain, num)
        raise PolyParseError("expected a coefficient, variable, or '('", self.pos, self.text)


def _check_terms(what: str, terms: int, polys: Sequence[MultiPoly], degree: int) -> None:
    """Refuse a `what` of at most `terms` terms and at most C(n+degree, n), the monomials of
    degree <= `degree` in the n variables of `polys`, when both pass MAX_POWER_TERMS."""
    n = sum(map(any, zip(*(exps for P in polys for exps, _ in P.terms))))
    if (bound := min(terms, comb(n + degree, n))) > MAX_POWER_TERMS:
        raise CapExceeded(f"a {what} may expand to {bound} terms, past {MAX_POWER_TERMS}")


def parse(text: str, nvars: int, domain: Domain) -> MultiPoly:
    """Parse the documented grammar into a canonical MultiPoly."""
    return _Parser(text, nvars, domain).parse()
