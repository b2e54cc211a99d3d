import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toricount.errors import (
    ArityMismatch,
    CapExceeded,
    CoefficientNotInDomain,
    DegreeZeroGrading,
    NotHomogeneous,
    PolyParseError,
    UnknownVariable,
    ZeroPolynomial,
)
from toricount.fan import builtin, weighted_space
from toricount.ff import make_field
from toricount.poly import (
    MAX_POWER_TERMS,
    QQ,
    MultiPoly,
    ax_exponent,
    classical_ax_exponent,
    degree_bounds,
    monomials_of_multidegree,
    multidegree,
    parse,
    print_poly,
    random_homogeneous,
    standard_grading,
    substitute,
    total_generator_degree,
)
from toricount.rng import SplitMix64

from oracles import eval_poly, scaling_character

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

BLOWUP = builtin("blowup_p4_line").grading


# ---------------------------------------------------------------------------
# construction and arithmetic
# ---------------------------------------------------------------------------

def test_terms_canonical_order_and_dedup():
    P = MultiPoly.from_dict(2, QQ, {(1, 0): 2, (0, 1): 3})
    Q = MultiPoly.from_dict(2, QQ, {(0, 1): 3, (1, 0): 2})
    assert P == Q
    assert P.terms[0][0] == (1, 0)  # descending lex
    assert MultiPoly.from_dict(1, QQ, {(1,): 0}).is_zero


def test_arithmetic_over_field():
    x0 = MultiPoly.variable(0, 2, F3)
    x1 = MultiPoly.variable(1, 2, F3)
    P = (x0 + x1) ** 3
    # freshman's dream in characteristic 3
    assert P == x0 ** 3 + x1 ** 3
    assert (P - P).is_zero
    assert x0 * 0 == MultiPoly.zero(2, F3)


def test_scalar_coercion():
    x = MultiPoly.variable(0, 1, QQ)
    P = x * Fraction(1, 2) + 3
    assert P.as_dict() == {(1,): Fraction(1, 2), (0,): Fraction(3)}


@given(st.integers(0, 4), st.integers(0, 4))
def test_power_matches_repeated_multiplication(a, b):
    x0 = MultiPoly.variable(0, 2, F5)
    x1 = MultiPoly.variable(1, 2, F5)
    P = x0 + 2 * x1 + 1
    acc = MultiPoly.constant(2, F5, 1)
    for _ in range(a):
        acc = acc * P
    assert P ** a == acc
    assert P ** (a + b) == P ** a * P ** b


# ---------------------------------------------------------------------------
# gradings and degrees
# ---------------------------------------------------------------------------

def test_multidegree_blowup():
    P = parse("x0^2*x1^3 + x0*x1^2*x2*x4 + x1^4*x4*x5", 6, F2)
    assert multidegree(P, BLOWUP) == (5, 2)
    assert degree_bounds(P, BLOWUP) == (5, 2)


def test_multidegree_errors():
    with pytest.raises(ZeroPolynomial):
        multidegree(MultiPoly.zero(2, F2), standard_grading(2))
    err = None
    try:
        multidegree(parse("x0^2 + x1", 2, F2), standard_grading(2))
    except NotHomogeneous as exc:
        err = str(exc)
    assert err and "x0^2" in err and "x1" in err  # names the two offending monomials
    with pytest.raises(ArityMismatch):
        multidegree(parse("x0", 1, F2), standard_grading(2))


def test_degree_bounds_inhomogeneous():
    # y^2 - quintic under weights (1,1,1,1,1,2): bounds are the max per component
    W = builtin("weighted(1,1,1,1,1,2)").grading
    P = parse("x5^2 - (x0^5 + x1^4*x2)", 6, F3)
    with pytest.raises(NotHomogeneous):
        multidegree(P, W)
    assert degree_bounds(P, W) == (5,)
    assert total_generator_degree(W) == (7,)


def test_multidegree_multiplicativity():
    rng = SplitMix64(11)
    for _ in range(10):
        P = random_homogeneous(BLOWUP, (5, 2), F3, rng)
        Q = random_homogeneous(BLOWUP, (1, 1), F3, rng)
        assert multidegree(P * Q, BLOWUP) == (6, 3)


def test_ax_exponent():
    assert ax_exponent(BLOWUP, (5, 2)) == 1  # ceil((3-2)/2) = 1 dominates ceil(0/5)
    assert ax_exponent(standard_grading(5), (3,)) == 1
    assert ax_exponent(standard_grading(5), (1,)) == 4
    assert ax_exponent(standard_grading(3), (5,)) == 0
    # zero components are skipped; all-zero degree is an error
    with pytest.raises(DegreeZeroGrading):
        ax_exponent(BLOWUP, (0, 0))
    assert classical_ax_exponent(5, 3) == 1
    assert classical_ax_exponent(6, 5) == 0
    with pytest.raises(DegreeZeroGrading):
        classical_ax_exponent(4, 0)


def test_monomials_of_multidegree():
    monos = monomials_of_multidegree(BLOWUP, (5, 2))
    assert len(monos) == 81
    # every exponent of multidegree (5, 2) is at most 5, so the box 0..5 holds them all
    box = itertools.product(range(6), repeat=6)
    assert monos == tuple(sorted(
        (e for e in box if multidegree(MultiPoly.monomial(6, F2, e, F2.one()), BLOWUP) == (5, 2)),
        reverse=True,
    ))
    assert len(monomials_of_multidegree(standard_grading(5), (5,))) == 126


def test_monomial_listing_is_bounded():
    # weighted(2,2,2,2) has no monomial of odd degree, and once listed all ~C(103, 3)
    # exponent prefixes of degree 201 to find none (11 s); projective(3) has C(83, 3)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match=f"take more than {4 * MAX_POWER_TERMS} steps"):
        monomials_of_multidegree(weighted_space(2, 2, 2, 2).grading, (201,))
    with pytest.raises(CapExceeded, match=f"has more than {MAX_POWER_TERMS} monomials"):
        monomials_of_multidegree(standard_grading(4), (80,))
    assert time.monotonic() - start < 1.0
    # the highest degree of standard_grading(3) under the bound, and a solved last exponent
    assert len(monomials_of_multidegree(standard_grading(3), (43,))) == 990
    assert monomials_of_multidegree(weighted_space(1, 2, 3).grading, (4,)) == (
        (4, 0, 0), (2, 1, 0), (1, 0, 1), (0, 2, 0)
    )


# ---------------------------------------------------------------------------
# evaluation / substitution / scaling
# ---------------------------------------------------------------------------

def test_evaluate_basics():
    # evaluation at a point is substitution of constants
    P = parse("x0*x1 + t", 2, F4)
    t = F4.gen()
    assert eval_poly(P, [t, t]) == t * t + t
    point = [MultiPoly.constant(1, F4, t)] * 2
    assert substitute(P, point) == MultiPoly.constant(1, F4, t * t + t)


def test_zero_power_zero_is_one():
    P = MultiPoly.monomial(1, F3, (0,), F3.one())
    assert eval_poly(P, [F3.zero()]) == F3.one()
    assert substitute(P, [MultiPoly.zero(1, F3)]) == MultiPoly.constant(1, F3, 1)


def test_substitute_respects_evaluation():
    rng = SplitMix64(3)
    P = random_homogeneous(standard_grading(3), (2,), F5, rng)
    imgs = [random_homogeneous(standard_grading(2), (2,), F5, rng) for _ in range(3)]
    comp = substitute(P, imgs)
    for a in range(5):
        for b in range(5):
            pt = [F5.from_index(a), F5.from_index(b)]
            inner = [eval_poly(img, pt) for img in imgs]
            assert eval_poly(comp, pt) == eval_poly(P, inner)


def test_scaling_character_equality():
    rng = SplitMix64(17)
    P = random_homogeneous(BLOWUP, (5, 2), F5, rng)
    for trial in range(5):
        mu = [F5.from_index(rng.next_below(4) + 1) for _ in range(2)]
        pt = [F5.from_index(rng.next_below(5)) for _ in range(6)]
        lhs, rhs = scaling_character(P, BLOWUP, mu, pt)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# parse / print round trips
# ---------------------------------------------------------------------------

CASES = [
    ("0", 3, F2),
    ("1", 3, F2),
    ("x0*x1 + x2^2", 3, F2),
    ("2*x0^3 + x1*x2 + 1", 3, F3),
    ("(t + 1)*x0^2 + t*x1", 2, F4),
    ("x0^5 + x0*x1*x2*x3*x4", 5, F2),
]


@pytest.mark.parametrize("text,nvars,dom", CASES)
def test_round_trip_from_text(text, nvars, dom):
    P = parse(text, nvars, dom)
    assert parse(print_poly(P), nvars, dom) == P


def test_print_canonical_forms():
    assert print_poly(MultiPoly.zero(2, F2)) == "0"
    assert print_poly(parse("x1 + x0", 2, F3)) == "x0 + x1"
    assert print_poly(parse("-3/2*x0^2 + x1 - 7", 2, QQ)) == "-3/2*x0^2 + x1 - 7"
    P = parse("(t+1)*x0*x1", 2, F4)
    assert print_poly(P) == "(t + 1)*x0*x1"


@st.composite
def random_poly(draw):
    spec = draw(st.sampled_from([F2, F3, F4, F5]))
    nvars = draw(st.integers(1, 4))
    nterms = draw(st.integers(0, 5))
    mapping = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        coeff = spec.from_index(draw(st.integers(0, spec.q - 1)))
        mapping[exps] = coeff
    return MultiPoly.from_dict(nvars, spec, mapping)


@given(random_poly())
def test_round_trip_random(P):
    assert parse(print_poly(P), P.nvars, P.domain) == P


def test_parse_errors_with_positions():
    with pytest.raises(PolyParseError) as ei:
        parse("x0 + ", 2, F2)
    assert ei.value.position == 5
    with pytest.raises(UnknownVariable):
        parse("x9", 2, F2)
    with pytest.raises(CoefficientNotInDomain):
        parse("1/2*x0", 2, F3)  # '/' only means something over the rationals
    with pytest.raises(PolyParseError):
        parse("t*x0", 2, F3)  # 't' needs an extension field
    with pytest.raises(PolyParseError):
        parse("x0 ++ x1", 2, F2)
    assert parse("1/2*x0", 1, QQ).as_dict() == {(1,): Fraction(1, 2)}
    # past Python's 4300-digit limit int() raises ValueError; the parser names the position
    digits = "9" * 5000
    for text, position in ((f"x0^{digits}", 3), (f"x{digits}", 1), (f"x0 + {digits}", 5)):
        with pytest.raises(PolyParseError) as ei:
            parse(text, 2, F2)
        assert ei.value.position == position and "too many digits" in str(ei.value)


def test_parsed_power_is_bounded_before_it_expands(monkeypatch):
    # over QQ no multinomial coefficient vanishes, so base^e has every term the bound allows
    assert len(parse("(x0+x1+x2)^40", 3, QQ).terms) == 861 <= MAX_POWER_TERMS
    # 6 terms to the 10th: C(15, 10) = 3003 multisets, but C(2+20, 2) = 231 monomials
    assert len(parse("(1 + x0 + x1 + x0^2 + x0*x1 + x1^2)^10", 2, QQ).terms) == 231
    assert parse("(x0 - x0)^100000", 1, QQ).is_zero and parse("0^0", 1, QQ) == parse("1", 1, QQ)
    expanded = []
    monkeypatch.setattr(MultiPoly, "__pow__", lambda *a: expanded.append(a))
    for text, bound in (("(x0+x1+x2)^60", 1891), ("(x0+x1+x2)^100", 5151), ("(x0+1)^1000", 1001),
                        ("x0*(x1 + x2 + 1)^999", 500500)):
        with pytest.raises(CapExceeded, match=f"expand to {bound} terms, past {MAX_POWER_TERMS}"):
            parse(text, 3, QQ)
    assert expanded == []


def test_parsed_product_is_bounded_before_it_expands(monkeypatch):
    # a product of t1 and t2 terms of degrees d1, d2 in n variables has at most
    # min(t1*t2, C(n+d1+d2, n)) terms
    assert len(parse("(x0+x1+x2)^20*(x0+x1)", 3, QQ).terms) == 252  # 462 and 2024
    assert len(parse("(x0+1)^30*(x0+1)^30", 1, QQ).terms) == 61  # 961 and 61
    assert len(parse("(x0+x1+x2)^10*(x0+x1+x2)^5", 3, QQ).terms) == 136  # 1386 and 816
    real = MultiPoly.__mul__
    products = []
    monkeypatch.setattr(
        MultiPoly, "__mul__", lambda a, b: products.append((len(a.terms), len(b.terms))) or real(a, b)
    )
    for text, bound in (("(x0+x1+x2)^20*(x0+x1+x2)^20", 12341),
                        ("(x0+x1+x2)^10*(x0+x1+x2)^5*(x0+x1+x2)^5", 1771)):
        with pytest.raises(CapExceeded, match=f"a product may expand to {bound} terms, past"):
            parse(text, 3, QQ)
    assert (231, 231) not in products and (136, 21) not in products


def test_parse_parenthesized_and_unary_minus():
    P = parse("-(x0 - x1)^2 + 2", 2, QQ)
    assert P == parse("-x0^2 + 2*x0*x1 - x1^2 + 2", 2, QQ)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def test_random_homogeneous_deterministic():
    a = random_homogeneous(BLOWUP, (5, 2), F3, SplitMix64(9))
    b = random_homogeneous(BLOWUP, (5, 2), F3, SplitMix64(9))
    assert a == b and not a.is_zero
    assert multidegree(a, BLOWUP) == (5, 2)


def test_random_homogeneous_spread():
    polys = {random_homogeneous(standard_grading(3), (2,), F5, SplitMix64(s)) for s in range(20)}
    assert len(polys) > 15
