import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricount.chow import (
    MAX_S,
    ChowRingSpec,
    TsenCertificate,
    class_degree,
    class_v,
    class_x,
    display_xu,
    display_xv,
    fundamental_class,
    hyperplane_class,
    ideal_membership,
    is_zero,
    normal_form,
    power,
    section_class,
    socle_dimension,
    tsen_certificate,
)
from toricount.cli import EXIT_INPUT, EXIT_PASS, main
from toricount.errors import CapExceeded, InvalidParams, NotHomogeneous
from toricount.poly import QQ, MultiPoly, parse
from toricount.rng import SplitMix64

from oracles import (
    check_cofactors,
    class_u,
    closed_form_gamma,
    dimension_count,
    groebner_gamma,
    groebner_hilbert,
    groebner_is_zero,
    multiply,
    relations,
    trace_gamma,
)

X = class_x()
V = class_v()

# gamma values for the socle coefficient of (5x+2v)^(5s+c+1) * v^(top-E),
# frozen from two independent computations (linear solve and Groebner oracle)
FROZEN_GAMMA = {
    (0, 0): Fraction(-4),
    (1, 0): Fraction(-2484),
    (2, 1): Fraction(-3464208),
    (3, 0): Fraction(-6943532544),
    (0, 2): Fraction(54),
    (1, 2): Fraction(108864),
    (1, 3): Fraction(1010528),
    (2, 2): Fraction(270208224),
}


# ---------------------------------------------------------------------------
# ring presentation
# ---------------------------------------------------------------------------

def test_generators_and_displays():
    H = hyperplane_class(5, 2)
    assert display_xv(H) == "5*x + 2*v"
    assert display_xu(H) == "3*x + 2*u"
    assert hyperplane_class(1, 0) == X
    assert hyperplane_class(1, 1) == X + V
    assert class_u() == X + V  # u is the second ruling class x + v
    for bad in ((0, 0), (-1, 2)):
        with pytest.raises(InvalidParams):
            hyperplane_class(*bad)


def test_relations_s0():
    sp = ChowRingSpec(0)
    g1, g2 = relations(sp)
    assert g1 == X ** 3
    assert g2 == parse("x0^2*x1 + 2*x0*x1^2 + x1^3", 2, QQ)  # (x+v)^2 * v
    assert sp.relation_degree == 3 and sp.top_degree == 4


def test_spec_validation():
    with pytest.raises(InvalidParams):
        ChowRingSpec(-1)
    # s is bounded like any other work: one certificate near MAX_S takes about a second
    assert ChowRingSpec(MAX_S).s == MAX_S
    with pytest.raises(CapExceeded, match=f"largest supported s, {MAX_S}"):
        ChowRingSpec(MAX_S + 1)
    with pytest.raises(CapExceeded):
        tsen_certificate(10**6, 0)


def test_power_and_degree():
    H = hyperplane_class(5, 2)
    assert power(X + V, 2) == parse("x0^2 + 2*x0*x1 + x1^2", 2, QQ)
    assert power(H, 0) == MultiPoly.constant(2, QQ, 1)
    assert class_degree(multiply(H, V)) == 2
    with pytest.raises(NotHomogeneous):
        class_degree(X + power(V, 2))


def test_section_class_matches_repeated_squaring():
    # the binomial construction against chow.power, which squares repeatedly
    H = hyperplane_class(5, 2)
    assert section_class(0) == MultiPoly.constant(2, QQ, 1)
    for E in range(1, 80):
        assert section_class(E) == power(H, E), E
    for E, k in ((1, 3), (7, 5), (40, 9)):
        assert section_class(E, k) == power(H, E) * power(V, k), (E, k)
    for bad in ((-1, 0), (2, -1)):
        with pytest.raises(InvalidParams):
            section_class(*bad)


# ---------------------------------------------------------------------------
# ideal membership with certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", range(4))
def test_generators_in_ideal(s):
    sp = ChowRingSpec(s)
    ga, gb = relations(sp)
    res = ideal_membership(ga, sp)
    assert res.in_ideal and check_cofactors(ga, sp, res)
    one = MultiPoly.constant(2, QQ, 1)
    assert res.cofactors[0] == one and res.cofactors[1].is_zero
    res2 = ideal_membership(gb, sp)
    assert res2.in_ideal and check_cofactors(gb, sp, res2)


@pytest.mark.parametrize("s", range(4))
def test_fundamental_class_not_in_ideal(s):
    sp = ChowRingSpec(s)
    res = ideal_membership(fundamental_class(sp), sp)
    assert not res.in_ideal
    assert res.quotient_dim == 1  # the socle is one-dimensional


@pytest.mark.parametrize("s", range(3))
def test_above_socle_everything_vanishes(s):
    sp = ChowRingSpec(s)
    D = sp.top_degree + 1
    for j in (0, D // 2, D):
        mono = MultiPoly.monomial(2, QQ, (D - j, j), 1)
        res = ideal_membership(mono, sp)
        assert res.in_ideal and check_cofactors(mono, sp, res)


@given(st.integers(0, 2), st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=25)
def test_ideal_combinations_vanish(s, i, j, a, b):
    sp = ChowRingSpec(s)
    ga, gb = relations(sp)
    combo = multiply(ga, MultiPoly.monomial(2, QQ, (i, j), Fraction(a))) + multiply(
        gb, MultiPoly.monomial(2, QQ, (j, i), Fraction(b))
    )
    if combo.is_zero:
        return
    deg = class_degree(combo)
    if deg > sp.top_degree + 4:
        return
    assert is_zero(combo, sp)
    res = ideal_membership(combo, sp)
    assert res.in_ideal and check_cofactors(combo, sp, res)


@pytest.mark.parametrize("s", range(4))
def test_ideal_absorption_exhaustive(s):
    sp = ChowRingSpec(s)
    ga, gb = relations(sp)
    kmax = sp.top_degree - sp.relation_degree
    for k in range(kmax + 1):
        for i in range(k + 1):
            m = X ** (k - i) * V ** i
            assert is_zero(multiply(m, ga), sp)
            assert is_zero(multiply(m, gb), sp)


def test_is_zero_agrees_with_groebner():
    sp = ChowRingSpec(1)
    ga, gb = relations(sp)
    probes = [
        multiply(ga, power(X, 2)),
        multiply(gb, power(V, 2)),
        fundamental_class(sp),
        power(hyperplane_class(5, 2), 6) * power(V, 4),
    ]
    for P in probes:
        assert is_zero(P, sp) == groebner_is_zero(P, 1)


# ---------------------------------------------------------------------------
# normal form and Hilbert function
# ---------------------------------------------------------------------------

def test_normal_form_projection():
    sp = ChowRingSpec(1)
    fund = fundamental_class(sp)
    nf = normal_form(fund, sp)
    assert not nf.is_zero
    assert normal_form(nf, sp) == nf
    assert is_zero(fund - nf, sp)
    assert normal_form(relations(sp)[0], sp).is_zero


@pytest.mark.parametrize("s", range(4))
def test_normal_form_standard_monomials(s):
    # the normal form is the remainder on the standard monomials x^i v^j,
    # i, j <= 3s+2, and the fundamental class reduces to the socle monomial
    sp = ChowRingSpec(s)
    a = sp.relation_degree
    assert normal_form(fundamental_class(sp), sp) == MultiPoly.monomial(2, QQ, (a - 1, a - 1), 1)
    H = hyperplane_class(5, 2)
    for d in range(sp.top_degree + 2):
        monomials = [X ** (d - i) * V ** i for i in range(d + 1)]
        for c in monomials + [H ** d, H ** (d // 2) * fundamental_class(sp)]:
            nf = normal_form(c, sp)
            assert all(i <= a - 1 and j <= a - 1 for i, j in nf.as_dict()), (d, nf)
            assert is_zero(c - nf, sp)


@pytest.mark.parametrize("s", range(0, 13, 3))
def test_reduce_divides_fractional_classes_exactly(s):
    # the division runs on integers; a class c/k with denominators must reduce to
    # exactly what c does, divided by k, with cofactors that reproduce c/k
    sp = ChowRingSpec(s)
    rng = SplitMix64(1000 + s)
    a = sp.relation_degree
    for d in (1, a - 1, a, sp.top_degree - 1, sp.top_degree, sp.top_degree + 2):
        c = MultiPoly.from_dict(
            2, QQ, {(d - j, j): rng.next_below(201) - 100 for j in range(d + 1)}
        )
        member = c - normal_form(c, sp)
        for k in (2, 3, 7):
            inv = Fraction(1, k)
            assert normal_form(c * inv, sp) == normal_form(c, sp) * inv
            res = ideal_membership(member * inv, sp)
            assert res.in_ideal and check_cofactors(member * inv, sp, res)
            res = ideal_membership(c * inv, sp)
            assert res.in_ideal == (d > sp.top_degree)
            if res.in_ideal:
                assert check_cofactors(c * inv, sp, res)
        # denominators that differ from term to term (1 to 6, least common multiple 60)
        mixed = MultiPoly.from_dict(
            2, QQ, {e: n / (1 + j % 6) for j, (e, n) in enumerate(c.terms)}
        )
        assert normal_form(mixed, sp) * 60 == normal_form(mixed * 60, sp)
        member = mixed - normal_form(mixed, sp)
        res = ideal_membership(member, sp)
        assert res.in_ideal and check_cofactors(member, sp, res)


@pytest.mark.parametrize("s", range(4))
def test_hilbert_function(s):
    sp = ChowRingSpec(s)
    assert socle_dimension(sp) == 1
    assert socle_dimension(sp, 0) == 1
    assert socle_dimension(sp, 1) == 2
    assert socle_dimension(sp, sp.relation_degree - 1) == sp.relation_degree
    assert socle_dimension(sp, sp.top_degree + 1) == 0
    # complete intersection of two degree-(3s+3) forms in two variables:
    # Hilbert series (1 + t + ... + t^(3s+2))^2
    for k in range(sp.top_degree + 2):
        assert socle_dimension(sp, k) == max(0, min(k, sp.top_degree - k) + 1)
    # and from the standard monomials of sympy's basis for another order
    hilbert = groebner_hilbert(s, sp.top_degree + 1)
    assert [socle_dimension(sp, k) for k in range(sp.top_degree + 2)] == hilbert


# ---------------------------------------------------------------------------
# existence certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,c", sorted(FROZEN_GAMMA))
def test_frozen_gamma_values(s, c):
    cert = tsen_certificate(s, c)
    expect = FROZEN_GAMMA[(s, c)]
    assert cert.gamma == expect
    assert cert.nonzero and cert.within_socle
    assert type(cert.gamma) is int
    assert cert.gamma_positive is (expect > 0)
    assert cert.equations == 5 * s + c + 1
    assert cert.unknowns == 6 * s + 6
    assert cert.socle_dim == 1


@pytest.mark.parametrize("s,c", [(0, 0), (0, 2), (1, 0), (1, 2), (2, 1)])
def test_gamma_matches_groebner_oracle(s, c):
    assert groebner_gamma(s, c) == FROZEN_GAMMA[(s, c)]


@pytest.mark.parametrize("s", [*range(13), 20, 30, 40])
def test_certificate_matches_trace_oracle(s):
    # the Gorenstein-trace recurrence shares no code with the division and
    # reaches s where the sympy oracle is too slow
    for c in range(6):
        cert = tsen_certificate(s, c)
        assert (cert.gamma, cert.nonzero) == trace_gamma(s, c), (s, c)
        assert cert.gamma == closed_form_gamma(s, c), (s, c)
    cert = tsen_certificate(s, 0, E_override=3 * s + 2)
    assert (cert.gamma, cert.nonzero) == trace_gamma(s, 0, E=3 * s + 2)
    assert cert.gamma == closed_form_gamma(s, 0, E=3 * s + 2)


def test_closed_form_gamma_sign_pattern():
    # wherever E = 5s+c+1 <= 6s+4, i.e. c <= s+3: gamma != 0, and gamma < 0 iff c <= 1
    budget = 5.0
    start = time.monotonic()
    for s in range(61):
        for c in range(min(10, s + 3) + 1):
            gamma = closed_form_gamma(s, c)
            assert gamma != 0 and (gamma < 0) == (c <= 1), (s, c)
    assert closed_form_gamma(0, 4) is None  # E = 5 > 4
    assert time.monotonic() - start < budget


def test_gamma_override_exponent():
    # E = 10 instead of the default 5s+c+1 = 12 at (s,c) = (2,1)
    cert = tsen_certificate(2, 1, E_override=10)
    assert cert.E == 10 and not cert.default_E
    assert cert.gamma == Fraction(271188)
    assert groebner_gamma(2, 1, E=10) == Fraction(271188)


def test_certificate_edges():
    cert = tsen_certificate(0, 5)  # E = 6 exceeds top degree 4
    assert not cert.nonzero and cert.gamma is None and not cert.within_socle
    cert = tsen_certificate(0, 0)
    assert cert.nonzero and cert.E == 1 and cert.default_E
    lo = tsen_certificate(1, 0, E_override=4)
    hi = tsen_certificate(1, 0, E_override=7)
    assert lo.E == 4 and lo.nonzero
    assert hi.E == 7 and hi.nonzero and hi.gamma is not None
    with pytest.raises(InvalidParams):
        tsen_certificate(-1, 0)
    with pytest.raises(InvalidParams):
        tsen_certificate(0, 0, E_override=0)
    d = tsen_certificate(1, 0).to_dict()
    assert d["gamma"] == -2484 and d["nonzero"] is True


def test_exponent_above_top_degree_is_not_expanded():
    # A_s is zero above degree 6s+4, so a huge E must not form (5x+2v)^E
    t0 = time.monotonic()
    for s, E in ((0, 10**6), (3, 23), (5, 10**9)):
        cert = tsen_certificate(s, 0, E_override=E)
        assert cert.E == E and not cert.within_socle
        assert not cert.nonzero and cert.gamma is None and cert.gamma_positive is None
    assert time.monotonic() - t0 < 1.0


def test_gamma_sign_pattern():
    # the socle coefficient is negative for c in {0, 1} and positive for
    # c in {2, 3} across small s — recorded because downstream checks
    # require positivity and must flag these
    signs = {}
    for s in range(3):
        for c in range(4):
            cert = tsen_certificate(s, c)
            if cert.within_socle and cert.gamma is not None:
                signs[(s, c)] = cert.gamma > 0
    for (s, c), positive in signs.items():
        assert positive is (c >= 2), ((s, c), positive)


def sweep_min_s(capsys, c, s_max):
    code = main(["chow", "sweep", "--c", str(c), "--s-max", str(s_max), "--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out)["min_s"] if code == EXIT_PASS else None)


def test_min_section_degree(capsys):
    # `chow sweep` reports min_s, the least s <= s_max with a nonzero certificate
    assert sweep_min_s(capsys, 0, 2) == (EXIT_PASS, 0)
    assert sweep_min_s(capsys, 2, 4) == (EXIT_PASS, 0)
    assert sweep_min_s(capsys, 8, 4) == (EXIT_PASS, None)  # 5s+9 > 6s+4 for all s <= 4
    for bad in ((0, -1), (0, -5), (-1, 2)):
        assert sweep_min_s(capsys, *bad)[0] == EXIT_INPUT
    for c in range(4):
        code, s0 = sweep_min_s(capsys, c, 3)
        assert code == EXIT_PASS and s0 is not None
        for s in range(s0, 4):
            assert tsen_certificate(s, c).nonzero


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_dimension_count_defaults():
    dc = dimension_count(1, 0)
    assert dc["equations"] == 7 and dc["unknowns"] == 12 and dc["slack"] == 5
    assert dc["claimed_equations"] == 6 and dc["claimed_unknowns"] == 12
    dc = dimension_count(2, 3)
    assert dc["equations"] == 6 * 2 + 3 + 1
    assert dc["claimed_equations"] == 5 * 2 + 3 + 1


def test_dimension_count_balanced_vectors():
    for b in range(5):
        for shift in range(4):
            dc = dimension_count(0, 0, (b + shift, b, b, b, b + shift, 0))
            assert dc["slack"] == 5


def test_dimension_count_validation():
    with pytest.raises(InvalidParams):
        dimension_count(1, 0, (1, 2, 3))
    with pytest.raises(InvalidParams):
        dimension_count(-1, 0)


def test_certificate_dataclass_shape():
    keys = [
        "s", "c", "E", "default_E", "nonzero", "within_socle", "gamma",
        "gamma_positive", "equations", "unknowns", "socle_dim",
    ]
    for s in range(13):
        for c in range(6):
            cert = tsen_certificate(s, c)
            assert isinstance(cert, TsenCertificate)
            # slotted: a retained certificate carries no per-instance __dict__
            assert not hasattr(cert, "__dict__")
            assert cert.within_socle is (cert.E <= 6 * s + 4)
            if cert.gamma is None:
                assert cert.gamma_positive is None
            else:
                assert cert.gamma_positive is (cert.gamma > 0)
                assert type(cert.gamma) is int
            assert cert.equations == cert.E == 5 * s + c + 1
            assert cert.unknowns == 6 * s + 6
            assert list(cert.to_dict()) == keys
