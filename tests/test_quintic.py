import itertools
import json

import pytest
from hypothesis import given, strategies as st

from toricount import quintic
from toricount.errors import (
    ArityMismatch,
    FieldMismatch,
    IdentityViolated,
    InvalidParams,
    NotHomogeneous,
)
from toricount.fan import builtin
from toricount.ff import enumerate_field, make_field
from toricount.poly import (
    MultiPoly,
    multidegree,
    parse,
    print_poly,
    standard_grading,
    substitute,
)
from toricount.quintic import (
    NONZERO_POLICIES,
    QuinticInstance,
    ambient_quintic,
    blowdown_images,
    coefficient_vector,
    monomial_basis,
    poly_from_coefficients,
    pullback_identity_check,
    random_batch,
    random_instance,
    strict_transform,
)

from oracles import eval_poly

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

BLOWUP = builtin("blowup_p4_line")
G = BLOWUP.grading


def fermat_instance(spec):
    return QuinticInstance(
        field=spec,
        p3=parse("x0^3 + x1^3 + x2^3", 3, spec),
        q3=parse("x0*x1*x2", 3, spec),
        q4=parse("x0^4 + x1^4 + x2^4", 3, spec),
    )


# ---------------------------------------------------------------------------
# coefficient bases
# ---------------------------------------------------------------------------

def test_monomial_basis_frozen_order():
    b3 = monomial_basis(3, 3)
    b4 = monomial_basis(3, 4)
    assert len(b3) == 10 and len(b4) == 15
    assert list(b3) == [
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
        (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3),
    ]
    assert b4[0] == (4, 0, 0) and b4[-1] == (0, 0, 4)


def test_coefficient_vector_round_trip():
    inst = random_instance(F5, 31)
    for part, deg in ((inst.p3, 3), (inst.q3, 3), (inst.q4, 4)):
        vec = coefficient_vector(part, deg)
        assert len(vec) == len(monomial_basis(3, deg))
        assert poly_from_coefficients(F5, deg, vec) == part


def test_coefficient_vector_rejects_wrong_degree():
    with pytest.raises(NotHomogeneous):
        coefficient_vector(parse("x0^3", 3, F2), 4)
    with pytest.raises(ArityMismatch):
        poly_from_coefficients(F2, 3, [F2.one()] * 4)


# ---------------------------------------------------------------------------
# instance construction and validation
# ---------------------------------------------------------------------------

def test_validation_rejects_bad_parts():
    z = MultiPoly.zero(3, F2)
    with pytest.raises(InvalidParams):
        QuinticInstance(field=F2, p3=z, q3=z, q4=z)  # all zero
    with pytest.raises(InvalidParams):
        QuinticInstance(field=F2, p3=parse("x0^2", 3, F2), q3=z, q4=z)  # wrong degree
    with pytest.raises(InvalidParams):
        QuinticInstance(field=F2, p3=parse("x0^3 + x0", 3, F2), q3=z, q4=z)  # inhomogeneous
    with pytest.raises(InvalidParams):
        QuinticInstance(field=F2, p3=parse("x0^3", 2, F2), q3=z, q4=z)  # wrong arity
    with pytest.raises(FieldMismatch):
        QuinticInstance(field=F2, p3=parse("x0^3", 3, F3), q3=z, q4=z)  # wrong field


def test_describe_names_the_parts():
    text = fermat_instance(F3).describe()
    assert "P3" in text and "Q3" in text and "Q4" in text
    assert "x1*x2*x3" in text  # human-facing names are 1-based


# ---------------------------------------------------------------------------
# ambient quintic and strict transform
# ---------------------------------------------------------------------------

def test_fermat_shapes():
    inst = fermat_instance(F2)
    amb = ambient_quintic(inst)
    strict = strict_transform(inst)
    assert multidegree(amb, standard_grading(5)) == (5,)
    assert multidegree(strict, G) == (5, 2)
    assert len(strict.terms) == 7
    assert eval_poly(strict, [F2.one()] * 6) == F2.one()


def test_single_term_cases():
    z = MultiPoly.zero(3, F2)
    inst = QuinticInstance(field=F2, p3=parse("x0^3", 3, F2), q3=z, q4=z)
    assert print_poly(ambient_quintic(inst)) == "x0^2*x1^3"
    assert multidegree(strict_transform(inst), G) == (5, 2)
    inst_q4 = QuinticInstance(field=F2, p3=z, q3=z, q4=parse("x0^4", 3, F2))
    assert print_poly(ambient_quintic(inst_q4)) == "x1^4*x4"
    assert print_poly(strict_transform(inst_q4)) == "x1^4*x4*x5"


@given(st.integers(0, 200))
def test_strict_transform_bidegree(seed):
    inst = random_instance(F3, seed)
    assert multidegree(strict_transform(inst), G) == (5, 2)
    assert multidegree(ambient_quintic(inst), standard_grading(5)) == (5,)


def test_strata_vanishing_exhaustive():
    for spec in (F2, F3, F4):
        inst = random_instance(spec, 7)
        P = strict_transform(inst)
        zero = spec.zero()
        for free in itertools.product(enumerate_field(spec), repeat=3):
            assert eval_poly(P, [zero, free[0], free[1], free[2], zero, zero]).is_zero
            assert eval_poly(P, [free[0], zero, zero, zero, free[1], free[2]]).is_zero


# ---------------------------------------------------------------------------
# blowdown map
# ---------------------------------------------------------------------------

def test_blowdown_chart_identity():
    # on the chart x5 = 1 the blowdown is the identity on x0..x4
    imgs = blowdown_images(F5)
    for k in range(5):
        p6 = [F5.from_index((3 * k + j) % 5) for j in range(5)] + [F5.one()]
        assert [eval_poly(img, p6) for img in imgs] == p6[:5]


def test_blowdown_images_are_polynomials():
    imgs = blowdown_images(F3)
    assert len(imgs) == 5
    assert print_poly(imgs[0]) == "x0"
    assert print_poly(imgs[1]) == "x1*x5"
    assert print_poly(imgs[4]) == "x4"


def test_blowdown_equivariance():
    imgs = blowdown_images(F5)
    lam, mu = F5.from_index(2), F5.from_index(3)
    for k in range(10):
        x = [F5.from_index((7 * k + 3 * j + 1) % 5) for j in range(6)]
        acted = [lam * mu * x[0], lam * x[1], lam * x[2], lam * x[3], lam * mu * x[4], mu * x[5]]
        assert [eval_poly(img, acted) for img in imgs] == [lam * mu * eval_poly(img, x) for img in imgs]


def test_blowdown_arity():
    # the blowdown takes the 6 coordinates of the blowup to the 5 of P^4
    imgs = blowdown_images(F2)
    assert len(imgs) == 5 and all(img.nvars == 6 for img in imgs)
    with pytest.raises(ArityMismatch):
        substitute(strict_transform(fermat_instance(F2)), imgs)


# ---------------------------------------------------------------------------
# pullback identity
# ---------------------------------------------------------------------------

def test_pullback_identity_fermat_and_random():
    assert pullback_identity_check(fermat_instance(F2))
    for s in range(10):
        assert pullback_identity_check(random_instance(F5, s))


def test_pullback_identity_check_returns_true():
    assert pullback_identity_check(fermat_instance(F2)) is True
    assert issubclass(IdentityViolated, Exception)


def test_pullback_identity_check_refuses_a_wrong_blowdown(monkeypatch):
    # the symbolic comparison alone catches a map that differs in one coordinate
    def swapped(spec):
        x0, x1, x2, x3, x4 = blowdown_images(spec)
        return (x0, x2, x1, x3, x4)

    monkeypatch.setattr(quintic, "blowdown_images", swapped)
    with pytest.raises(IdentityViolated, match="differs from x5\\^3"):
        pullback_identity_check(random_instance(F5, 3))


# ---------------------------------------------------------------------------
# seeded generation / serialization
# ---------------------------------------------------------------------------

def test_random_instance_determinism():
    a = random_instance(F3, 42)
    b = random_instance(F3, 42)
    c = random_instance(F3, 43)
    assert a == b and a != c
    assert a.seed == 42


def test_nonzero_policy():
    assert NONZERO_POLICIES == ("any", "p3_nonzero")
    for s in range(50):
        assert not random_instance(F3, s, "p3_nonzero").p3.is_zero
    with pytest.raises(InvalidParams):
        random_instance(F3, 0, "bogus")


def test_random_batch_distinct_and_tagged():
    batch = random_batch(F3, 9, 60)
    assert len(batch) == 60
    assert len({inst.seed for inst in batch}) == 60
    again = random_batch(F3, 9, 60)
    assert batch == again


def test_json_round_trip():
    for inst in (fermat_instance(F2), random_instance(F4, 5), random_instance(F5, 8)):
        back = QuinticInstance.from_json(inst.to_json())
        assert back == inst
        assert back.field is inst.field  # field specs are interned


def test_json_rejects_modulus_mismatch():
    payload = json.loads(random_instance(F4, 3).to_json())
    payload["field"]["modulus"] = [0, 0, 1]  # not the canonical F_4 modulus
    with pytest.raises((InvalidParams, FieldMismatch)):
        QuinticInstance.from_json(json.dumps(payload))


def test_json_payload_shape():
    payload = json.loads(random_instance(F4, 11).to_json())
    assert payload["field"]["p"] == 2 and payload["field"]["f"] == 2
    assert payload["monomial_order"] == "degrevlex"
    assert len(payload["p3"]) == 10 and len(payload["q4"]) == 15
    assert set(payload) >= {"field", "p3", "q3", "q4", "seed"}
