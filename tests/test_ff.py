import itertools

import pytest
from hypothesis import given, strategies as st

from toricount.errors import (
    CapExceeded,
    CompositeP,
    DivisionByZero,
    FieldMismatch,
    InvalidParams,
)
from toricount.ff import (
    FieldSpec,
    arithmetic_tables,
    enumerate_field,
    is_prime,
    log_tables,
    make_field,
    parse_field_name,
    power_sum,
)

from oracles import naive_power_sum


# canonical lexicographically-least moduli, constant term first
FROZEN_MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (2, 3): (1, 0, 1, 1),     # t^3 + t^2 + 1
    (2, 4): (1, 0, 0, 1, 1),  # t^4 + t^3 + 1
    (5, 2): (1, 1, 1),        # t^2 + t + 1
    (3, 3): (1, 0, 2, 1),     # t^3 + 2t^2 + 1
}

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4)]


def test_frozen_moduli():
    for (p, f), modulus in FROZEN_MODULI.items():
        assert make_field(p, f).modulus == modulus, (p, f)


def test_modulus_is_least():
    # every lex-smaller monic polynomial of the same degree is reducible:
    # it has a root or, for t^2+... over GF(2), is the square (t+1)^2 = t^2+1
    spec = make_field(2, 2)
    assert spec.modulus_str == "t^2 + t + 1"
    spec = make_field(3, 2)
    assert spec.modulus_str == "t^2 + 1"


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, f):
    spec = make_field(p, f)
    els = enumerate_field(spec)
    assert len(els) == spec.q == p ** f
    zero, one = spec.zero(), spec.one()
    for a in els:
        assert a + zero == a and a * one == a
        assert a - a == zero
        assert a * zero == zero
        if not a.is_zero:
            assert a * a.inverse() == one
            assert a ** (spec.q - 1) == one  # Lagrange
        assert a ** spec.q == a  # Frobenius fixed field
    # characteristic
    acc = zero
    for _ in range(p):
        acc = acc + one
    assert acc == zero


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (2, 3)])
def test_commutativity_associativity_exhaustive(p, f):
    spec = make_field(p, f)
    els = enumerate_field(spec)
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els[:4], els[:4], els):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_distributivity(pf, data):
    spec = make_field(*pf)
    idx = st.integers(min_value=0, max_value=spec.q - 1)
    a = spec.from_index(data.draw(idx))
    b = spec.from_index(data.draw(idx))
    c = spec.from_index(data.draw(idx))
    assert a * (b + c) == a * b + a * c


def test_enumeration_order_gf4(f4):
    names = [str(e) for e in enumerate_field(f4)]
    assert names == ["0", "1", "t", "t + 1"]
    # to_index/from_index are inverse bijections
    for i, e in enumerate(enumerate_field(f4)):
        assert e.to_index() == i and f4.from_index(i) == e


def test_prime_field_enumeration(f5):
    assert [e.coeffs[0] for e in enumerate_field(f5)] == [0, 1, 2, 3, 4]


def test_element_construction_and_coercion(f3, f9):
    assert f3.element([5]).coeffs == (2,)
    assert (f9.gen() ** 2 + f9.one()).is_zero  # t^2 + 1 = 0
    with pytest.raises(FieldMismatch):
        f3.one() + f9.one()
    assert f3.one() + 2 == f3.zero()


def test_division_and_errors(f5):
    a = f5.from_index(3)
    assert a / a == f5.one()
    with pytest.raises(DivisionByZero):
        a / f5.zero()
    with pytest.raises(DivisionByZero):
        f5.zero().inverse()
    with pytest.raises(InvalidParams):
        a ** -1


def test_make_field_errors():
    with pytest.raises(CompositeP):
        make_field(4)
    with pytest.raises(CompositeP):
        make_field(1)
    with pytest.raises(InvalidParams):
        make_field(2, 0)
    with pytest.raises(CapExceeded):
        make_field(2, 21)


def test_parse_field_name():
    assert parse_field_name("GF(7)") == make_field(7)
    assert parse_field_name("GF(2^4)") == make_field(2, 4)
    assert parse_field_name("GF(9)") == make_field(3, 2)
    assert parse_field_name(" GF(25) ") == make_field(5, 2)
    for bad in ("GF(6)", "GF()", "F(2)", "GF(2^0)", "GF(x)"):
        with pytest.raises((InvalidParams, CompositeP)):
            parse_field_name(bad)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 7919}
    for n in range(-2, 120):
        assert is_prime(n) == (n in primes or (n > 1 and all(n % d for d in range(2, n))))
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_power_sum_matches_oracle(p, f):
    spec = make_field(p, f)
    for alpha in range(3 * (spec.q - 1) + 1):
        assert power_sum(spec, alpha) == naive_power_sum(spec, alpha)


def test_power_sum_values(f4):
    q = f4.q
    minus_one = -f4.one()
    for alpha in range(0, 3 * (q - 1) + 1):
        expected = minus_one if alpha > 0 and alpha % (q - 1) == 0 else f4.zero()
        assert power_sum(f4, alpha) == expected, alpha


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_arithmetic_tables_match_elements(p, f):
    spec = make_field(p, f)
    add, mul = arithmetic_tables(spec)
    els = enumerate_field(spec)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert add[i, j] == (a + b).to_index()
            assert mul[i, j] == (a * b).to_index()
    assert not add.flags.writeable and not mul.flags.writeable


@pytest.mark.parametrize("p,f", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_log_tables(p, f):
    spec = make_field(p, f)
    q = spec.q
    log, exp = log_tables(spec)
    assert log[0] == -1
    for i in range(1, q):
        assert exp[log[i]] == i
    # exp lists the powers of one generator, and they cover F_q^*
    g = spec.from_index(int(exp[1])) if q > 2 else spec.one()
    assert [(g ** k).to_index() for k in range(q - 1)] == exp.tolist()
    assert sorted(exp.tolist()) == list(range(1, q))
    assert not log.flags.writeable and not exp.flags.writeable


def test_table_cap():
    with pytest.raises(CapExceeded):
        arithmetic_tables(make_field(257))


def test_spec_interning_and_names():
    a = make_field(2, 2)
    b = make_field(2, 2)
    assert a is b  # cached
    assert a.name == "GF(2^2)" and make_field(7).name == "GF(7)"
    assert isinstance(a, FieldSpec)
