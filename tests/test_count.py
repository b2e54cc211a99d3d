import dataclasses
import itertools
from collections import Counter
from math import comb, gcd, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from toricount import count
from toricount.count import (
    DEFAULT_WORK_CAP,
    CongruenceReport,
    affine_count,
    blowup_p4_space,
    check_ax,
    check_cw,
    check_esnault,
    exceptional_on_hypersurface,
    toric_count_orbits,
    toric_count_quotient,
    _homogeneity_lattice,
    _zero_masks,
)
from toricount.errors import (
    CapExceeded,
    FieldMismatch,
    HypothesisNotMet,
    NonEffectiveGrading,
    NonIntegralQuotient,
    NotHomogeneous,
    ToricountError,
    TorsionClassGroup,
)
from toricount.fan import (
    GradingData,
    Space,
    builtin,
    make_fan,
    space_from_fan,
)
from toricount.ff import enumerate_field, make_field
from toricount.poly import (
    MultiPoly,
    degree_bounds,
    parse,
    print_poly,
    random_homogeneous,
    standard_grading,
    total_generator_degree,
)
from toricount.quintic import (
    QuinticInstance,
    poly_from_coefficients,
    random_instance,
    strict_transform,
)
from toricount.rng import SplitMix64

from oracles import (
    blowup_fiber_count,
    naive_affine_count,
    naive_exceptional_count,
    naive_toric_orbits,
    naive_zero_mask,
    rowwise_homogeneity_lattice,
    union_subspace_count,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)
F289 = make_field(17, 2)
F512 = make_field(2, 9)

BLOWUP = builtin("blowup_p4_line")


# ---------------------------------------------------------------------------
# affine counting kernels vs the naive oracle
# ---------------------------------------------------------------------------

@st.composite
def small_poly(draw):
    spec = draw(st.sampled_from([F2, F3, F4, F5, F9]))
    nvars = draw(st.integers(0, 3))
    nterms = draw(st.integers(0, 4))
    mapping = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        mapping[exps] = spec.from_index(draw(st.integers(0, spec.q - 1)))
    return MultiPoly.from_dict(nvars, spec, mapping)


@given(small_poly())
def test_affine_count_matches_oracle(P):
    assert affine_count(P, P.domain) == naive_affine_count(P, P.domain)


@pytest.mark.parametrize(
    "spec,nvars,max_exp,nterms", [(F512, 1, 12, 5), (F289, 2, 3, 3)], ids=["GF(2^9)", "GF(17^2)"]
)
def test_affine_count_matches_oracle_large_fields(spec, nvars, max_exp, nterms):
    # fields above the q x q table cap of ff.arithmetic_tables
    rng = SplitMix64(spec.q)
    mapping = {}
    for _ in range(nterms):
        exps = tuple(rng.next_below(max_exp) for _ in range(nvars))
        mapping[exps] = spec.from_index(rng.next_below(spec.q))
    P = MultiPoly.from_dict(nvars, spec, mapping)
    assert affine_count(P, spec) == naive_affine_count(P, spec)


@given(small_poly())
def test_partition_independence(P):
    # the grids are below count._PLAN_MIN_POINTS, so the kernel sees the whole of
    # each; the block target forces blocks of one point, q points, q^2 and the grid
    q = P.domain.q
    expected = naive_affine_count(P, P.domain)
    for target in (1, q, q**2, q**P.nvars):
        with mock.patch.object(count, "_BLOCK_TARGET", target):
            assert affine_count(P, P.domain) == expected, target


def test_zero_masks_reduce_digits_before_they_overflow():
    # Over GF(3^9) each F_3 digit of a value gets 7 bits of the packed int64, room for
    # 62 reduced digits. At x0 = 1 the 63 terms 2*x0^j add 126 to the lowest digit, and
    # 2*x1 is 2 + 2t at x1 = 1 + t (index 4). Unless the kernel reduced mod 3 within the
    # block, the lowest digit would reach 128 and carry into the next, and x1 = 1 + t
    # would read as a zero. The only zero is x1 = 0.
    spec = make_field(3, 9)
    two = spec.from_int(2)
    terms = {(j, 0): two for j in range(1, 64)}
    P = MultiPoly.from_dict(2, spec, {**terms, (0, 1): two})
    axes = [np.ones(1, dtype=np.int64), np.arange(spec.q)]
    (block, mask), = _zero_masks(P, spec, axes)
    assert [int(block[-1][i]) for i in np.nonzero(mask.ravel())[0]] == [0]


def test_zero_masks_xor_in_characteristic_2():
    # Over GF(2^13) the 16 terms of x0 + ... + x15 at (1, ..., 1, x15) XOR to x15 + 1,
    # with no digit to carry, so x15 = 1 is the one zero.
    spec = make_field(2, 13)
    n = 16
    P = MultiPoly.from_dict(
        n, spec, {tuple(int(i == j) for i in range(n)): spec.one() for j in range(n)}
    )
    axes = [np.ones(1, dtype=np.int64)] * (n - 1) + [np.arange(spec.q)]
    (block, mask), = _zero_masks(P, spec, axes)
    assert [int(block[-1][i]) for i in np.nonzero(mask.ravel())[0]] == [1]


@pytest.mark.parametrize(
    "p,f,nvars,reduces",
    [(2, 1, 3, False), (2, 3, 2, False), (2, 9, 1, False), (3, 2, 2, True)],
    ids=["GF(2)", "GF(8)", "GF(2^9)", "GF(9)"],
)
def test_zero_masks_reduce_digits_only_for_odd_p(monkeypatch, p, f, nvars, reduces):
    # characteristic 2 adds values by XOR; odd p adds F_p digits and reduces them
    spec = make_field(p, f)
    rng = SplitMix64(spec.q)
    mapping = {}
    for _ in range(6):
        exps = tuple(rng.next_below(4) for _ in range(nvars))
        mapping[exps] = spec.from_index(1 + rng.next_below(spec.q - 1))
    P = MultiPoly.from_dict(nvars, spec, mapping)
    calls = []
    real = count._reduce_digits
    monkeypatch.setattr(count, "_reduce_digits", lambda *a: calls.append(a) or real(*a))
    assert kernel_count(P, spec) == naive_affine_count(P, spec)
    assert bool(calls) == reduces


def factored_poly(spec, nvars, rng):
    """c*x^g*F with F random: g and F's exponents below 3, F of up to 3 terms."""
    g = [rng.next_below(3) for _ in range(nvars)]
    mapping = {}
    for _ in range(rng.next_below(4)):
        exps = tuple(gi + rng.next_below(3) for gi in g)
        mapping[exps] = spec.from_index(1 + rng.next_below(spec.q - 1))
    if not mapping:
        # a bare monomial c*x^g
        mapping[tuple(g)] = spec.from_index(1 + rng.next_below(spec.q - 1))
    return MultiPoly.from_dict(nvars, spec, mapping)


@pytest.mark.parametrize(
    "spec",
    [F5, make_field(2, 3), F9, F289, F512],
    ids=["GF(5)", "GF(2^3)", "GF(3^2)", "GF(17^2)", "GF(2^9)"],
)
def test_zero_masks_of_factored_polynomials_match_oracle(monkeypatch, spec):
    # P = x^g*F vanishes where a variable of x^g is 0 or F is 0, with F evaluated on its
    # own axes only. Each box holds 0 and up to three more elements an axis, and the
    # block targets fix no axis, every leading axis but the last, and every axis.
    rng = SplitMix64(spec.q)
    for _ in range(12):
        nvars = 1 + rng.next_below(4)
        system = [factored_poly(spec, nvars, rng) for _ in range(1 + rng.next_below(2))]
        if rng.next_below(4) == 0:
            system.append(MultiPoly.zero(nvars, spec))
        axes = [
            np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(3)}))
            for _ in range(nvars)
        ]
        expected = naive_zero_mask(system, spec, axes)
        for target in (len(expected), len(axes[-1]), 1):
            monkeypatch.setattr(count, "_BLOCK_TARGET", target)
            masks = [mask.ravel() for _, mask in _zero_masks(system, spec, axes)]
            assert np.array_equal(np.concatenate(masks), expected), (system, target)


def test_zero_masks_evaluate_the_cofactor_on_its_own_axes(monkeypatch):
    # x0^2*P3(x1, x2, x3) over GF(9)^4: the digits reduced are those of P3 on F_9^3,
    # an accumulator of shape (1, 9, 9, 9), and the zeros are x0 = 0 or P3 = 0
    spec = F9
    q = spec.q
    rng = SplitMix64(3)
    P3 = poly_from_coefficients(spec, 3, [1 + rng.next_below(q - 1) for _ in range(10)])
    P = MultiPoly.from_dict(4, spec, {(2,) + e: c for e, c in P3.terms})
    zeros_of_p3 = kernel_count(P3, spec)
    shapes = []
    real = count._reduce_digits
    monkeypatch.setattr(count, "_reduce_digits", lambda *a: shapes.append(a[0].shape) or real(*a))
    assert kernel_count(P, spec) == q**3 + (q - 1) * zeros_of_p3
    assert shapes and set(shapes) == {(1, q, q, q)}


def grouped_poly(spec, nvars, rng):
    """sum_o m_o * F_o: 2 to 4 distinct monomials m_o in x0, x1 and F_o in the other
    variables, with exponents below 3; the first F_o has one term, the others 2 to 4."""
    outer = set()
    while len(outer) < 2 + rng.next_below(3):
        outer.add((rng.next_below(3), rng.next_below(3)))
    mapping = {}
    for n, o in enumerate(sorted(outer)):
        for _ in range(2 + rng.next_below(3) if n else 1):
            exps = o + tuple(rng.next_below(3) for _ in range(nvars - 2))
            mapping[exps] = spec.from_index(1 + rng.next_below(spec.q - 1))
    return MultiPoly.from_dict(nvars, spec, mapping)


@pytest.mark.parametrize(
    "spec,nvars",
    [(F5, 4), (make_field(2, 3), 4), (F9, 4), (F289, 3), (F512, 3)],
    ids=["GF(5)", "GF(2^3)", "GF(3^2)", "GF(17^2)", "GF(2^9)"],
)
def test_zero_masks_of_grouped_polynomials_match_oracle(monkeypatch, spec, nvars):
    # The kernel groups sum_o m_o * F_o by outer monomial, sums each F_o on its own axes
    # and turns its values into logs through element indices (packed digits for GF(3^2)
    # and GF(17^2)). A floor of 16 points lets it group boxes that the oracle can afford
    # point by point; each box holds 0, where cofactors with a variable vanish, and up to
    # 14 more elements an axis, and the block targets fix no axis, the leading axis x0
    # (an outer one), and every axis but the last two.
    monkeypatch.setattr(count, "_GROUP_MIN_POINTS", 16)
    groups = []
    real_group = count._group
    monkeypatch.setattr(count, "_group", lambda *a: groups.append(real_group(*a)) or groups[-1])
    rng = SplitMix64(spec.q + 5)
    for _ in range(6):
        system = [grouped_poly(spec, nvars, rng) for _ in range(1 + rng.next_below(2))]
        axes = [np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(3)}))]
        axes.append(np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(3)})))
        for _ in range(nvars - 2):
            axes.append(np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(14)})))
        expected = naive_zero_mask(system, spec, axes)
        sizes = [len(a) for a in axes]
        for target in (len(expected), prod(sizes[1:]), prod(sizes[-2:])):
            monkeypatch.setattr(count, "_BLOCK_TARGET", target)
            masks = [mask.ravel() for _, mask in _zero_masks(system, spec, axes)]
            assert np.array_equal(np.concatenate(masks), expected), (system, target)
    # the kernel grouped terms, into groups of several terms and groups of one
    assert any(grouped for _, grouped in groups) and any(ones for ones, _ in groups)


def test_zero_masks_group_the_strict_transform_by_its_outer_monomials(monkeypatch):
    # x0^2*P3 + x0*x4*Q3 + x4*x5*Q4 on GF(5)^6: the kernel groups the 35 terms by their
    # exponents on x0, x4, x5, so the digits reduced are those of P3, Q3 and Q4 on
    # F_5^3, accumulators of shape (1, 5, 5, 5, 1, 1), and not those of the grid
    inst = dense_instance(F5, 11)
    shapes = []
    real = count._reduce_digits

    def spy(acc, *args, **kwargs):
        shapes.append(acc.shape)
        return real(acc, *args, **kwargs)

    monkeypatch.setattr(count, "_reduce_digits", spy)
    assert kernel_count(strict_transform(inst), F5) == blowup_fiber_count(inst)
    assert shapes and set(shapes) == {(1, 5, 5, 5, 1, 1)}


@pytest.mark.parametrize(
    "spec,nvars",
    [(F5, 4), (make_field(2, 3), 4), (F9, 4), (F289, 3), (F512, 3)],
    ids=["GF(5)", "GF(2^3)", "GF(3^2)", "GF(17^2)", "GF(2^9)"],
)
def test_zero_masks_bind_new_coefficients_to_a_compiled_support(monkeypatch, spec, nvars):
    # A support is compiled once per block shape: under each of three block targets (no
    # axis fixed, the leading axis, all but the last) the first of three coefficient draws
    # on one grouped support misses the program cache and the later ones hit it, and every
    # mask equals the oracle's. Each box holds 0, where the cofactors whose terms all have
    # a variable vanish.
    monkeypatch.setattr(count, "_GROUP_MIN_POINTS", 16)
    rng = SplitMix64(spec.q + 9)
    axes = [np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(3)})) for _ in range(2)]
    for _ in range(nvars - 2):
        axes.append(np.array(sorted({0} | {rng.next_below(spec.q) for _ in range(10)})))
    sizes = [len(a) for a in axes]
    # the first support drawn whose program on the whole box groups its terms
    support = ()
    while not count._compile.__wrapped__(spec.p, spec.f, tuple(sizes), support).groups:
        support = tuple(e for e, _ in grouped_poly(spec, nvars, rng).terms)
    draws = [
        MultiPoly.from_dict(
            nvars, spec, {e: spec.from_index(1 + rng.next_below(spec.q - 1)) for e in support}
        )
        for _ in range(3)
    ]
    expected = [naive_zero_mask([P], spec, axes) for P in draws]
    for target in (prod(sizes), prod(sizes[1:]), sizes[-1]):
        monkeypatch.setattr(count, "_BLOCK_TARGET", target)
        for n, (P, want) in enumerate(zip(draws, expected)):
            hits = count._compile.cache_info().hits
            masks = [mask.ravel() for _, mask in _zero_masks(P, spec, axes)]
            assert np.array_equal(np.concatenate(masks), want), (P, target)
            assert (count._compile.cache_info().hits > hits) == (n > 0), (n, target)


def test_compiled_programs_are_keyed_by_field_and_block_shape():
    # the same exponents compile again on another block shape and over another (p, f)
    for spec in (F5, make_field(7), make_field(5, 2)):
        P = parse("x0^2*x1 + 3*x1*x2 + 1", 3, spec)
        q = spec.q
        for lengths, compiles in (((q, q, q), True), ((q, 2, q), True), ((q, q, q), False)):
            misses = count._compile.cache_info().misses
            list(_zero_masks(P, spec, [np.arange(m) for m in lengths]))
            assert count._compile.cache_info().misses == misses + compiles, (spec.name, lengths)
    assert count._compile.cache_info().currsize == 6


def test_count_caches_hold_at_most_their_bound():
    # one more support than the bound: the program cache and the multidegree memo are full
    space = builtin("projective(1)")
    for k in range(1, count._PROGRAM_CACHE + 2):
        P = parse(f"x0^{k} + x1^{k}", 2, F5)
        assert toric_count_quotient(P, space, F5) == toric_count_orbits(P, space, F5)
    assert count._compile.cache_info().currsize == count._PROGRAM_CACHE
    assert len(count._degrees) == count._PROGRAM_CACHE


def test_toric_counts_keep_a_degree_only_for_homogeneous_input(monkeypatch):
    # a mixed-degree P raises on every call and leaves nothing kept; a homogeneous P is
    # checked once for its orbit and quotient counts, and keeps poly.multidegree's value
    # for its exponents and grading
    space = builtin("projective(2)")
    calls = []
    real = count.multidegree
    monkeypatch.setattr(count, "multidegree", lambda P, G: calls.append(P) or real(P, G))
    mixed = parse("x0 + x1^2", 3, F5)
    for name in ("quotient", "orbits", "quotient"):
        with pytest.raises(NotHomogeneous):
            COUNTS[name](mixed, F5)
    assert len(calls) == 3 and not count._degrees
    P = parse("x0^2 + 2*x1*x2", 3, F5)
    assert toric_count_orbits(P, space, F5) == toric_count_quotient(P, space, F5)
    assert len(calls) == 4
    assert count._degrees == {(tuple(e for e, _ in P.terms), space.grading): real(P, space.grading)}
    # the degree is kept per grading: under weights (1, 1, 2) x0^2 and x1*x2 differ
    with pytest.raises(NotHomogeneous):
        toric_count_quotient(P, builtin("weighted(1,1,2)"), F5)


def test_outer_axes_picks_stay_pinned(monkeypatch):
    # x0^2*P3 + x0*x4*Q3 + x4*x5*Q4 groups by x4, x5, x0 on the GF(5) orbit box and grid;
    # the cofactors of the GF(11) and GF(8) plans group by nothing; A(x1) + x0*B(x1) of
    # degree 20 on a GF(67) box groups by x0
    picks = []
    real = count._outer_axes
    monkeypatch.setattr(
        count, "_outer_axes", lambda *a: picks.append((a[2], real(*a))) or picks[-1][1]
    )
    P = strict_transform(dense_instance(F5, 11))
    toric_count_orbits(P, BLOWUP, F5)
    affine_count(P, F5)
    assert picks == [((2, 2, 5, 5, 5, 5), (4, 5, 0)), ((5,) * 6, (4, 5, 0))]
    for spec in (make_field(11), make_field(2, 3)):
        picks.clear()
        check_esnault(random_instance(spec, 3))
        assert picks and all(outer == () for _, outer in picks), spec.name
    exps = tuple((a, k) for a in (1, 0) for k in range(20, -1, -1))
    assert real(exps, frozenset({0, 1}), (67, 67), 67, 1) == (0,)


@pytest.mark.parametrize("p,f", [(11, 1), (2, 3)], ids=["GF(11)", "GF(2^3)"])
def test_zero_masks_keep_small_cofactors_ungrouped(monkeypatch, p, f):
    # the plans of GF(11) and GF(8) hand the kernel cofactors on 11^3 and 8^3 points,
    # below count._GROUP_MIN_POINTS, so no polynomial of theirs is grouped
    groups = []
    monkeypatch.setattr(count, "_group", lambda *a: groups.append(a))
    check_esnault(random_instance(make_field(p, f), 3))
    assert groups == []


def power_eval(P, point, powers):
    """P at `point`, each x^e by the field's square-and-multiply, so no exponent is reduced;
    `powers` caches x^e by (index of x, e)."""
    total = P.domain.zero()
    for exps, c in P.terms:
        for x, e in zip(point, exps):
            key = (x.to_index(), e)
            if key not in powers:
                powers[key] = x ** e
            c = c * powers[key]
        total = total + c
    return total


@pytest.mark.parametrize(
    "spec", [make_field(7), F9, make_field(2, 3)], ids=["GF(7)", "GF(3^2)", "GF(2^3)"]
)
def test_huge_exponents_enter_the_kernel_reduced(spec):
    # e*log x in int64 wraps for e near 2^62 and fails past 2^63; the kernel uses e mod q-1
    rng = SplitMix64(spec.q + 1)
    huge = (2**62 + 1, 2**63 + 5, 10**20 - 1, 3**90)
    elements, powers = enumerate_field(spec), {}
    for _ in range(8):
        nvars = 1 + rng.next_below(3)
        system = []
        for _ in range(1 + rng.next_below(2)):
            mapping = {}
            for _ in range(1 + rng.next_below(3)):
                exps = tuple(
                    (0, 1 + rng.next_below(3), huge[rng.next_below(4)])[rng.next_below(3)]
                    for _ in range(nvars)
                )
                mapping[exps] = spec.from_index(1 + rng.next_below(spec.q - 1))
            system.append(MultiPoly.from_dict(nvars, spec, mapping))
        points = list(itertools.product(elements, repeat=nvars))
        expected = [all(power_eval(P, x, powers).is_zero for P in system) for x in points]
        axes = [np.arange(spec.q)] * nvars
        mask = np.concatenate([m.ravel() for _, m in _zero_masks(system, spec, axes)])
        assert mask.tolist() == expected, system
        zeros = sum(power_eval(system[0], x, powers).is_zero for x in points)
        assert affine_count(system[0], spec) == zeros, system[0]


def test_frozen_counts():
    assert affine_count(parse("x0*x1 + x2*x3", 4, F2), F2) == 10
    assert affine_count(parse("x0^2 + x1^2", 2, F3), F3) == 1
    # 2^62+1 = 5 (mod 6): x0^5 + x1^5 has 7 zeros over GF(7); 10^20-1 = 3 (mod 4) over GF(5)
    E = 2**62 + 1
    assert affine_count(parse(f"x0^{E} + x1^{E}", 2, make_field(7)), make_field(7)) == 7
    E = 10**20 - 1
    assert affine_count(parse(f"x0^{E} + x1^{E}", 2, F5), F5) == 5


def test_degenerate_inputs():
    assert affine_count(MultiPoly.zero(3, F3), F3) == 27
    assert affine_count(MultiPoly.constant(3, F3, F3.one()), F3) == 0
    assert affine_count(MultiPoly.zero(0, F3), F3) == 1
    assert affine_count(MultiPoly.constant(0, F3, F3.one()), F3) == 0


def test_work_cap_enforced():
    # every variable of the zero polynomial is absent, so its count evaluates nothing
    assert affine_count(MultiPoly.zero(30, F5), F5, work_cap=0) == 5**30
    # x0^2 + ... + x29^2 leaves the kernel a box of 5^29 points (x0 = 1) and smaller ones
    squares = MultiPoly.from_dict(
        30, F5, {tuple(2 * (i == j) for i in range(30)): 1 for j in range(30)}
    )
    with pytest.raises(CapExceeded):
        affine_count(squares, F5, work_cap=10**6)
    with pytest.raises(CapExceeded, match=f"work cap {DEFAULT_WORK_CAP}$"):
        affine_count(squares, F5)


def kernel_count(P, spec):
    """#Z(P) from the zero-mask kernel on the whole grid, with no planner."""
    axes = [np.arange(spec.q)] * P.nvars
    return sum(int(np.count_nonzero(mask)) for _, mask in _zero_masks(P, spec, axes))


def dense_instance(spec, seed):
    """An instance whose 35 coefficients are all nonzero."""
    rng = SplitMix64(seed)
    p3, q3, q4 = (
        poly_from_coefficients(
            spec, d, [1 + rng.next_below(spec.q - 1) for _ in range(comb(d + 2, 2))]
        )
        for d in (3, 3, 4)
    )
    return QuinticInstance(field=spec, p3=p3, q3=q3, q4=q4)


@pytest.mark.parametrize(
    "p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)],
    ids=lambda v: str(v),
)
def test_planned_count_matches_kernel_and_fiber_oracle(p, f):
    spec = make_field(p, f)
    zero = MultiPoly.zero(3, spec)
    instances = [dense_instance(spec, 7 * p + f)]
    for part in ("p3", "q3", "q4"):  # sparse: each of P3, Q3, Q4 is zero in turn
        instances.append(dataclasses.replace(random_instance(spec, 100 + p + f), **{part: zero}))
    for inst in instances:
        P = strict_transform(inst)
        planned = affine_count(P, spec)
        assert planned == kernel_count(P, spec) == blowup_fiber_count(inst), inst.to_dict()
        if spec.q <= 3:
            assert planned == naive_affine_count(P, spec)


#: (field, variables) pairs whose grids are above `count._PLAN_MIN_POINTS`
SHAPED_GRIDS = [(F2, 15), (F3, 9), (F4, 8), (F5, 7), (F9, 5)]


@st.composite
def shaped_poly(draw, grid=None):
    """A polynomial drawn so that each planner rule has inputs it fits.

    Its grid, drawn from SHAPED_GRIDS unless given, is above
    `count._PLAN_MIN_POINTS`, the smallest box the planner expands, so that
    the rules apply at the root.
    """
    spec, nvars = grid or draw(st.sampled_from(SHAPED_GRIDS))

    def terms(n, max_exp=2):
        return {
            tuple(draw(st.integers(0, max_exp)) for _ in range(n)):
            spec.from_index(draw(st.integers(1, spec.q - 1)))
            for _ in range(draw(st.integers(0, 3)))
        }

    shape = draw(st.sampled_from(["linear", "homogeneous", "absent", "any"]))
    if shape == "linear":  # A + x_j*B with x_j in neither
        j = draw(st.integers(0, nvars - 1))
        A, B = terms(nvars - 1), terms(nvars - 1)
        mapping = {e[:j] + (0,) + e[j:]: c for e, c in A.items()}
        for e, c in B.items():
            mapping[e[:j] + (1,) + e[j:]] = c
    elif shape == "homogeneous":  # x0 makes up every term's degree to the largest
        raw = terms(nvars)
        top = max((sum(e) for e in raw), default=0)
        mapping = {(top - sum(e[1:]),) + e[1:]: c for e, c in raw.items()}
    elif shape == "absent":  # the last variable occurs nowhere
        mapping = {e + (0,): c for e, c in terms(nvars - 1).items()}
    else:
        mapping = terms(nvars, 3)
    return MultiPoly.from_dict(nvars, spec, mapping)


@settings(deadline=None)
@given(shaped_poly())
def test_planner_matches_kernel(P):
    # grids this large are slow for the naive oracle; the unplanned kernel stands in,
    # which test_affine_count_matches_oracle checks against it on small grids
    stats = {}
    assert affine_count(P, P.domain, stats=stats) == kernel_count(P, P.domain)
    # a rule is taken only when it shrinks the work below the full grid
    assert stats["points"] <= P.domain.q ** P.nvars


@st.composite
def shaped_system(draw):
    """The nonzero ones of one to three `shaped_poly` polynomials on one grid, and its m."""
    grid = draw(st.sampled_from(SHAPED_GRIDS))
    polys = draw(st.lists(shaped_poly(grid), min_size=1, max_size=3))
    return [P for P in polys if not P.is_zero], grid[1]


@settings(deadline=None)
@given(shaped_system())
def test_homogeneity_lattice_matches_rowwise_oracle(system_m):
    # one HNF of all the exponent differences against one HNF per difference
    system, m = system_m
    lattice = _homogeneity_lattice(system, m)
    reference = rowwise_homogeneity_lattice(system, m)
    for c in lattice:
        for P in system:
            assert len({sum(a * x for a, x in zip(e, c)) for e, _ in P.terms}) == 1
    assert Matrix(lattice).rank() == Matrix(reference).rank()
    for j in range(m):  # the gcd the chart rule reads does not depend on the basis
        assert gcd(*(c[j] for c in lattice)) == gcd(*(c[j] for c in reference))


SQUARES = " + ".join(f"x{i}^2" for i in range(1, 9))


@pytest.mark.parametrize(
    "text,nvars,p,rule",
    [
        ("x0^2 - 2", 9, 3, "absent"),
        (f"x0*x1 + {SQUARES} + 1", 9, 3, "linear"),
        (f"x0^2 + {SQUARES}", 9, 3, "chart"),
        # weights (2, 1): a chart on x1 only, as t -> t^2 does not cover F_137^*
        ("x0^2 - x1^4", 2, 137, "chart"),
        # weights (3, 2): no chart at all, as 3 and 2 divide 138
        ("x0^2 - x1^3", 2, 139, "kernel"),
        (f"x0^2 + {SQUARES} + 1", 9, 3, "kernel"),
    ],
)
def test_each_rule_fires(text, nvars, p, rule):
    # every grid is above count._PLAN_MIN_POINTS, so the planner works on the whole of it
    spec = make_field(p)
    P = parse(text, nvars, spec)
    stats = {}
    assert affine_count(P, spec, stats=stats) == naive_affine_count(P, spec)
    assert stats["rules"].get(rule, 0) > 0, stats


def test_small_boxes_go_to_the_kernel_whole():
    P = parse(f"x0^2 + {SQUARES}", 9, F2)  # 2^9 points
    stats = {}
    assert affine_count(P, F2, stats=stats) == naive_affine_count(P, F2)
    assert stats["rules"] == {"kernel": 1} and stats["points"] == 2**9


def test_work_budget_covers_plan_and_strata(monkeypatch):
    spec = make_field(2, 5)  # GF(32): the whole grid, 32^6, is above the default cap
    inst = random_instance(spec, 1)
    P = strict_transform(inst)
    rep = check_esnault(inst, stats={})
    assert rep.passed and rep.n_exceptional == 2 * 32**3 - 1
    total = rep.stats["points"]
    assert 0 < total < DEFAULT_WORK_CAP < 32**6
    with pytest.raises(CapExceeded, match=f"^{total} evaluations exceed the work cap {total - 1}$"):
        check_esnault(inst, work_cap=total - 1)
    assert check_esnault(inst, work_cap=total).n_toric == rep.n_toric
    # the strict transform restricts to 0 on both strata, so they cost no points
    assert exceptional_on_hypersurface(P, BLOWUP, spec, work_cap=0) == rep.n_exceptional
    untouched = {}
    with pytest.raises(CapExceeded):
        affine_count(P, spec, work_cap=total - 1, stats=untouched)
    assert untouched == {}  # a refused count records nothing
    assert affine_count(P, spec, work_cap=total) == rep.n_affine
    # F restricts to x0^2*x5 + x4^2*x5 on x1 = x2 = x3 = 0, which leaves a kernel box;
    # the affine and exceptional plans are charged together, before any evaluation
    F = parse("x0^2*x5 + x4^2*x5 + x1^2*x5^3 + x1*x2*x5^3 + x0*x3*x5^2", 6, spec)
    stats, affine = {}, {}
    n_aff, n_exc, n_toric, _ = count._toric_counts(F, BLOWUP, spec, DEFAULT_WORK_CAP, stats)
    assert affine_count(F, spec, stats=affine) == n_aff
    strata = stats["points"] - affine["points"]
    assert strata > 0
    evaluated = []
    real = count._zero_masks
    monkeypatch.setattr(count, "_zero_masks", lambda *a: evaluated.append(a) or real(*a))
    for cap in (0, strata - 1):
        with pytest.raises(CapExceeded, match=f"^{strata} evaluations"):
            exceptional_on_hypersurface(F, BLOWUP, spec, work_cap=cap)
    with pytest.raises(CapExceeded, match=f"^{stats['points']} evaluations"):
        toric_count_quotient(F, BLOWUP, spec, work_cap=stats["points"] - 1)
    assert not evaluated
    assert exceptional_on_hypersurface(F, BLOWUP, spec, work_cap=strata) == n_exc
    assert toric_count_quotient(F, BLOWUP, spec, work_cap=stats["points"]) == n_toric


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        affine_count(parse("x0", 1, F3), F2)


P2 = builtin("projective(2)")

#: every exact count, as (P, spec) -> count on projective(2) where it takes a space
COUNTS = {
    "affine": affine_count,
    "exceptional": lambda P, spec: exceptional_on_hypersurface(P, P2, spec),
    "quotient": lambda P, spec: toric_count_quotient(P, P2, spec),
    "orbits": lambda P, spec: toric_count_orbits(P, P2, spec),
}


def test_orbit_caps_charge_the_grid_and_the_canonicalized_solutions():
    # the seen bitmap covers the 125-point grid; the box x0 in {0, 1} holds 49
    # non-exceptional points, each canonicalized against 4 torus elements
    zero = MultiPoly.zero(3, F5)
    with pytest.raises(CapExceeded, match="orbit-enumeration cap"):
        toric_count_orbits(zero, P2, F5, work_cap=124)
    with pytest.raises(CapExceeded, match="orbit canonicalization exceeds the work cap"):
        toric_count_orbits(zero, P2, F5, work_cap=195)
    assert toric_count_orbits(zero, P2, F5, work_cap=196) == 31


@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_reject_a_polynomial_over_another_field(name):
    with pytest.raises(FieldMismatch):
        COUNTS[name](parse("x0 + x1 + x2", 3, F3), F5)


@pytest.mark.parametrize("name", ["exceptional", "quotient", "orbits"])
@pytest.mark.parametrize("text", ["0", "x0 + x1"])
def test_space_counts_reject_the_wrong_arity(name, text):
    with pytest.raises(ToricountError):
        COUNTS[name](parse(text, 2, F5), F5)


@pytest.mark.parametrize("name", ["quotient", "orbits"])
def test_toric_counts_check_homogeneity_before_the_field(name):
    # the order of the checks fixes which error an input with several faults raises
    with pytest.raises(NotHomogeneous):
        COUNTS[name](parse("x0 + x1^2", 3, F3), F5)


def test_check_esnault_computes_the_multidegree_once(monkeypatch):
    calls = []

    def multidegree(P, G):
        calls.append(P.nvars)
        return real(P, G)

    real = count.multidegree
    monkeypatch.setattr(count, "multidegree", multidegree)
    rep = check_esnault(random_instance(F3, 4))
    assert calls == [6] and rep.mu == 1


# ---------------------------------------------------------------------------
# exceptional sets and toric quotient counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [F2, F3, F4], ids=lambda s: s.name)
def test_exceptional_counts(spec):
    q = spec.q
    zero6 = MultiPoly.zero(6, spec)
    assert exceptional_on_hypersurface(zero6, BLOWUP, spec) == 2 * q**3 - 1
    assert union_subspace_count(BLOWUP, q) == 2 * q**3 - 1
    strict = strict_transform(random_instance(spec, 11))
    assert exceptional_on_hypersurface(strict, BLOWUP, spec) == 2 * q**3 - 1


def seeded_poly_off_strata(space, spec, rng, nterms=3):
    """Random terms, plus one term off each stratum, so that P restricts to nonzero on each."""
    rho = space.grading.rho
    supports = [range(rho)] * nterms + [
        [i for i in range(rho) if i not in stratum] for stratum in space.strata
    ]
    mapping = {}
    for support in supports:
        exps = tuple(rng.next_below(3) if i in support else 0 for i in range(rho))
        mapping[exps] = spec.from_index(1 + rng.next_below(spec.q - 1))
    return MultiPoly.from_dict(rho, spec, mapping)


#: (P^1)^3: three disjoint strata {x0 = x1 = 0}, {x2 = x3 = 0}, {x4 = x5 = 0}, 7 unions
P1_CUBED = space_from_fan(
    make_fan(
        3,
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    ),
    name="P1xP1xP1",
)

#: nested and repeated strata: V_(0,1) and V_(1,2,3) lie in V_(0) and V_(2,3),
#: and V_(0) comes twice, so most unions merge to coefficient 0
NESTED = Space(
    name="nested-strata",
    grading=GradingData(weights=((1,),) * 4),
    strata=((0,), (0, 1), (2, 3), (0,), (1, 2, 3)),
)


def test_strata_roots_merge_unions():
    assert P1_CUBED.strata == ((0, 1), (2, 3), (4, 5))
    roots = count._strata_roots(MultiPoly.zero(6, F2), P1_CUBED)
    assert sorted((P.nvars, c) for c, P in roots) == [(0, 1)] + [(2, -1)] * 3 + [(4, 1)] * 3
    # V_(0) + V_(2,3) - V_(0,2,3)
    roots = count._strata_roots(MultiPoly.zero(4, F2), NESTED)
    assert sorted((P.nvars, c) for c, P in roots) == [(1, -1), (2, 1), (3, 1)]


@pytest.mark.parametrize(
    "space",
    [builtin(n) for n in ("projective(2)", "blowup_p2", "weighted(1,1,2)", "blowup_p4_line")]
    + [P1_CUBED, NESTED],
    ids=lambda sp: sp.name,
)
def test_exceptional_count_matches_oracle(space):
    rng = SplitMix64(len(space.name))
    for spec in (F2, F3):
        zero = MultiPoly.zero(space.grading.rho, spec)
        assert exceptional_on_hypersurface(zero, space, spec) == union_subspace_count(space, spec.q)
        assert naive_exceptional_count(zero, space, spec) == union_subspace_count(space, spec.q)
        for _ in range(4):
            P = seeded_poly_off_strata(space, spec, rng)
            expected = naive_exceptional_count(P, space, spec)
            assert exceptional_on_hypersurface(P, space, spec) == expected, print_poly(P)


def test_exceptional_count_plans_the_strata():
    # V_(0) holds 131^2 points, above count._PLAN_MIN_POINTS, so the planner
    # applies the linear rule (in x1) to P|x0=0 = x1*(x2 - 1) + x2^2 + 1
    spec = make_field(131)
    space = Space(
        name="two-strata",
        grading=GradingData(weights=((1,),) * 3),
        strata=((0,), (1, 2)),
    )
    P = parse("x1*x2 + x2^2 - x1 + 1 + x0*x1^2", 3, spec)
    rules = Counter()
    count._plan(count._strata_roots(P, space), spec.q, rules)
    assert rules["linear"] > 0, rules
    assert exceptional_on_hypersurface(P, space, spec) == naive_exceptional_count(P, space, spec)


@pytest.mark.parametrize("spec", [F2, F3, F4], ids=lambda s: s.name)
def test_full_variety_counts(spec):
    q = spec.q
    zero6 = MultiPoly.zero(6, spec)
    expected = (q * q + q + 1) ** 2
    assert toric_count_quotient(zero6, BLOWUP, spec) == expected
    assert toric_count_orbits(zero6, BLOWUP, spec) == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("spec", [F2, F3], ids=lambda s: s.name)
def test_projective_space_counts(d, spec):
    sp = builtin(f"projective({d})")
    zero = MultiPoly.zero(d + 1, spec)
    expected = sum(spec.q**i for i in range(d + 1))
    assert toric_count_quotient(zero, sp, spec) == expected
    assert toric_count_orbits(zero, sp, spec) == expected


@pytest.mark.parametrize(
    "name", ["projective(2)", "projective(3)", "blowup_p2", "blowup_p4_line"]
)
def test_quotient_equals_orbits_on_fans(name):
    # On actual fans the group acts freely off the exceptional set, so the
    # quotient formula and direct orbit enumeration must agree.
    sp = builtin(name)
    assert sp.fan is not None
    rng = SplitMix64(2024)
    for spec in (F2, F3):
        for _ in range(3):
            d = tuple(2 if j == 0 else 1 for j in range(sp.grading.r))
            P = random_homogeneous(sp.grading, d, spec, rng)
            assert toric_count_quotient(P, sp, spec) == toric_count_orbits(P, sp, spec)


@pytest.mark.parametrize("name", ["projective(2)", "blowup_p2"])
def test_quotient_equals_orbits_with_a_monomial_factor(name):
    # x0*x1^2*R: the orbit box holds x0 in {0, 1}, a variable of the monomial factor
    sp = builtin(name)
    rng = SplitMix64(7)
    rho, r = sp.grading.rho, sp.grading.r
    for spec in (F3, F5):
        factor = MultiPoly.monomial(rho, spec, (1, 2) + (0,) * (rho - 2), spec.one())
        P = factor * random_homogeneous(sp.grading, (1,) * r, spec, rng)
        assert toric_count_orbits(P, sp, spec) == toric_count_quotient(P, sp, spec)


def test_weighted_grading_stabilizers():
    # weighted(1,1,2) is grading-first (no fan); when gcd(2, q-1) > 1 the
    # scaling action has mu_2 stabilizers along {x0 = x1 = 0}, so orbit
    # enumeration overcounts the quotient. The curve 2*x1^2 = 0 in P(1,1,2)
    # is P(1,2) ~ P^1 with q+1 = 4 points; the quotient formula finds them,
    # while F_3 splits the point (0:0:1) into two rational orbits.
    sp = builtin("weighted(1,1,2)")
    assert sp.fan is None
    P = parse("2*x1^2", 3, F3)
    assert toric_count_quotient(P, sp, F3) == 4
    assert toric_count_orbits(P, sp, F3) == 5
    assert naive_toric_orbits(P, sp, F3) == 5
    # over F_4 the character mu -> mu^2 is injective on a group of order 3,
    # the action is free again, and the two counts agree
    P4 = random_homogeneous(sp.grading, (2,), F4, SplitMix64(8))
    assert toric_count_quotient(P4, sp, F4) == toric_count_orbits(P4, sp, F4)


#: weights (2), (2): for odd q the shifts 2*mu of no coordinate take every value mod q-1,
#: so the orbit count evaluates the whole grid
EVEN_WEIGHTS = Space(
    name="weights(2,2)",
    grading=GradingData(weights=((2,), (2,))),
    strata=((0, 1),),
)


@pytest.mark.parametrize(
    "sp, fields",
    [
        pytest.param(builtin("projective(2)"), (F2, F3), id="projective(2)"),
        pytest.param(builtin("blowup_p2"), (F2, F3), id="blowup_p2"),
        # over GF(5) and GF(9) the weight 2 shares a factor with q-1: the box fixes x0 only
        pytest.param(builtin("weighted(1,1,2)"), (F2, F3, F5, F9), id="weighted(1,1,2)"),
        # the box fixes x0 and x1
        pytest.param(BLOWUP, (F2, F3), id="blowup_p4_line"),
        pytest.param(EVEN_WEIGHTS, (F3, F5), id="weights(2,2)"),
    ],
)
def test_orbits_match_naive_orbit_sets(sp, fields):
    rng = SplitMix64(55)
    for spec in fields:
        for _ in range(2):
            d = tuple(2 for _ in range(sp.grading.r))
            P = random_homogeneous(sp.grading, d, spec, rng)
            assert toric_count_orbits(P, sp, spec) == naive_toric_orbits(P, sp, spec)
        zero = MultiPoly.zero(sp.grading.rho, spec)
        assert toric_count_orbits(zero, sp, spec) == naive_toric_orbits(zero, sp, spec)


@pytest.mark.parametrize(
    "sp, lengths, orbits",
    [(BLOWUP, [2, 2, 5, 5, 5, 5], 31 ** 2), (EVEN_WEIGHTS, [5, 5], 12)],
    ids=["blowup_p4_line", "weights(2,2)"],
)
def test_orbit_count_evaluates_a_box_that_meets_every_orbit(monkeypatch, sp, lengths, orbits):
    # the torus moves every nonzero x0, x1 of a blown-up P^4 point to 1; on EVEN_WEIGHTS over
    # GF(5) it moves no coordinate to 1, so the box is the whole grid
    evaluated = []

    def spy(system, spec, axes):
        evaluated.append([len(a) for a in axes])
        return _zero_masks(system, spec, axes)

    monkeypatch.setattr(count, "_zero_masks", spy)
    assert toric_count_orbits(MultiPoly.zero(sp.grading.rho, F5), sp, F5) == orbits
    assert evaluated == [lengths]


@pytest.mark.parametrize(
    "sp, spec",
    [(BLOWUP, F5), (BLOWUP, make_field(7)), (builtin("weighted(1,1,3)"), F5)],
    ids=["blowup_p4_line-GF(5)", "blowup_p4_line-GF(7)", "weighted(1,1,3)-GF(5)"],
)
def test_orbits_agree_when_torus_elements_are_chunked(monkeypatch, sp, spec):
    # a _BLOCK_TARGET of q points cuts the box into rows of the last axis and the torus
    # elements into chunks of at most q // n for n solutions; the counts do not change.
    # The oracle's orbit sets take over a minute on the 7^6 grid, so the blowup is
    # checked against the quotient and the count in one chunk, the weighted space too
    # against the oracle
    P = random_homogeneous(sp.grading, (2,) * sp.grading.r, spec, SplitMix64(21))
    whole = toric_count_orbits(P, sp, spec)
    assert whole == toric_count_quotient(P, sp, spec)
    if sp is not BLOWUP:
        assert whole == naive_toric_orbits(P, sp, spec)
    rows = []
    real = np.take
    monkeypatch.setattr(
        np, "take", lambda a, *rest, **kw: rows.append(len(a)) or real(a, *rest, **kw)
    )
    monkeypatch.setattr(count, "_BLOCK_TARGET", spec.q)
    assert toric_count_orbits(P, sp, spec) == whole
    torus = (spec.q - 1) ** sp.grading.r
    assert rows and min(rows) <= torus // 3


def test_orbit_count_reduces_weights_before_int64():
    # 2^62+3 = 1 (mod 6): in int64 the shifts mu*w wrapped and split orbits, 9 and not 8
    space = builtin(f"weighted(1,{2**62 + 3})")
    zero = MultiPoly.zero(2, make_field(7))
    assert toric_count_orbits(zero, space, make_field(7)) == 8
    assert toric_count_quotient(zero, space, make_field(7)) == 8


def test_orbit_count_without_a_torus():
    # one cone spanning the lattice: rank 0, so no torus acts and the orbits are points
    space = space_from_fan(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]))
    assert space.grading.r == 0 and space.strata == ()
    P = parse("x0", 2, F5)
    assert toric_count_orbits(P, space, F5) == toric_count_quotient(P, space, F5) == 5


def test_quotient_requires_free_grading():
    # torsion Z/2 in the class group: quotient and orbit counts must refuse
    fan = make_fan(2, [(1, 1), (1, -1)], [(0,), (1,)])
    with pytest.raises(TorsionClassGroup):
        space_from_fan(fan, name="torsion")
    # a weight column with mixed signs is not an effective grading: no Space can hold it
    with pytest.raises(NonEffectiveGrading):
        GradingData(weights=((1,), (-1,)))


def test_non_integral_quotient_guard():
    # A^1 with nothing removed: the scaling action is not free at the origin,
    # so (N_affine - N_exceptional) is not divisible by q - 1.
    space = Space(
        name="affine-line",
        grading=GradingData(weights=((1,),)),
        strata=(),
    )
    with pytest.raises(NonIntegralQuotient):
        toric_count_quotient(MultiPoly.zero(1, F3), space, F3)


# ---------------------------------------------------------------------------
# congruence checks
# ---------------------------------------------------------------------------

def fermat_strict(spec):
    inst_p3 = parse("x0^3 + x1^3 + x2^3", 3, spec)
    inst_q3 = parse("x0*x1*x2", 3, spec)
    inst_q4 = parse("x0^4 + x1^4 + x2^4", 3, spec)
    from toricount.quintic import QuinticInstance

    return QuinticInstance(field=spec, p3=inst_p3, q3=inst_q3, q4=inst_q4)


def test_check_cw_blowup():
    P = strict_transform(fermat_strict(F2))
    rep = check_cw(P, BLOWUP.grading, F2)
    assert rep.passed and rep.kind == "CW"
    assert rep.modulus == 2 and rep.residue == 0 and rep.n_affine % 2 == 0
    assert degree_bounds(P, BLOWUP.grading) == (5, 2)
    assert total_generator_degree(BLOWUP.grading) == (5, 3)


def test_check_cw_rejects_large_degree():
    with pytest.raises(HypothesisNotMet):
        check_cw(parse("x0^5*x1^5", 2, F2), standard_grading(2), F2)


@pytest.mark.parametrize("spec", [F2, F3, F5], ids=lambda s: s.name)
def test_check_cw_weighted_double_cover(spec):
    wsp = builtin("weighted(1,1,1,1,1,2)")
    P = parse("x5^2 - (x0^5 + x1^5 + x2^5 + x3^5 + x4^5 + x0*x1*x2*x3*x4)", 6, spec)
    rep = check_cw(P, wsp.grading, spec)
    assert rep.passed


def test_check_cw_on_projective_space():
    # X_d in P^n with d <= n: N = 1 + (q-1)*#X and q ≡ 0 (mod p), so N ≡ 0 iff #X ≡ 1
    for spec in (F2, F3, F4, F5):
        for n in range(2, 5):
            space = builtin(f"projective({n})")
            for d, seed in itertools.product(range(1, n + 1), range(3)):
                P = random_homogeneous(space.grading, (d,), spec, SplitMix64(seed))
                rep = check_cw(P, space.grading, spec)
                n_proj = toric_count_quotient(P, space, spec)
                case = (spec.name, n, d, seed)
                assert rep.passed and rep.n_affine == 1 + (spec.q - 1) * n_proj, case
                assert n_proj % spec.p == 1, case
    with pytest.raises(HypothesisNotMet):
        check_cw(parse("x0^5*x1", 6, F3), builtin("projective(5)").grading, F3)
    # a nonzero constant cuts out nothing: no point, not -1 of them
    for spec in (F2, F3):
        assert toric_count_quotient(MultiPoly.constant(3, spec, 1), P2, spec) == 0


def test_check_ax():
    rep = check_ax(strict_transform(fermat_strict(F4)), BLOWUP.grading, F4)
    assert rep.passed and rep.mu == 1 and rep.modulus == 4
    P = random_homogeneous(standard_grading(5), (3,), F3, SplitMix64(77))
    rep2 = check_ax(P, standard_grading(5), F3)
    assert rep2.passed and rep2.mu == 1 and rep2.mu_classical == 1


def test_check_esnault_frozen_f2():
    rep = check_esnault(fermat_strict(F2))
    assert rep.kind == "Esnault" and rep.q == 2
    assert rep.n_exceptional == 15
    assert rep.passed and rep.residue == 1
    assert rep.ax_pass is True and rep.mu == 1
    # quotient consistency: (q-1)^2 * N_toric + N_exc = N_aff
    assert rep.n_affine == rep.n_toric * (2 - 1) ** 2 + rep.n_exceptional


@settings(max_examples=12)
@given(st.sampled_from([F2, F3, F4]), st.integers(0, 400))
def test_check_esnault_random(spec, seed):
    rep = check_esnault(random_instance(spec, seed))
    q = spec.q
    assert rep.passed and rep.residue == 1
    assert rep.n_exceptional == 2 * q**3 - 1
    assert (rep.n_affine - rep.n_exceptional) % (q - 1) ** 2 == 0
    assert rep.ax_pass


# (p, f, seed, n_affine, n_exceptional, n_toric) of check_esnault(random_instance(GF(p^f), seed))
# and toric_count_orbits of strict transforms over GF(5), by seed. The values were
# recorded with the earlier counting code (separate prime-field, table and orbit
# kernels and an inclusion-exclusion over strata), at fields the oracle cannot reach;
# the GF(2^6) and GF(2^8) rows with the one kernel when it still added F_2 digits.
GOLDEN_ESNAULT = [
    (7, 1, 1, 21889, 685, 589),
    (7, 1, 2, 19621, 685, 526),
    (7, 1, 3, 19873, 685, 533),
    (2, 3, 1, 37136, 1023, 737),
    (2, 3, 2, 39488, 1023, 785),
    (3, 2, 1, 76401, 1457, 1171),
    (3, 2, 2, 72369, 1457, 1108),
    (11, 1, 1, 185361, 2661, 1827),
    (11, 1, 2, 188661, 2661, 1860),
    (2, 6, 1, 1109562112, 524287, 279425),
    (2, 6, 2, 1111086208, 524287, 279809),
    (2, 8, 1, 1108367577856, 33554431, 17044737),
    (2, 8, 2, 1108167821056, 33554431, 17041665),
    # recorded before the kernel factored out monomials: the chart rule plans GF(13), and
    # the plans of GF(257) and GF(3^5) (packed digits) hold 1-D boxes of bare monomials
    (13, 1, 3, 421993, 4393, 2900),
    (257, 1, 3, 1129980560897, 33949185, 17241617),
    (3, 5, 3, 854119573209, 28697813, 14583889),
    # recorded before the kernel grouped terms by their outer monomial, which it does on
    # the two-variable boxes of these plans (packed digits for GF(17^2), XOR for GF(2^10))
    (17, 2, 3, 2030184706753, 48275137, 24475989),
    (2, 10, 3, 1128028196242432, 2147483647, 1077873665),
]
GOLDEN_ORBITS_F5 = {1: 281, 2: 246, 3: 236}


def test_golden_counts():
    for p, f, seed, *counts in GOLDEN_ESNAULT:
        rep = check_esnault(random_instance(make_field(p, f), seed))
        assert [rep.n_affine, rep.n_exceptional, rep.n_toric] == counts, (p, f, seed)
    for seed, orbits in GOLDEN_ORBITS_F5.items():
        P = strict_transform(random_instance(F5, seed))
        assert toric_count_orbits(P, BLOWUP, F5) == orbits, seed


def test_blowup_space_cached():
    assert blowup_p4_space() is blowup_p4_space()
    assert blowup_p4_space().name == "blowup_p4_line"


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_dict_and_csv():
    rep = check_esnault(random_instance(F3, 5))
    d = rep.to_dict()
    assert d["pass"] is True and "timing" not in d and "stats" not in d
    assert rep.to_dict(include_timing=True)["timing"]["elapsed_s"] >= 0
    row = rep.to_csv_row()
    assert len(row) == len(CongruenceReport.CSV_FIELDS)
    assert CongruenceReport.CSV_FIELDS == (
        "kind", "q", "p", "f", "n_affine", "n_exceptional", "n_toric",
        "modulus", "residue", "pass", "mu", "mu_classical", "ax_pass",
    )
    assert list(d) == [
        "kind", "q", "p", "f", "n_affine", "n_exceptional", "n_toric",
        "modulus", "residue", "pass", "mu", "ax_pass",
    ]
    # reports are slotted: a retained one carries no per-instance __dict__
    assert not hasattr(rep, "__dict__")
    with_stats = check_esnault(random_instance(F3, 5), stats={})
    assert set(with_stats.to_dict()["stats"]) == {"rules", "points", "point_terms"}
    assert with_stats.to_csv_row() == row
