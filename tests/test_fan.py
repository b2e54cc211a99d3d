import math
import time

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from toricount.count import check_ax, check_cw, exceptional_on_hypersurface
from toricount.errors import (
    ArityMismatch,
    CapExceeded,
    InvalidParams,
    NonEffectiveGrading,
    NonPrimitiveRay,
    NonSimplicialFan,
    ToricountError,
    TorsionClassGroup,
)
from toricount.fan import (
    BUILTIN_TEMPLATES,
    GradingData,
    blowup_p2_fan,
    blowup_p4_line_fan,
    _column_hnf,
    _invariant_factors,
    builtin,
    grading_from_fan,
    make_fan,
    parse_fan_text,
    primitive_collections,
    projective_fan,
    space_from_fan,
    unimodular_column_equivalent,
    weighted_space,
)
from toricount.ff import make_field, parse_field_name
from toricount.poly import MultiPoly, degree_bounds, multidegree, parse
from toricount.rng import SplitMix64

from oracles import sympy_grading, union_subspace_count


# ---------------------------------------------------------------------------
# builtin fans: frozen combinatorics and gradings
# ---------------------------------------------------------------------------

def test_projective_fan_structure():
    for d in (1, 2, 3, 4):
        fan = projective_fan(d)
        assert fan.rho == d + 1
        assert fan.rays[0] == tuple([-1] * d)
        assert len(fan.max_cones) == d + 1
        assert primitive_collections(fan) == (tuple(range(d + 1)),)
        G = grading_from_fan(fan)
        assert G.r == 1 and G.weights == ((1,),) * (d + 1)


def test_blowup_p2_frozen():
    fan = blowup_p2_fan()
    assert fan.rays == ((-1, -1), (1, 0), (0, 1), (1, 1))
    assert fan.max_cones == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert primitive_collections(fan) == ((0, 3), (1, 2))
    G = grading_from_fan(fan)
    assert G.weights == ((1, 1), (1, 0), (1, 0), (0, 1))


def test_blowup_p4_line_frozen():
    fan = blowup_p4_line_fan()
    assert fan.rho == 6 and fan.dim == 4
    assert len(fan.max_cones) == 9
    assert primitive_collections(fan) == ((0, 4, 5), (1, 2, 3))
    G = grading_from_fan(fan)
    assert G.weights == ((1, 1), (1, 0), (1, 0), (1, 0), (1, 1), (0, 1))
    assert G.r == 2


def test_weighted_space():
    sp = weighted_space(1, 1, 2)
    assert sp.fan is None
    assert sp.grading.weights == ((1,), (1,), (2,))
    assert sp.strata == ((0, 1, 2),)
    with pytest.raises(InvalidParams):
        weighted_space()
    with pytest.raises(InvalidParams):
        weighted_space(1, 0, 2)


def test_builtin_parsing():
    assert builtin("projective(3)").grading.rho == 4
    assert builtin("blowup_p2").name == "blowup_p2"
    assert builtin("weighted(1,1,1,1,1,2)").grading.weights[-1] == (2,)
    for bad in ("projective", "projective()", "nosuch", "weighted(1,-1)"):
        with pytest.raises(InvalidParams):
            builtin(bad)
    assert len(BUILTIN_TEMPLATES) == 4


def test_projective_dimension_is_checked_before_the_rays_are_built():
    # P^d has d+1 rays of length d: a large d once built them all before validate refused it
    t0 = time.monotonic()
    for d in (0, 16, 10**9, 10**100):
        with pytest.raises(InvalidParams, match="projective dimension must be in 1..15"):
            builtin(f"projective({d})")
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# exceptional sets and counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_exceptional_counts(q):
    # the zero polynomial vanishes on the whole exceptional set
    spec = parse_field_name(f"GF({q})")
    expected = {
        "projective(2)": 1,
        "blowup_p2": 2 * q * q - 1,
        "blowup_p4_line": 2 * q ** 3 - 1,
        "weighted(1,1,2)": 1,
    }
    for name, count in expected.items():
        space = builtin(name)
        zero = MultiPoly.zero(space.grading.rho, spec)
        assert exceptional_on_hypersurface(zero, space, spec) == count, name
        assert union_subspace_count(space, q) == count, name


def test_exceptional_strata_from_primitive_collections():
    sp = space_from_fan(blowup_p4_line_fan())
    assert set(sp.strata) == {(0, 4, 5), (1, 2, 3)}


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def test_non_primitive_ray():
    with pytest.raises(NonPrimitiveRay):
        make_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NonPrimitiveRay):
        make_fan(2, [(0, 0), (0, 1), (1, 0)], [(0, 1)])


def test_duplicate_ray():
    with pytest.raises(InvalidParams):
        make_fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2)])


def test_non_simplicial():
    with pytest.raises(NonSimplicialFan):
        make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])


def test_bad_cone_indices():
    with pytest.raises(InvalidParams):
        make_fan(2, [(1, 0), (0, 1)], [(0, 5)])


def test_nested_cones_rejected():
    with pytest.raises(InvalidParams):
        make_fan(2, [(1, 0), (0, 1)], [(0, 1), (0,)])


def test_torsion_class_group():
    fan = make_fan(2, [(1, 1), (1, -1)], [(0,), (1,)])
    with pytest.raises(TorsionClassGroup):
        grading_from_fan(fan)


def test_non_effective_grading():
    # blowup of the affine plane at the origin: the only relation among the
    # rays is n0 + n1 - n2 = 0, which no sign change makes nonnegative
    fan = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    with pytest.raises(NonEffectiveGrading):
        grading_from_fan(fan)


# ---------------------------------------------------------------------------
# weight normalization
# ---------------------------------------------------------------------------

def test_unimodular_column_equivalence():
    A = [(1, 1), (1, 0), (1, 0), (0, 1)]
    B = [(2, 1), (1, 0), (1, 0), (1, 1)]  # columns transformed by [[1,0],[1,1]]
    assert unimodular_column_equivalent(A, B)
    C = [(2, 2), (2, 0), (2, 0), (0, 2)]  # index-4 sublattice
    assert not unimodular_column_equivalent(A, C)


def _random_matrix(rng, m, n):
    # small entries, with whole zero rows and columns now and then
    A = [[rng.next_below(7) - 3 for _ in range(n)] for _ in range(m)]
    if m and rng.next_below(3) == 0:
        A[rng.next_below(m)] = [0] * n
    if n and rng.next_below(3) == 0:
        j = rng.next_below(n)
        for row in A:
            row[j] = 0
    if m > 1 and rng.next_below(3) == 0:  # rank deficient: a repeated row
        A[0] = list(A[m - 1])
    return A


def test_column_hnf_matches_sympy():
    rng = SplitMix64(2024)
    for _ in range(300):
        m, n = 1 + rng.next_below(6), 1 + rng.next_below(6)
        A = _random_matrix(rng, m, n)
        H, U = _column_hnf(A)
        MA, MH, rank = Matrix(A), Matrix(m, len(H[0]), sum(H, [])), len(H[0])
        assert MH == hermite_normal_form(MA), A
        assert rank == MA.rank()
        assert MA * Matrix(U) == Matrix.hstack(Matrix.zeros(m, n - rank), MH)
        assert abs(Matrix(U).det()) == 1


def test_invariant_factors_match_smith():
    rng = SplitMix64(7)
    for _ in range(200):
        m, n = 1 + rng.next_below(5), 1 + rng.next_below(5)
        A = _random_matrix(rng, m, n)
        D = smith_normal_decomp(Matrix(A))[0]
        expected = [abs(int(D[i, i])) for i in range(min(m, n)) if D[i, i] != 0]
        assert _invariant_factors(_column_hnf(A)[0]) == expected, A


def _random_fan(rng):
    d = 1 + rng.next_below(4)
    rho = 1 + rng.next_below(6)
    rays = []
    for _ in range(50):
        ray = tuple(rng.next_below(5) - 2 for _ in range(d))
        if len(rays) < rho and math.gcd(*ray) == 1 and ray not in rays:
            rays.append(ray)
    return make_fan(d, rays, [(i,) for i in range(len(rays))])


def _grading_outcome(derive, fan):
    try:
        return derive(fan)
    except ToricountError as exc:
        return type(exc), str(exc)


def test_grading_matches_sympy_oracle():
    # the grading depends on the rays only; one-ray cones keep every ray set valid
    outcomes = set()
    for seed in range(60):
        fan = _random_fan(SplitMix64(seed))
        ours = _grading_outcome(grading_from_fan, fan)
        assert ours == _grading_outcome(sympy_grading, fan), fan
        outcomes.add(ours[0] if isinstance(ours, tuple) else type(ours))
    assert outcomes == {TorsionClassGroup, NonEffectiveGrading, GradingData}


def test_weight_search_is_capped():
    # 2-D, 16 rays: the grading has rank 14, so even the first shell has 3^14 tuples
    fan = make_fan(2, [(1, k) for k in range(16)], [(i,) for i in range(16)])
    t0 = time.monotonic()
    with pytest.raises(CapExceeded):
        grading_from_fan(fan)
    assert time.monotonic() - t0 < 1.0


def test_weights_canonical_up_to_column_basis():
    # the normalized weights must generate the same column lattice as raw SNF output
    for mk in (projective_fan(4), blowup_p2_fan(), blowup_p4_line_fan()):
        G = grading_from_fan(mk)
        assert all(w >= 0 for row in G.weights for w in row)


# ---------------------------------------------------------------------------
# fan file format
# ---------------------------------------------------------------------------

def test_fan_text_round_trip():
    for fan in (projective_fan(2), blowup_p2_fan(), blowup_p4_line_fan()):
        lines = [f"dim {fan.dim}"]
        lines += ["ray " + " ".join(map(str, ray)) for ray in fan.rays]
        lines += ["cone " + " ".join(map(str, cone)) for cone in fan.max_cones]
        text = "\n".join(lines) + "\n"
        back = parse_fan_text(text)
        assert back == fan


def test_parse_fan_text_comments_and_errors():
    fan = parse_fan_text(
        """
        # a projective line
        dim 1
        ray -1
        ray 1
        cone 0
        cone 1
        """
    )
    assert fan == projective_fan(1)
    with pytest.raises(InvalidParams):
        parse_fan_text("ray 1 0\ncone 0")  # missing dim
    with pytest.raises(InvalidParams):
        parse_fan_text("dim 1\nray x\ncone 0")


def test_space_from_fan_names():
    sp = space_from_fan(blowup_p2_fan(), name="bp2")
    assert sp.name == "bp2"
    assert sp.grading == grading_from_fan(blowup_p2_fan())


def test_grading_data_effectiveness():
    # a grading is effective by construction: a negative weight is refused when it is built
    assert GradingData(weights=((1,), (2,))).weights == ((1,), (2,))
    with pytest.raises(NonEffectiveGrading):
        GradingData(weights=((1,), (-2,)))
    with pytest.raises(NonEffectiveGrading):
        GradingData(weights=((0, 1), (1, -1)))


def test_grading_shape_comes_from_its_weights():
    # rho is the number of weight rows and r their common length, so they cannot disagree
    G = GradingData(weights=((1, 0), (1, 1), (0, 1)))
    assert (G.rho, G.r) == (3, 2)
    for weights, rho in ((((),) * 3, 3), ((), 0)):
        assert (GradingData(weights=weights).rho, GradingData(weights=weights).r) == (rho, 0)
    with pytest.raises(InvalidParams, match="unequal length"):
        GradingData(weights=((1,), (1, 2)))
    # a polynomial in another number of variables than the grading has rows is refused
    # with a typed error, never an IndexError
    spec = make_field(5)
    G = GradingData(weights=((1,), (1,)))
    for nvars in (1, 3):
        P = parse(" + ".join(f"x{i}" for i in range(nvars)), nvars, spec)
        for check in (multidegree, degree_bounds):
            with pytest.raises(ArityMismatch):
                check(P, G)
        for check in (check_cw, check_ax):
            with pytest.raises(ArityMismatch):
                check(P, G, spec)
