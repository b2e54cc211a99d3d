"""Integer fan combinatorics and Cox multigradings.

A simplicial fan is stored as primitive integer rays plus index sets of
maximal cones. From the rays we derive the multigrading of the homogeneous
coordinate ring: the grading group is the cokernel of x -> (<n_i, x>)_i. One
integer Hermite normal form N^T U = [0 | H], U unimodular, gives it: the first
rho - rank columns of U are a basis of the integer kernel of N^T (the relations
among the rays), row i of that basis is the weight row of the i-th coordinate,
and an invariant factor of H above 1 (torsion) is refused. Primitive collections
(minimal ray sets lying in no cone) describe the exceptional locus removed
before the torus quotient.

Weight matrices are only canonical up to unimodular column operations. We
normalize deterministically: Hermite normal form of the column lattice, then
a bounded search for the entrywise-nonnegative representative with smallest
entry sum, columns sorted in descending lexicographic order. The counting
theorems need free, effective gradings: GradingData refuses a negative weight.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import (
    CapExceeded,
    InvalidParams,
    NonEffectiveGrading,
    NonPrimitiveRay,
    NonSimplicialFan,
    TorsionClassGroup,
)

#: Primitive-collection search is subset enumeration; keep fans tiny.
MAX_RAYS = 16

#: Bound on column-combination coefficients in the nonnegative-representative search.
_NONNEG_SEARCH_BOUND = 6

#: Steps the nonnegative-representative search may take: coefficient tuples
#: enumerated plus column subsets tested.
WEIGHT_SEARCH_CAP = 10 ** 5


# --------------------------------------------------------------------------
# data types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Simplicial fan: lattice dimension, primitive rays, maximal cones (ray index sets)."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    @property
    def rho(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class GradingData:
    """Free, effective multigrading of the coordinate ring: one weight row per variable.

    Only the weights are stored, none negative: rho, the number of variables, is
    the row count and r, the rank of the grading group, the row length (0 without rows).
    """

    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len({len(row) for row in self.weights}) > 1:
            raise InvalidParams(f"weight rows of unequal length: {self.weights}")
        if any(w < 0 for row in self.weights for w in row):
            raise NonEffectiveGrading(f"grading has negative weights: {self.weights}")

    @property
    def rho(self) -> int:
        return len(self.weights)

    @property
    def r(self) -> int:
        return len(self.weights[0]) if self.weights else 0


@dataclass(frozen=True)
class Space:
    """A quotient space: a grading, the fan when known, and the strata S of the exceptional
    set, which is the union of the coordinate subspaces {x_i = 0 for i in S}."""

    name: str
    grading: GradingData
    strata: tuple[tuple[int, ...], ...]
    fan: Fan | None = None


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate(fan: Fan) -> Fan:
    """Check all fan invariants; returns the fan for chaining."""
    if fan.dim < 1:
        raise InvalidParams(f"lattice dimension must be >= 1, got {fan.dim}")
    if fan.rho > MAX_RAYS:
        raise InvalidParams(f"at most {MAX_RAYS} rays supported, got {fan.rho}")
    for i, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            raise InvalidParams(f"ray {i} has length {len(ray)}, expected {fan.dim}")
        if math.gcd(*ray) != 1:
            raise NonPrimitiveRay(f"ray {i} = {ray} is zero or imprimitive")
    seen = set(fan.rays)
    if len(seen) != fan.rho:
        raise InvalidParams("duplicate rays")
    cone_sets = [frozenset(c) for c in fan.max_cones]
    for idx, cone in enumerate(fan.max_cones):
        if len(set(cone)) != len(cone):
            raise InvalidParams(f"cone {idx} repeats a ray index")
        for i in cone:
            if not 0 <= i < fan.rho:
                raise InvalidParams(f"cone {idx} references invalid ray index {i}")
        cols = [[fan.rays[i][t] for i in cone] for t in range(fan.dim)]
        if len(_column_hnf(cols)[0][0]) != len(cone):
            raise NonSimplicialFan(f"cone {idx} = {cone} has linearly dependent rays")
    for a, b in itertools.combinations(range(len(cone_sets)), 2):
        if cone_sets[a] <= cone_sets[b] or cone_sets[b] <= cone_sets[a]:
            raise InvalidParams(f"maximal cones {a} and {b} are nested")
    return fan


def make_fan(dim: int, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]) -> Fan:
    """Construct and validate a fan from plain sequences; cone order is canonicalized."""
    fan = Fan(
        dim=dim,
        rays=tuple(tuple(int(x) for x in ray) for ray in rays),
        max_cones=tuple(sorted(tuple(sorted(int(i) for i in cone)) for cone in max_cones)),
    )
    return validate(fan)


# --------------------------------------------------------------------------
# primitive collections: the strata of the exceptional set
# --------------------------------------------------------------------------

def primitive_collections(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """All minimal ray-index sets contained in no single cone (sorted, deterministic)."""
    cones = [frozenset(c) for c in fan.max_cones]

    def in_some_cone(s: frozenset[int]) -> bool:
        return any(s <= c for c in cones)

    found: list[frozenset[int]] = []
    for size in range(1, fan.rho + 1):
        for combo in itertools.combinations(range(fan.rho), size):
            s = frozenset(combo)
            if any(f < s for f in found):
                continue  # not minimal
            if in_some_cone(s):
                continue
            # every proper subset of size-1 less is in some cone (downward closure
            # makes this equivalent to all proper subsets being in cones)
            if all(in_some_cone(s - {i}) for i in s):
                found.append(s)
    return tuple(sorted(tuple(sorted(s)) for s in found))


# --------------------------------------------------------------------------
# integer Hermite normal form
# --------------------------------------------------------------------------

def _column_hnf(A: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column Hermite normal form: (H, U) with A*U = [0 | H] and U unimodular.

    Cohen, *A Course in Computational Algebraic Number Theory*, Algorithm 2.4.5:
    rows are processed bottom-up, each pivot is positive and sits in the
    rightmost free column, and the entries right of a pivot lie in [0, pivot).
    H has rank(A) columns and depends only on the column lattice of A. Every
    column operation also acts on an identity block, which becomes U.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[int(x) for x in row] for row in A] + [[int(i == j) for j in range(n)] for i in range(n)]
    k = n  # leftmost pivot column so far
    for i in range(m - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            while M[i][j]:  # Euclid on columns j and k: row i ends with gcd in k, 0 in j
                t = M[i][k] // M[i][j]
                for row in M:
                    row[k], row[j] = row[j], row[k] - t * row[j]
        if M[i][k] < 0:
            for row in M:
                row[k] = -row[k]
        pivot = M[i][k]
        if pivot == 0:
            k += 1  # row i is zero left of here; the column stays free
            continue
        for j in range(k + 1, n):
            t = M[i][j] // pivot
            for row in M:
                row[j] -= t * row[k]
    return [row[k:] for row in M[:m]], M[m:]


def _is_unimodular(T: Sequence[Sequence[int]]) -> bool:
    """|det T| = 1 for a square T, i.e. its HNF is the identity."""
    n = len(T)
    return _column_hnf(T)[0] == [[int(i == j) for j in range(n)] for i in range(n)]


def _invariant_factors(H: list[list[int]]) -> list[int]:
    """Invariant factors of a full-column-rank H in HNF, each dividing the next.

    HNFs of the transpose alternate until the matrix is diagonal; gcd/lcm
    exchanges then put the diagonal in divisibility order.
    """
    while any(x for i, row in enumerate(H) for j, x in enumerate(row) if i != j):
        H = _column_hnf([list(col) for col in zip(*H)])[0]
    d = [H[i][i] for i in range(len(H[0]))]
    for i, j in itertools.combinations(range(len(d)), 2):
        d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


# --------------------------------------------------------------------------
# grading derivation (integer kernel of the ray matrix)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def grading_from_fan(fan: Fan) -> GradingData:
    """Cokernel of x -> (<n_i, x>)_i as a weight matrix, canonically normalized.

    The cokernel has rank r = rho - rank(rays); row i of the returned matrix is
    the class of the i-th coordinate. Invariant factors > 1 raise TorsionClassGroup.
    """
    validate(fan)
    rho = fan.rho
    A = [[ray[t] for ray in fan.rays] for t in range(fan.dim)]  # N^T, d x rho
    H, U = _column_hnf(A)
    rank = len(H[0])
    # sanity: exact decomposition with a unimodular transform
    product = [[sum(a * u for a, u in zip(row, col)) for col in zip(*U)] for row in A]
    assert product == [[0] * (rho - rank) + h for h in H]
    assert _is_unimodular(U)
    torsion = tuple(x for x in _invariant_factors(H) if x != 1)
    if torsion:
        raise TorsionClassGroup(
            f"grading group has invariant factors {torsion}; free grading required"
        )
    r = rho - rank
    if r == 0:
        return GradingData(weights=((),) * rho)
    # the first r columns of U are a basis of ker N^T, the relations among the
    # rays; row i holds the coordinates of [e_i]
    W = [row[:r] for row in U]
    return GradingData(weights=_normalize_weights(W))


def _charge(work: int) -> int:
    if work > WEIGHT_SEARCH_CAP:
        raise CapExceeded(f"weight normalization needs more than {WEIGHT_SEARCH_CAP} steps")
    return work


def _normalize_weights(W: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Deterministic nonnegative representative of the column lattice of W.

    Candidate columns are small integer combinations of the HNF basis; we pick
    the first unimodular r-subset in (entry-sum, lex) order and sort the chosen
    columns in descending lexicographic order. Both searches charge one budget.
    """
    r = len(W[0])
    H = _column_hnf(W)[0]
    if len(H[0]) != r:
        raise InvalidParams("weight matrix does not have full column rank")
    work = 0
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (column, coeffs)
    seen: set[tuple[int, ...]] = set()
    for bound in range(1, _NONNEG_SEARCH_BOUND + 1):
        work = _charge(work + (2 * bound + 1) ** r)
        for t in itertools.product(range(-bound, bound + 1), repeat=r):
            if max((abs(x) for x in t), default=0) != bound:
                continue  # only new shell
            vec = tuple(sum(h * c for h, c in zip(row, t)) for row in H)
            if vec in seen or any(x < 0 for x in vec) or all(x == 0 for x in vec):
                continue
            seen.add(vec)
            candidates.append((vec, t))
        if len(candidates) >= 4 * r + 8 and bound >= 2:
            break
    candidates.sort(key=lambda cv: (sum(cv[0]), cv[0]))
    candidates = candidates[:60]
    for combo in itertools.combinations(candidates, r):
        work = _charge(work + 1)
        if _is_unimodular([cv[1] for cv in combo]):
            cols = sorted((cv[0] for cv in combo), reverse=True)
            return tuple(zip(*cols))
    raise NonEffectiveGrading(
        f"no nonnegative unimodular representative found; HNF basis = {H}"
    )


def unimodular_column_equivalent(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> bool:
    """True iff the two integer matrices have the same column lattice."""
    if [len(row) for row in A] != [len(row) for row in B]:
        return False
    return _column_hnf(A)[0] == _column_hnf(B)[0]


# --------------------------------------------------------------------------
# builtin spaces
# --------------------------------------------------------------------------

def projective_fan(d: int) -> Fan:
    """P^d: rays n0 = -(e1+...+ed), ni = ei; maximal cones = all d-subsets."""
    if not 1 <= d < MAX_RAYS:  # checked before the d+1 rays of length d are built
        raise InvalidParams(f"projective dimension must be in 1..{MAX_RAYS - 1}, got {d}")
    rays = [tuple(-1 for _ in range(d))] + [
        tuple(1 if j == i else 0 for j in range(d)) for i in range(d)
    ]
    cones = [tuple(sorted(set(range(d + 1)) - {i})) for i in range(d + 1)]
    return make_fan(d, rays, cones)


def blowup_p2_fan() -> Fan:
    """P^2 blown up at the torus-fixed point of <n1, n2>; n3 = n1 + n2."""
    rays = [(-1, -1), (1, 0), (0, 1), (1, 1)]
    cones = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return make_fan(2, rays, cones)


def blowup_p4_line_fan() -> Fan:
    """P^4 blown up along the line {x1 = x2 = x3 = 0}; n5 = e1 + e2 + e3."""
    rays = [
        (-1, -1, -1, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 1, 0),
    ]
    # P^4 cones not containing {1,2,3}, plus the star subdivision of the two that do
    cones = [
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
        (0, 2, 3, 5),
        (0, 1, 3, 5),
        (0, 1, 2, 5),
        (2, 3, 4, 5),
        (1, 3, 4, 5),
        (1, 2, 4, 5),
    ]
    return make_fan(4, rays, cones)


def weighted_space(*weights: int) -> Space:
    """Weighted projective space P(a_0..a_d), grading-first (no ray arithmetic).

    deg x_i = a_i, rank-1 grading; exceptional set = {origin}.
    """
    if len(weights) < 2 or any(a < 1 for a in weights):
        raise InvalidParams(f"weights must be >= 1 integers, got {weights}")
    return Space(
        name=f"weighted({','.join(str(a) for a in weights)})",
        grading=GradingData(weights=tuple((int(a),) for a in weights)),
        strata=(tuple(range(len(weights))),),
        fan=None,
    )


def space_from_fan(fan: Fan, name: str = "") -> Space:
    return Space(
        name=name or f"fan(dim={fan.dim},rho={fan.rho})",
        grading=grading_from_fan(fan),
        strata=primitive_collections(fan),
        fan=fan,
    )


_BUILTIN_RE = re.compile(r"^([a-z_0-9]+)\s*(?:\(\s*([-0-9,\s]*)\s*\))?$")


def builtin(name: str) -> Space:
    """Builtin space by name: projective(d), weighted(a0,...,ad), blowup_p2, blowup_p4_line."""
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        raise InvalidParams(f"unrecognized space name: {name!r}")
    head, args_str = m.group(1), m.group(2)
    try:
        args = [int(x) for x in args_str.split(",")] if args_str else []
    except ValueError as exc:  # an empty, signless or overlong parameter
        raise InvalidParams(f"malformed parameters in space name {name[:80]!r}") from exc
    if head == "projective":
        if len(args) != 1:
            raise InvalidParams("projective(d) takes exactly one parameter")
        return space_from_fan(projective_fan(args[0]), name=f"projective({args[0]})")
    if head == "weighted":
        return weighted_space(*args)
    if head == "blowup_p2":
        if args:
            raise InvalidParams("blowup_p2 takes no parameters")
        return space_from_fan(blowup_p2_fan(), name="blowup_p2")
    if head == "blowup_p4_line":
        if args:
            raise InvalidParams("blowup_p4_line takes no parameters")
        return space_from_fan(blowup_p4_line_fan(), name="blowup_p4_line")
    raise InvalidParams(f"unknown builtin space: {name!r}")


BUILTIN_TEMPLATES = ("projective(d)", "weighted(a0,...,ad)", "blowup_p2", "blowup_p4_line")


# --------------------------------------------------------------------------
# fan file format
# --------------------------------------------------------------------------

def parse_fan_text(text: str) -> Fan:
    """Plain-text fan: `dim d`, `ray a1 .. ad`, `cone i1 .. ik`, `#` comments."""
    dim: int | None = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, rest = parts[0], parts[1:]
        try:
            values = [int(x) for x in rest]
        except ValueError as exc:
            raise InvalidParams(f"line {lineno}: non-integer field in {raw!r}") from exc
        if kind == "dim":
            if dim is not None or len(values) != 1:
                raise InvalidParams(f"line {lineno}: bad or repeated dim line")
            dim = values[0]
        elif kind == "ray":
            rays.append(tuple(values))
        elif kind == "cone":
            cones.append(tuple(values))
        else:
            raise InvalidParams(f"line {lineno}: unknown directive {kind!r}")
    if dim is None:
        raise InvalidParams("missing `dim` line")
    return make_fan(dim, rays, cones)
