"""Exhaustive exact point counting and congruence verdicts.

Counts are exact Python integers. One numpy kernel evaluates a system of
polynomials on a box of F_q^m in odometer order (x0 most significant, field
elements in enumeration order) and yields the mask of their common zeros block
by block, the same way for prime fields, extension fields and q > 256: terms
are sums of discrete logs, each exponent reduced mod q-1 before it meets int64,
and their values are added as F_p digits for odd p and XORed as element indices
in characteristic 2. Each polynomial is written as x^g*F with x^g its largest
monomial factor, is zero where a variable of x^g is, and has F evaluated only
on the axes F uses. On a large enough block F is written once more as
sum_o x_O^o * F_o over a few outer axes O: each F_o is summed on its own axes,
and its values, turned into element indices and logs, join x_O^o in one lookup
on the block. All of that is compiled once per support, field and block shape
and kept; a call binds only the coefficients' logs. Results are independent of
the block partitioning. numpy
is imported by the functions that use it, so the package loads it with the
first count and not before. Gradings are free and effective by construction
(`fan.GradingData`), so the toric counts do not check them.

A small planner runs in front of the kernel. It rewrites #Z(P) over F_q^n as
an integer combination of common-zero counts #Z(S) of systems S on smaller
boxes, with four exact rules:

* *absent variable* - a variable in no polynomial of S contributes a factor q;
* *linear variable* - if x_j occurs in one polynomial only, as A + x_j*B, then
  #Z(A + x_j*B, C) = #Z(C) - #Z(B, C) + q*#Z(A, B, C) over the other variables;
* *torus chart* - if an integer weighting with x_j of weight 1 makes every
  polynomial of S homogeneous, the one-parameter torus it defines moves each
  point with x_j != 0 to x_j = 1, so #Z(S) = #Z(S|x_j=0) + (q-1)*#Z(S|x_j=1)
  (Cox, "The homogeneous coordinate ring of a toric variety", 1995);
* *fall-through* - a system no rule fits is evaluated by the kernel.

A rule is kept only when the boxes it leads to hold fewer points than its own
box, so a plan never evaluates more points than the full grid, and a box of
at most `_PLAN_MIN_POINTS` points goes to the kernel whole. The strict
transform x0^2*P3 + x0*x4*Q3 + x4*x5*Q4 of a blown-up quintic plans to
systems on F_q^4, then of P3, Q3 and Q4 on F_q^3 and below, as far as the
boxes stay above that floor, instead of the grid F_q^6.

The exceptional count is sum_U c_U * #Z(P|x_U=0) over unions U of strata, by
inclusion-exclusion, and plans the restrictions P|x_U=0 like affine counts.
Every exact count plans, charges its plan's points to the work cap, and only
then evaluates. The orbit count evaluates a box that meets every torus orbit
and canonicalizes the kernel's solutions there from per-axis digit tables.

Congruence checks returned as :class:`CongruenceReport`:

* ``check_cw``       - N ≡ 0 (mod p) when some degree bound d_j < a_j.
* ``check_ax``       - q^mu | N with mu from the grading.
* ``check_esnault``  - quotient count of the blown-up quintic ≡ 1 (mod q).

A count or check given a ``stats`` dict fills it with what it evaluated: the
rules that fired, the kernel boxes, their points and points x terms; a
check's report carries that dict. Points, like the work cap's charge, count
whole boxes, an upper bound on the points at which the kernel evaluates a
polynomial whose monomial factor it splits off.

The degree hypotheses consume componentwise degree *bounds*, so inhomogeneous
inputs (e.g. y^2 - P(x) under a weighted grading) are accepted; exact
homogeneity is enforced only where orbits must be well defined (the toric
quotient and orbit counts).
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Sequence

from . import quintic as quintic_mod
from .errors import (
    CapExceeded,
    FieldMismatch,
    HypothesisNotMet,
    InvalidParams,
    NonIntegralQuotient,
)
from .fan import GradingData, Space, _column_hnf, builtin
from .ff import FieldSpec, log_tables
from .poly import (
    MultiDegree,
    MultiPoly,
    ax_exponent,
    classical_ax_exponent,
    degree_bounds,
    multidegree,
    total_generator_degree,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_WORK_CAP = 10 ** 9

#: target block size (points) for the zero-mask kernel
_BLOCK_TARGET = 1 << 20

#: orbit enumeration materializes solution points; keep the full box modest
_ORBIT_POINT_CAP = 1 << 22

#: systems the planner expands; any further one goes to the kernel whole
_PLAN_NODE_CAP = 1 << 12

#: boxes of at most this many points go to the kernel whole: on them the kernel's fixed
#: cost per term outweighs the points a plan saves. In check_esnault on 20 seeded quintics
#: (2-CPU Xeon, numpy 2.4) the 5^6-point grid of GF(5) counted faster whole (0.54-0.66 ms a
#: check against 0.74-0.94 ms planned), as did the 11^4-point boxes of GF(11) (1.4-1.6 ms
#: against 1.8-2.1 ms) and the 13^4-point boxes of GF(13), which this floor plans (1.6-1.8
#: ms against 2.0-2.3 ms).
_PLAN_MIN_POINTS = 1 << 14

#: blocks of at least this many points may group a polynomial's terms (`_outer_axes`), which
#: charges a numpy pass twice this many points, the cost that best matched kernel timings
_GROUP_MIN_POINTS = 1 << 11

#: kernel programs (`_compile`, least recently used dropped first) and multidegrees
#: (`_toric_input`, oldest dropped first) kept. 16 programs of poly.MAX_POWER_TERMS = 1000
#: terms in 6 variables hold about 3.2 MB (tracemalloc). The dense quintics of each
#: perfbench workload share 2 or 3 programs; 16 serve 74-87% of the kernel calls of a
#: random batch, 64 serve 80-92% (100 instances over GF(11), GF(8), GF(9), GF(13), GF(17))
_PROGRAM_CACHE = 16


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(slots=True)
class CongruenceReport:
    """Outcome of one congruence check; `residue` is the checked count mod `modulus`."""

    kind: str
    q: int
    p: int
    f: int
    n_affine: int
    modulus: int
    residue: int
    passed: bool
    n_exceptional: int | None = None
    n_toric: int | None = None
    mu: int | None = None
    mu_classical: int | None = None
    ax_pass: bool | None = None
    elapsed: float = 0.0
    stats: dict | None = None

    CSV_FIELDS = (
        "kind", "q", "p", "f", "n_affine", "n_exceptional", "n_toric",
        "modulus", "residue", "pass", "mu", "mu_classical", "ax_pass",
    )

    def to_dict(self, include_timing: bool = False) -> dict:
        """The CSV_FIELDS that are set ("pass" reads `passed`), then stats and timing."""
        out = {key: v for key in self.CSV_FIELDS if (v := self._field(key)) is not None}
        if self.stats is not None:
            out["stats"] = self.stats
        if include_timing:
            out["timing"] = {"elapsed_s": self.elapsed}
        return out

    def to_csv_row(self) -> list[str]:
        row = [self._field(key) for key in self.CSV_FIELDS]
        return ["" if v is None else str(v).lower() if isinstance(v, bool) else str(v) for v in row]

    def _field(self, key: str):
        return getattr(self, "passed" if key == "pass" else key)


# --------------------------------------------------------------------------
# the zero-mask kernel
# --------------------------------------------------------------------------

def _check_poly_field(P: MultiPoly, spec: FieldSpec) -> None:
    if P.domain != spec:
        raise FieldMismatch(f"polynomial over {P.domain.name}, counting over {spec.name}")


def _axis_view(values: np.ndarray, i: int, rho: int) -> np.ndarray:
    """`values` laid along axis i of a rho-dimensional box, for broadcasting."""
    return values.reshape((1,) * i + (-1,) + (1,) * (rho - 1 - i))


def _reduce_digits(acc: np.ndarray, p: int, f: int, bits: int, index: bool = False) -> np.ndarray:
    """Reduce each `bits`-wide F_p digit packed in `acc` mod p; with `index`, give the
    element index sum_j digit_j * p^j of the reduced digits instead (the residue if f = 1)."""
    if f == 1:
        return acc % p
    import numpy as np

    low = (1 << bits) - 1
    out = np.zeros_like(acc)
    for j in range(f):
        out += ((acc >> (bits * j)) & low) % p * (p ** j if index else 1 << (bits * j))
    return out


def _outer_axes(exps: tuple, used: frozenset, shape, p: int, f: int) -> tuple[int, ...]:
    """The outer axes O by whose exponents the terms of P = x^g * F group most cheaply.

    P's terms have the exponents `exps`, and F uses the axes `used` of a block
    of `shape` over GF(p^f). A pass over an array costs its points and a fixed
    2 * _GROUP_MIN_POINTS. Unsplit, F costs a block pass a term; split, a block
    pass and a value step (one fixed cost for p = 2, 2f for odd p) a group, a
    pass over the inner axes a term, and two fixed costs. No O has fewer
    groups than the used axis of fewest distinct exponents (two or more, as g
    is factored out), so when that many cost too much nothing is tried. Else O
    grows along the used axes, fewest distinct exponents first, while its
    groups cost less than the best so far.
    """
    full = math.prod([shape[i] for i in used])
    if full < _GROUP_MIN_POINTS:
        return ()
    fixed = 2 * _GROUP_MIN_POINTS
    per_group = full + fixed * (2 if p == 2 else 1 + 2 * f)
    terms = len(exps)
    best, least = (), terms * (full + fixed)
    columns = list(zip(*exps))
    distinct = {i: len(set(columns[i])) for i in used}
    if min(distinct.values()) * per_group + (terms + 2) * fixed >= least:
        return best
    order = sorted(used, key=lambda i: (distinct[i], i))
    for k in range(1, len(order)):
        cost = len(set(zip(*[columns[i] for i in order[:k]]))) * per_group + (terms + 2) * fixed
        if cost >= least:
            break
        if (cost := cost + terms * math.prod([shape[i] for i in order[k:]])) < least:
            best, least = tuple(order[:k]), cost
    return best


def _group(terms: list, exps: tuple, outer: tuple[int, ...]) -> tuple[list, list]:
    """F's `terms`, (term index, factors), grouped by the exponents `exps` on `outer`: the
    terms alone in their group, and each other group x_O^o * F_o as (F_o's terms, the
    factors of x_O^o)."""
    by_key: dict = {}
    key = itemgetter(*outer)
    for term, e in zip(terms, exps):
        by_key.setdefault(key(e), []).append(term)
    ones = [group[0] for group in by_key.values() if len(group) == 1]
    return ones, [
        ([(t, [f for f in factors if f[0] not in outer]) for t, factors in group],
         [f for f in group[0][1] if f[0] in outer])
        for group in by_key.values() if len(group) > 1
    ]


@dataclass(frozen=True, slots=True)
class _Program:
    """What the kernel evaluates of P = x^g * F, from P's exponents alone (`_compile`).

    A term is (index, factors), factors the (axis i, exponent) pairs of its
    monomial over x^g, and index points into P's coefficient logs. F's terms
    list its ungrouped terms and one term x_O^o for each group, whose index
    follows P's own terms in group order; `groups` holds each group's F_o as
    terms on the axes `inner_used`. `width` bounds the factors of a term.
    """

    zero_axes: tuple[int, ...]
    used: frozenset
    terms: tuple
    groups: tuple
    inner_used: frozenset
    powers: frozenset
    width: int


@lru_cache(maxsize=_PROGRAM_CACHE)
def _compile(p: int, f: int, shape: tuple[int, ...], exps: tuple) -> _Program:
    """The program of a polynomial whose terms have the exponents `exps`, on blocks of `shape`
    over GF(p^f): P = x^g * F, g the least exponent of each variable, and F grouped by the
    outer axes that `_outer_axes` picks."""
    g = [min(col) for col in zip(*exps)]
    pairs: dict = {}  # one (i, e) object per factor, shared by its terms: kept programs stay small
    terms = []
    for row in exps:
        factors = []
        for i, e in enumerate(row):
            if e > g[i]:
                pair = (i, e - g[i])
                factors.append(pairs.setdefault(pair, pair))
        terms.append(factors)
    used = frozenset([i for i, _ in pairs])
    outer = _outer_axes(exps, used, shape, p, f)
    indexed = list(enumerate(terms))
    ones, groups = _group(indexed, exps, outer) if outer else (indexed, [])
    ones += [(len(exps) + j, factors) for j, (_, factors) in enumerate(groups)]
    return _Program(
        zero_axes=tuple(i for i, gi in enumerate(g) if gi),
        used=used,
        terms=tuple(ones),
        groups=tuple(tuple(inner) for inner, _ in groups),
        inner_used=used - set(outer),
        powers=frozenset(pairs),
        # a group's log sum, log F_o and the factors of x_O^o, has no more summands
        # than its longest term: that term has an inner factor too
        width=max([0] + [len(factors) for factors in terms]),
    )


def _zero_masks(
    system: MultiPoly | Sequence[MultiPoly],
    spec: FieldSpec,
    axes: list[np.ndarray],
) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """Yield (block_axes, mask) over the box axes[0] x ... x axes[rho-1] of F_q^rho.

    axes[i] holds the element indices coordinate i runs over. The box is cut
    into blocks over the fewest leading axes that leave at most _BLOCK_TARGET
    points a block; block_axes are the axes of one block, each leading axis
    holding one element, and mask, of the block's shape in odometer order, is
    True where every polynomial of `system` (one polynomial or a sequence of
    them) vanishes.

    Every field takes the same path. A term c * prod x_i^e_i is evaluated as
    log c + sum e_i log x_i, broadcast from axis-shaped tables in which a
    sentinel stands for the element 0. A table maps that sum to the term's
    value, and the values are summed into one int64 per point. In
    characteristic 2 the value is the element's index, its coefficient
    vector written as bits, and the terms are XORed, which never carries. For
    odd p the value is the element's base-p digits packed into one int64; the
    terms' packed digits are added as integers and reduced mod p once a
    block, or sooner when a digit could overflow its bits.

    Each polynomial is first written as P = x^g * F, with g the least
    exponent of each variable over P's terms, and vanishes where x_i = 0 for
    some i with g_i > 0 or where F = 0. F is evaluated only on the axes its
    terms use, with size 1 on the others, and its zeros are broadcast into
    the block's mask: x0^2 * P3(x1, x2, x3) costs q^3 points, not q^4.

    One level of Horner's rule then writes F as sum_o x_O^o * F_o over the
    outer axes O that `_outer_axes` picks. Each F_o of two or more terms is
    summed on its own axes, and its values become element indices (the XORed
    index for p = 2, the residue for f = 1, sum_j digit_j * p^j for odd p^f)
    and then logs, so x_O^o * F_o costs one lookup on the block: the strict
    transform x0^2*P3 + x0*x4*Q3 + x4*x5*Q4 costs 3 lookups on F_q^6, not 35.

    All of that but the coefficients depends on P's exponents, the field's p
    and f and the block shape only: it is compiled once for them (`_compile`,
    kept for the _PROGRAM_CACHE supports last used) and shared by every
    polynomial with that support, as the restrictions of P3, Q3 and Q4 are
    across a plan's boxes. A call binds only the coefficient logs, gathered
    in one lookup and read by term index.
    """
    import numpy as np

    polys = (system,) if isinstance(system, MultiPoly) else tuple(system)
    q, p, f = spec.q, spec.p, spec.f
    rho = len(axes)
    log, exp = log_tables(spec)
    sizes = [len(a) for a in axes]
    k = next(k for k in range(rho + 1) if math.prod(sizes[k:]) <= _BLOCK_TARGET)
    shape = (1,) * k + tuple(sizes[k:])
    # compile: each polynomial's program, shared by every polynomial with its exponents;
    # bind: its coefficient logs, gathered at once and read by term index
    bound = [
        (_compile(p, f, shape, tuple(e for e, _ in P.terms)),
         log[[c.to_index() for _, c in P.terms]].tolist())
        for P in polys
    ]
    powers = set().union(*(program.powers for program, _ in bound))
    width = max([0] + [program.width for program, _ in bound])
    # a log sum without a zero factor stays below the sentinel; one with a zero reaches it
    sentinel = (width + 1) * (q - 1)
    if p == 2:
        # the index packs the F_2 coefficients one to a bit: they add by XOR, with no carry
        packed, add, headroom = exp, np.bitwise_xor, None
    else:
        bits = 63 // f
        packed, add = sum((exp // p ** j % p) << (bits * j) for j in range(f)), np.add
        # terms that reduced digits (at most p-1) can take before one could overflow
        headroom = ((1 << bits) - 1) // (p - 1) - 1
    value = np.zeros(width * sentinel + q - 1, dtype=np.int64)
    value[:sentinel].reshape(width + 1, q - 1)[:] = packed

    def accumulate(terms, used, values) -> np.ndarray:
        """The terms (index into `values`, the log c or log array of each, and factors)
        summed on the axes `used`."""
        acc = np.zeros([m if i in used else 1 for i, m in enumerate(shape)], dtype=np.int64)
        for n, (t, factors) in enumerate(terms, 1):
            s = values[t]
            for factor in factors:
                s = s + logs[factor]
            add(acc, value[s], out=acc)
            if headroom and n % headroom == 0:
                acc = _reduce_digits(acc, p, f, bits)
        return acc

    for lead in itertools.product(*axes[:k]):
        block = [np.array([v]) for v in lead] + list(axes[k:])
        logs = {}
        for i, e in powers:
            a = block[i]  # x^e = g^((e mod q-1) * log x) for x != 0: e enters int64 reduced
            power = np.where(a == 0, sentinel, e % (q - 1) * log[a] % (q - 1))
            logs[i, e] = _axis_view(power, i, rho)
        mask = np.ones(shape, dtype=bool)
        for program, clog in bound:
            values = clog
            for inner in program.groups:
                index = accumulate(inner, program.inner_used, clog)
                if headroom:
                    index = _reduce_digits(index, p, f, bits, index=True)
                values = values + [np.where(index == 0, sentinel, log[index])]
            acc = accumulate(program.terms, program.used, values)
            # zero where every digit is 0 mod p; for one digit (f = 1) that is acc % p == 0
            if headroom:
                acc = acc % p if f == 1 else _reduce_digits(acc, p, f, bits)
            zero = acc == 0
            for i in program.zero_axes:
                zero = zero | _axis_view(block[i] == 0, i, rho)
            mask &= zero
        yield block, mask


def _on_strata(axes: list[np.ndarray], strata) -> np.ndarray:
    """Broadcast boolean over the box: every coordinate of some stratum is 0."""
    import numpy as np

    rho = len(axes)
    out = np.zeros((1,) * rho, dtype=bool)
    for stratum in strata:
        on = np.ones((1,) * rho, dtype=bool)
        for i in stratum:
            on = on & _axis_view(axes[i] == 0, i, rho)
        out = out | on
    return out


# --------------------------------------------------------------------------
# the planner
# --------------------------------------------------------------------------

#: (m, S): the common zeros of the polynomials S, all in m variables, on F_q^m
Box = tuple[int, frozenset]


def _restrict(P: MultiPoly, keep: Sequence[int], terms) -> MultiPoly:
    """The polynomial of `terms` in the variables `keep`, whose others are constant over them."""
    return MultiPoly(len(keep), P.domain, tuple((tuple(e[i] for i in keep), c) for e, c in terms))


def _at_zero(P: MultiPoly, zero) -> MultiPoly:
    """P with x_i = 0 for each i in `zero`, in the other variables."""
    keep = [i for i in range(P.nvars) if i not in zero]
    return _restrict(P, keep, [t for t in P.terms if not any(t[0][i] for i in zero)])


def _at_one(P: MultiPoly, j: int) -> MultiPoly:
    """P with x_j = 1, in the other variables."""
    acc: dict = {}
    for e, c in P.terms:
        key = e[:j] + e[j + 1:]
        acc[key] = acc[key] + c if key in acc else c
    terms = sorted(((e, c) for e, c in acc.items() if not c.is_zero), reverse=True)
    return MultiPoly(P.nvars - 1, P.domain, tuple(terms))


def _box(m: int, polys) -> Box | None:
    """The box of a system, or None when a nonzero constant in it leaves no zeros."""
    kept = set()
    for P in polys:
        if len(P.terms) == 1 and not any(P.terms[0][0]):
            return None
        if P.terms:
            kept.add(P)
    return m, frozenset(kept)


def _homogeneity_lattice(system, m: int) -> list[list[int]]:
    """Generators of the integer weightings c in Z^m that make every polynomial c-homogeneous.

    They are the integer kernel of the matrix D whose rows are the exponent
    differences between each polynomial's terms and its first term, read off
    one column Hermite normal form D*U = [0 | H] as the first m - rank columns
    of U, the way `fan.grading_from_fan` reads the relations among the rays.
    """
    D = [[a - b for a, b in zip(e, P.terms[0][0])] for P in system for e, _ in P.terms[1:]]
    H, U = _column_hnf(D or [[0] * m])  # with no differences, U is the identity
    return [list(col) for col in zip(*U)][: m - len(H[0])]


Child = tuple[int, Box]


def _expand(box: Box, q: int) -> tuple[str, list[Child]] | None:
    """The first rule that fits the box, as (name, [(coefficient, box)]), or None."""
    m, system = box
    degrees = [(P, [max(col) for col in zip(*(e for e, _ in P.terms))]) for P in system]
    used = [i for i in range(m) if any(d[i] for _, d in degrees)]
    if len(used) < m:
        child = (len(used), frozenset(_restrict(P, used, P.terms) for P in system))
        return "absent", [(q ** (m - len(used)), child)]
    linear = []
    for j in range(m):
        holders = [(P, d[j]) for P, d in degrees if d[j]]
        if len(holders) == 1 and holders[0][1] == 1:
            P = holders[0][0]
            linear.append((sum(e[j] for e, _ in P.terms), j, P))
    if linear:
        # the variable in the most terms (the first on ties) leaves the fewest terms in A
        # to share variables with B; in the quintic x4 goes first and x5 stays linear in B
        _, j, P = max(linear, key=lambda t: (t[0], -t[1]))
        keep = [i for i in range(m) if i != j]
        A = _at_zero(P, (j,))
        B = _restrict(P, keep, [t for t in P.terms if t[0][j]])
        C = [_at_zero(R, (j,)) for R in system if R is not P]
        parts = [(1, C), (-1, C + [B]), (q, C + [A, B])]
        return "linear", [(k, b) for k, polys in parts if (b := _box(m - 1, polys))]
    lattice = _homogeneity_lattice(system, m)
    for j in range(m if lattice else 0):
        if math.gcd(*(c[j] for c in lattice)) == 1:
            zero = [_at_zero(P, (j,)) for P in system]
            one = [_at_one(P, j) for P in system]
            parts = [(1, zero), (q - 1, one)]
            return "chart", [(k, b) for k, polys in parts if (b := _box(m - 1, polys))]
    return None


def _plan(roots: Sequence[tuple[int, MultiPoly]], q: int, rules: Counter) -> dict[Box, int]:
    """sum k*#Z(P) over the roots (k, P), P over F_q^n, as {box: coefficient}.

    Each box is given the cheaper of the kernel on its q^m points and the
    boxes of its first fitting rule; boxes of at most _PLAN_MIN_POINTS points
    are not expanded, and the box (0, {}) counts 1. The roots share what is
    planned, and `rules` gains one count for each box of the plan that a rule
    expands.
    """
    chosen: dict[Box, tuple[str | None, list[Child]]] = {}
    costs, combos, out = {}, {}, {}
    for k, P in roots:
        root = _box(P.nvars, [P])
        if root is None:
            continue
        _cost(root, q, chosen, costs)
        for leaf, c in _combination(root, chosen, combos).items():
            out[leaf] = out.get(leaf, 0) + k * c
    rules.update(rule for box in combos if (rule := chosen[box][0]))
    return {leaf: c for leaf, c in out.items() if c}


def _cost(box: Box, q: int, chosen: dict, costs: dict) -> int:
    """Points the kernel evaluates for `box`; records the rule chosen for it in `chosen`."""
    if box not in costs:
        m, system = box
        costs[box] = q ** m if system else 0
        chosen[box] = (None, [])
        expand = system and costs[box] > _PLAN_MIN_POINTS and len(costs) <= _PLAN_NODE_CAP
        rule = _expand(box, q) if expand else None
        if rule is not None:
            expanded = sum(_cost(child, q, chosen, costs) for _, child in rule[1])
            if expanded < costs[box]:
                costs[box], chosen[box] = expanded, rule
    return costs[box]


def _combination(box: Box, chosen: dict, combos: dict) -> dict[Box, int]:
    """#Z(box) as {kernel box: coefficient}, following the rules chosen."""
    if box not in combos:
        rule, children = chosen[box]
        out = {box: 1} if rule is None else {}
        for k, child in children:
            for leaf, c in _combination(child, chosen, combos).items():
                out[leaf] = out.get(leaf, 0) + k * c
        combos[box] = {leaf: c for leaf, c in out.items() if c}
    return combos[box]


def _run_plan(plan: dict[Box, int], spec: FieldSpec) -> int:
    import numpy as np

    total = 0
    for (m, system), coeff in plan.items():
        if not system:
            total += coeff * spec.q ** m
            continue
        axes = [np.arange(spec.q)] * m
        n = sum(int(np.count_nonzero(mask)) for _, mask in _zero_masks(system, spec, axes))
        total += coeff * n
    return total


def _count(
    root_lists: Sequence[Sequence[tuple[int, MultiPoly]]],
    spec: FieldSpec,
    work_cap: int,
    stats: dict | None = None,
) -> list[int]:
    """sum k*#Z(P) over the roots (k, P) of each list, over F_q.

    Every list is planned, and the points of the kernel boxes of all the plans
    are charged to the work cap together, before anything is evaluated. Then
    `stats`, when given, gains the rules that fired (``kernel`` for each
    kernel box), the points charged and their points x terms; a count that
    raises CapExceeded leaves it untouched.
    """
    rules = Counter()
    plans = [_plan(roots, spec.q, rules) for roots in root_lists]
    boxes = [(spec.q ** m, system) for plan in plans for m, system in plan if system]
    points = sum(n for n, _ in boxes)
    if points > work_cap:
        raise CapExceeded(f"{points} evaluations exceed the work cap {work_cap}")
    if stats is not None:
        rules.update("kernel" for _ in boxes)
        rules.update(stats.get("rules", {}))
        stats["rules"] = dict(sorted(rules.items()))
        stats["points"] = stats.get("points", 0) + points
        point_terms = sum(n * sum(len(P.terms) for P in system) for n, system in boxes)
        stats["point_terms"] = stats.get("point_terms", 0) + point_terms
    return [_run_plan(plan, spec) for plan in plans]


def affine_count(
    P: MultiPoly,
    spec: FieldSpec,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    stats: dict | None = None,
) -> int:
    """Exact #{x in F_q^rho : P(x) = 0}; deterministic, partition independent.

    The work cap bounds the points of the boxes the plan evaluates; `stats`,
    when given, gains the rules that fired and the points evaluated.
    """
    _check_poly_field(P, spec)
    return _count([[(1, P)]], spec, work_cap, stats)[0]


def _strata_roots(P: MultiPoly, space: Space) -> list[tuple[int, MultiPoly]]:
    """Zeros of P on the strata's subspaces V_S = {x_i = 0, i in S} as roots (c_U, P|x_U=0).

    Inclusion-exclusion adds one stratum at a time: 1_(A or V_S) = 1_A + 1_(V_S) -
    1_A * 1_(V_S), with 1_(V_U) * 1_(V_S) = 1_(V_(U | S)); equal unions share one c_U.
    """
    unions: dict[frozenset, int] = {}
    for stratum in space.strata:
        S = frozenset(stratum)
        step = {S: 1}
        for U, c in unions.items():
            step[U | S] = step.get(U | S, 0) - c
        for U, c in step.items():
            unions[U] = unions.get(U, 0) + c
        unions = {U: c for U, c in unions.items() if c}
    return [(c, _at_zero(P, U)) for U, c in unions.items()]


def exceptional_on_hypersurface(
    P: MultiPoly,
    space: Space,
    spec: FieldSpec,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> int:
    """#{x in Z(F_q) : P(x) = 0}, planned from the restrictions of P to the strata.

    The work cap bounds the points of the boxes the plan evaluates.
    """
    _check_space_poly(P, space, spec)
    return _count([_strata_roots(P, space)], spec, work_cap)[0]


def _check_space_poly(P: MultiPoly, space: Space, spec: FieldSpec) -> None:
    _check_poly_field(P, spec)
    if P.nvars != space.grading.rho:
        raise InvalidParams(f"polynomial has {P.nvars} vars, space has {space.grading.rho}")


# --------------------------------------------------------------------------
# toric point counts (quotient formula and direct orbit enumeration)
# --------------------------------------------------------------------------

#: multidegrees by (exponents, grading), at most _PROGRAM_CACHE, the oldest dropped first
_degrees: dict = {}


def _toric_input(P: MultiPoly, space: Space, spec: FieldSpec) -> MultiDegree | None:
    """Check the input of a toric count; the multidegree of P, or None for P = 0.

    P must be homogeneous (orbits must be well defined), over `spec` and in one
    variable per ray, checked in that order. The grading is free and effective
    by construction (`fan.GradingData`, `fan.grading_from_fan`). The degree
    depends on P's exponents only and is kept for them, so the orbit and the
    quotient count of one P check its homogeneity once.
    """
    degree = None
    if not P.is_zero:
        key = (tuple(e for e, _ in P.terms), space.grading)
        if (degree := _degrees.get(key)) is None:
            degree = multidegree(P, space.grading)  # an error propagates, and is not kept
            if len(_degrees) >= _PROGRAM_CACHE:
                del _degrees[next(iter(_degrees))]
            _degrees[key] = degree
    _check_space_poly(P, space, spec)
    return degree


def _toric_counts(
    P: MultiPoly, space: Space, spec: FieldSpec, work_cap: int, stats: dict | None = None
) -> tuple[int, int, int, MultiDegree | None]:
    """(N_affine, N_exceptional, N_toric, multidegree of P or None for P = 0), where
    N_toric = (N_affine - N_exceptional) / (q-1)^r, once `_toric_input` accepts the input.

    The plans of the affine and the exceptional count are charged to one
    work cap before anything is evaluated. Raises NonIntegralQuotient unless
    the division is exact.
    """
    degree = _toric_input(P, space, spec)
    r = space.grading.r
    n_aff, n_exc = _count([[(1, P)], _strata_roots(P, space)], spec, work_cap, stats)
    denom = (spec.q - 1) ** r
    diff = n_aff - n_exc
    if diff % denom:
        raise NonIntegralQuotient(
            f"(N_affine - N_exceptional) = {diff} is not divisible by (q-1)^{r} = {denom}"
        )
    return n_aff, n_exc, diff // denom, degree


def toric_count_quotient(
    P: MultiPoly, space: Space, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> int:
    """(N_affine - N_exceptional) / (q-1)^r with exact divisibility enforced."""
    return _toric_counts(P, space, spec, work_cap)[2]


def toric_count_orbits(
    P: MultiPoly, space: Space, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> int:
    """Number of torus orbits on {P = 0} minus the exceptional set.

    The torus element mu scales x_i by g^shift_i(mu), shift_i(mu) = weights[i].mu
    mod q-1. Coordinates j join a set J while the shifts on J take all
    (q-1)^|J| values; then some mu scales every nonzero x_j (j in J) to 1, so
    every orbit meets the box with x_j in {0, 1} for j in J, and only that box
    is evaluated. Each solution in it is mapped to its canonical orbit
    representative (least odometer code over all (q-1)^r torus elements, summed
    from per-axis digit tables); the count is the number of distinct
    representatives.
    """
    import numpy as np

    _toric_input(P, space, spec)
    G = space.grading
    q = spec.q
    rho = G.rho
    points = q ** rho
    if points > min(work_cap, _ORBIT_POINT_CAP):
        raise CapExceeded(f"{points} points exceed the orbit-enumeration cap")
    mus = np.array(list(itertools.product(range(q - 1), repeat=G.r)), dtype=np.int64)
    # the weights enter int64 reduced mod q-1, so no product overflows
    weights = np.array([[w % (q - 1) for w in row] for row in G.weights], dtype=np.int64)
    shifts = mus @ weights.T % (q - 1)
    # key numbers the shift tuples on J; j joins J when the tuples on J + [j] take every value
    J: list[int] = []
    key = np.zeros(len(shifts), dtype=np.int64)
    for j in range(rho):
        trial = key * (q - 1) + shifts[:, j]
        if len(set(trial.tolist())) == (q - 1) ** (len(J) + 1):
            J.append(j)
            key = trial
    log, exp = log_tables(spec)
    axes = [np.array([0, exp[0]]) if i in J else np.arange(q) for i in range(rho)]
    # digit[s, a]: the element index of g^s * a (0 stays 0); table[i] weighs it as digit i
    digit = exp[(log + np.arange(q - 1)[:, None]) % (q - 1)].astype(np.int32)
    digit[:, 0] = 0
    table = [digit * np.int32(q ** (rho - 1 - i)) for i in range(rho)]
    seen = np.zeros(points, dtype=bool)
    charged = 0
    for block, mask in _zero_masks(P, spec, axes):
        where = np.nonzero(mask & ~_on_strata(block, space.strata))
        n = len(where[0])
        charged += len(shifts) * n
        if charged > work_cap:
            raise CapExceeded("orbit canonicalization exceeds the work cap")
        if not n:
            continue
        coords = [a[w] for a, w in zip(block, where)]
        best = np.full(n, points, dtype=np.int32)
        # the codes of the solutions under a chunk of torus elements, one broadcast an axis
        step = max(1, _BLOCK_TARGET // n)
        for start in range(0, len(shifts), step):
            chunk = shifts[start:start + step]
            code = sum(np.take(t[chunk[:, i]], c, axis=1)
                       for i, (t, c) in enumerate(zip(table, coords)))
            np.minimum(best, code.min(axis=0), out=best)
        seen[best] = True
    return int(np.count_nonzero(seen))


# --------------------------------------------------------------------------
# congruence checks
# --------------------------------------------------------------------------

def _report(
    kind: str, spec: FieldSpec, start: float, n_affine: int, value: int, modulus: int, want: int,
    **extra,
) -> CongruenceReport:
    """The report that `value` ≡ `want` (mod `modulus`), timed from `start`."""
    residue = value % modulus
    return CongruenceReport(
        kind=kind, q=spec.q, p=spec.p, f=spec.f, n_affine=n_affine, modulus=modulus,
        residue=residue, passed=residue == want, elapsed=time.monotonic() - start, **extra,
    )


def check_cw(
    P: MultiPoly,
    G: GradingData,
    spec: FieldSpec,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    stats: dict | None = None,
) -> CongruenceReport:
    """N ≡ 0 (mod p) whenever some degree bound d_j is below the weight sum a_j."""
    start = time.monotonic()
    d = degree_bounds(P, G)
    a = total_generator_degree(G)
    if not any(d[j] < a[j] for j in range(G.r)):
        raise HypothesisNotMet(f"degree bounds {d} not below weight sums {a} in any component")
    n = affine_count(P, spec, work_cap=work_cap, stats=stats)
    return _report("CW", spec, start, n, n, spec.p, 0, stats=stats)


def check_ax(
    P: MultiPoly,
    G: GradingData,
    spec: FieldSpec,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    stats: dict | None = None,
) -> CongruenceReport:
    """q^mu | N with mu computed from the grading and the degree bounds."""
    start = time.monotonic()
    d = degree_bounds(P, G)
    mu = ax_exponent(G, d)
    n = affine_count(P, spec, work_cap=work_cap, stats=stats)
    mu_classical = None
    if G.r == 1 and all(row == (1,) for row in G.weights):
        mu_classical = classical_ax_exponent(G.rho, d[0])
    return _report(
        "Ax", spec, start, n, n, spec.q ** mu, 0, mu=mu, mu_classical=mu_classical, stats=stats
    )


@cache
def blowup_p4_space() -> Space:
    return builtin("blowup_p4_line")


def check_esnault(
    inst: "quintic_mod.QuinticInstance",
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    stats: dict | None = None,
) -> CongruenceReport:
    """Quotient count of the blown-up quintic ≡ 1 (mod q) over the instance's field;
    records the q | N verdict."""
    start = time.monotonic()
    spec = inst.field
    space = blowup_p4_space()
    P = quintic_mod.strict_transform(inst)
    n_aff, n_exc, n_toric, d = _toric_counts(P, space, spec, work_cap, stats)
    mu = ax_exponent(space.grading, d)
    q = spec.q
    return _report(
        "Esnault", spec, start, n_aff, n_toric, q, 1,
        n_exceptional=n_exc, n_toric=n_toric, mu=mu, ax_pass=n_aff % q ** mu == 0, stats=stats,
    )
