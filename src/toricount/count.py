"""Exhaustive exact point counting and congruence verdicts.

Counts are exact Python integers. One numpy kernel evaluates P on a box of
F_q^rho in odometer order (x0 most significant, field elements in enumeration
order) and yields its zero mask block by block, the same way for prime fields,
extension fields and q > 256: terms are sums of discrete logs, and their values
are added as F_p digits. Three counts read that mask: the affine count over
the whole grid, the exceptional count over each stratum's coordinate subspace,
and the orbit count, which canonicalizes the solutions under the torus. Results
are independent of the block partitioning, which `block_vars` exposes for
testing.

Congruence checks returned as :class:`CongruenceReport`:

* ``check_cw``       - N ≡ 0 (mod p) when some degree bound d_j < a_j.
* ``check_cw_projective`` - #X(F_q) ≡ 1 (mod p) for projective hypersurfaces.
* ``check_ax``       - q^mu | N with mu from the grading.
* ``check_esnault``  - quotient count of the blown-up quintic ≡ 1 (mod q).

The degree hypotheses consume componentwise degree *bounds*, so inhomogeneous
inputs (e.g. y^2 - P(x) under a weighted grading) are accepted; exact
homogeneity is enforced only where orbits must be well defined (the toric
quotient and orbit counts).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import quintic as quintic_mod
from .errors import (
    CapExceeded,
    FieldMismatch,
    HypothesisNotMet,
    InvalidParams,
    NonEffectiveGrading,
    NonIntegralQuotient,
    TorsionClassGroup,
)
from .fan import GradingData, Space, builtin
from .ff import FieldSpec, log_tables
from .poly import (
    MultiPoly,
    ax_exponent,
    classical_ax_exponent,
    degree_bounds,
    multidegree,
    standard_grading,
    total_generator_degree,
)

DEFAULT_WORK_CAP = 10 ** 9

#: target block size (points) for the zero-mask kernel
_BLOCK_TARGET = 1 << 20

#: orbit enumeration materializes solution points; keep the full box modest
_ORBIT_POINT_CAP = 1 << 22


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass
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

    def to_dict(self, include_timing: bool = False) -> dict:
        out: dict = {
            "kind": self.kind,
            "q": self.q,
            "p": self.p,
            "f": self.f,
            "n_affine": self.n_affine,
        }
        if self.n_exceptional is not None:
            out["n_exceptional"] = self.n_exceptional
        if self.n_toric is not None:
            out["n_toric"] = self.n_toric
        out["modulus"] = self.modulus
        out["residue"] = self.residue
        out["pass"] = self.passed
        if self.mu is not None:
            out["mu"] = self.mu
        if self.mu_classical is not None:
            out["mu_classical"] = self.mu_classical
        if self.ax_pass is not None:
            out["ax_pass"] = self.ax_pass
        if include_timing:
            out["timing"] = {"elapsed_s": self.elapsed}
        return out

    CSV_FIELDS = (
        "kind", "q", "p", "f", "n_affine", "n_exceptional", "n_toric",
        "modulus", "residue", "pass", "mu", "mu_classical", "ax_pass",
    )

    def to_csv_row(self) -> list[str]:
        d = self.to_dict()
        row = []
        for key in self.CSV_FIELDS:
            v = d.get(key)
            row.append("" if v is None else str(v).lower() if isinstance(v, bool) else str(v))
        return row


# --------------------------------------------------------------------------
# space / grading coercion
# --------------------------------------------------------------------------

def as_space(obj) -> Space:
    if isinstance(obj, Space):
        return obj
    raise InvalidParams(f"expected a Space, got {type(obj).__name__}")


def as_grading(obj) -> GradingData:
    if isinstance(obj, GradingData):
        return obj
    if isinstance(obj, Space):
        return obj.grading
    raise InvalidParams(f"expected a GradingData or Space, got {type(obj).__name__}")


# --------------------------------------------------------------------------
# the zero-mask kernel
# --------------------------------------------------------------------------

def _check_poly_field(P: MultiPoly, spec: FieldSpec) -> None:
    if P.domain != spec:
        raise FieldMismatch(
            f"polynomial over {getattr(P.domain, 'name', P.domain)!s}, counting over {spec.name}"
        )


def _choose_block_vars(sizes: list[int], block_vars: int | None) -> int:
    rho = len(sizes)
    if block_vars is not None:
        if not 0 <= block_vars <= rho:
            raise InvalidParams(f"block_vars must be in [0, {rho}]")
        return block_vars
    k = 0
    while k < rho and math.prod(sizes[k:]) > _BLOCK_TARGET:
        k += 1
    return k


def _axis_view(values: np.ndarray, i: int, rho: int) -> np.ndarray:
    """`values` laid along axis i of a rho-dimensional box, for broadcasting."""
    return values.reshape((1,) * i + (-1,) + (1,) * (rho - 1 - i))


def _reduce_digits(acc: np.ndarray, p: int, f: int, bits: int) -> np.ndarray:
    """Reduce each `bits`-wide F_p digit packed in `acc` mod p."""
    if f == 1:
        return acc % p
    low = (1 << bits) - 1
    out = np.zeros_like(acc)
    for j in range(f):
        out |= ((acc >> (bits * j)) & low) % p << (bits * j)
    return out


def _zero_masks(
    P: MultiPoly, spec: FieldSpec, axes: list[np.ndarray], block_vars: int | None = None
) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """Yield (block_axes, mask) over the box axes[0] x ... x axes[rho-1] of F_q^rho.

    axes[i] holds the element indices coordinate i runs over. The box is cut
    into blocks over its leading axes (block_vars of them, or the fewest that
    leave at most _BLOCK_TARGET points a block); block_axes are the axes of one
    block, each leading axis holding one element, and mask, of the block's
    shape in odometer order, is True where P vanishes.

    Every field takes the same path. A term c * prod x_i^e_i is evaluated as
    log c + sum e_i log x_i, broadcast from axis-shaped tables in which a
    sentinel stands for the element 0. A table maps that sum to the base-p
    digits of the term's value, packed into one int64; the terms' packed
    digits are added as integers and reduced mod p once a block, or sooner
    when a digit could overflow its bits.
    """
    q, p, f = spec.q, spec.p, spec.f
    rho = len(axes)
    log, exp = log_tables(spec)
    terms = [
        (int(log[c.to_index()]), [(i, e) for i, e in enumerate(exps) if e]) for exps, c in P.terms
    ]
    width = max((len(factors) for _, factors in terms), default=0)
    # a log sum without a zero factor stays below the sentinel; one with a zero reaches it
    sentinel = (width + 1) * (q - 1)
    bits = 63 // f
    packed = sum((exp // p ** j % p) << (bits * j) for j in range(f))
    value = np.zeros(width * sentinel + q - 1, dtype=np.int64)
    value[:sentinel] = np.resize(packed, sentinel)
    # terms that reduced digits (at most p-1) can take before one could overflow
    headroom = ((1 << bits) - 1) // (p - 1) - 1
    powers = {factor for _, factors in terms for factor in factors}
    k = _choose_block_vars([len(a) for a in axes], block_vars)
    for lead in itertools.product(*axes[:k]):
        block = [np.array([v]) for v in lead] + list(axes[k:])
        logs = {}
        for i, e in powers:
            a = block[i]
            logs[i, e] = _axis_view(np.where(a == 0, sentinel, e * log[a] % (q - 1)), i, rho)
        acc = np.zeros(tuple(len(a) for a in block), dtype=np.int64)
        for n, (clog, factors) in enumerate(terms, 1):
            s = clog
            for factor in factors:
                s = s + logs[factor]
            acc += value[s]
            if n % headroom == 0:
                acc = _reduce_digits(acc, p, f, bits)
        yield block, _reduce_digits(acc, p, f, bits) == 0


def _on_strata(axes: list[np.ndarray], strata) -> np.ndarray:
    """Broadcast boolean over the box: every coordinate of some stratum is 0."""
    rho = len(axes)
    out = np.zeros((1,) * rho, dtype=bool)
    for stratum in strata:
        on = np.ones((1,) * rho, dtype=bool)
        for i in stratum:
            on = on & _axis_view(axes[i] == 0, i, rho)
        out = out | on
    return out


def affine_count(
    P: MultiPoly,
    spec: FieldSpec,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    block_vars: int | None = None,
) -> int:
    """Exact #{x in F_q^rho : P(x) = 0}; deterministic, partition independent."""
    _check_poly_field(P, spec)
    q, rho = spec.q, P.nvars
    points = q ** rho
    if points > work_cap:
        raise CapExceeded(f"{q}^{rho} = {points} evaluations exceed the work cap {work_cap}")
    axes = [np.arange(q)] * rho
    return sum(int(np.count_nonzero(mask)) for _, mask in _zero_masks(P, spec, axes, block_vars))


def exceptional_on_hypersurface(
    P: MultiPoly, space_like, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> int:
    """#{x in Z(F_q) : P(x) = 0}, one coordinate subspace per stratum.

    Stratum n contributes the zeros of P on its subspace {x_i = 0, i in
    stratum} that lie on none of the strata before it.
    """
    space = as_space(space_like)
    _check_poly_field(P, spec)
    q, rho = spec.q, space.grading.rho
    if P.nvars != rho:
        raise InvalidParams(f"polynomial has {P.nvars} vars, space has {rho}")
    strata = space.exceptional.strata
    total = 0
    for n, stratum in enumerate(strata):
        points = q ** (rho - len(stratum))
        if points > work_cap:
            raise CapExceeded(f"{points} evaluations on a stratum exceed the work cap {work_cap}")
        axes = [np.zeros(1, dtype=np.int64) if i in stratum else np.arange(q) for i in range(rho)]
        for block, mask in _zero_masks(P, spec, axes):
            total += int(np.count_nonzero(mask & ~_on_strata(block, strata[:n])))
    return total


# --------------------------------------------------------------------------
# toric point counts (quotient formula and direct orbit enumeration)
# --------------------------------------------------------------------------

def _require_free_effective(G: GradingData) -> None:
    if G.torsion:
        raise TorsionClassGroup(f"grading has invariant factors {G.torsion}")
    if not G.is_effective:
        raise NonEffectiveGrading("grading has negative weights")


def _require_homogeneous_or_zero(P: MultiPoly, G: GradingData) -> None:
    if not P.is_zero:
        multidegree(P, G)  # raises NotHomogeneous on mixed degrees


def _toric_counts(
    P: MultiPoly, space: Space, spec: FieldSpec, work_cap: int
) -> tuple[int, int, int]:
    """(N_affine, N_exceptional, N_toric) with N_toric = (N_affine - N_exceptional) / (q-1)^r.

    Raises NonIntegralQuotient unless the division is exact.
    """
    G = space.grading
    _require_free_effective(G)
    _require_homogeneous_or_zero(P, G)
    n_aff = affine_count(P, spec, work_cap=work_cap)
    n_exc = exceptional_on_hypersurface(P, space, spec, work_cap=work_cap)
    denom = (spec.q - 1) ** G.r
    diff = n_aff - n_exc
    if diff % denom:
        raise NonIntegralQuotient(
            f"(N_affine - N_exceptional) = {diff} is not divisible by (q-1)^{G.r} = {denom}"
        )
    return n_aff, n_exc, diff // denom


def toric_count_quotient(
    P: MultiPoly, space_like, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> int:
    """(N_affine - N_exceptional) / (q-1)^r with exact divisibility enforced."""
    return _toric_counts(P, as_space(space_like), spec, work_cap)[2]


def toric_count_orbits(
    P: MultiPoly, space_like, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> int:
    """Number of torus orbits on {P = 0} minus the exceptional set.

    Each solution is mapped to its canonical orbit representative (least
    odometer code over all (q-1)^r group elements, worked out in log space);
    the count is the number of distinct representatives.
    """
    space = as_space(space_like)
    G = space.grading
    _require_free_effective(G)
    _require_homogeneous_or_zero(P, G)
    q = spec.q
    rho = G.rho
    points = q ** rho
    if points > min(work_cap, _ORBIT_POINT_CAP):
        raise CapExceeded(f"{points} points exceed the orbit-enumeration cap")
    # a torus element scales x_i by g^shift_i, which on logs is x -> scaled[log x + shift];
    # 0 takes the log `zero`, past every shifted unit, and `scaled` maps it back to 0
    log, exp = log_tables(spec)
    zero = 2 * (q - 1)
    logs_of = np.where(log < 0, zero, log).astype(np.int32)
    scaled = np.zeros(3 * (q - 1), dtype=np.int32)
    scaled[:zero] = np.resize(exp, zero)
    columns: list[list[np.ndarray]] = [[] for _ in range(rho)]
    n = 0
    for block, mask in _zero_masks(P, spec, [np.arange(q)] * rho):
        keep = mask & ~_on_strata(block, space.exceptional.strata)
        n += int(np.count_nonzero(keep))
        for i, a in enumerate(block):
            columns[i].append(np.broadcast_to(_axis_view(logs_of[a], i, rho), keep.shape)[keep])
    if (q - 1) ** G.r * n > work_cap:
        raise CapExceeded("orbit canonicalization exceeds the work cap")
    logs = [np.concatenate(col) for col in columns]
    best = None
    for mu in itertools.product(range(q - 1), repeat=G.r):
        code = np.zeros(n, dtype=np.int32)
        for i, lg in enumerate(logs):
            shift = sum(w * m for w, m in zip(G.weights[i], mu)) % (q - 1)
            code = code * q + scaled[lg + shift]
        best = code if best is None else np.minimum(best, code)
    seen = np.zeros(points, dtype=bool)
    seen[best] = True
    return int(np.count_nonzero(seen))


# --------------------------------------------------------------------------
# congruence checks
# --------------------------------------------------------------------------

def check_cw(
    P: MultiPoly, grading_like, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> CongruenceReport:
    """N ≡ 0 (mod p) whenever some degree bound d_j is below the weight sum a_j."""
    start = time.monotonic()
    G = as_grading(grading_like)
    _require_free_effective(G)
    d = degree_bounds(P, G)
    a = total_generator_degree(G)
    if not any(d[j] < a[j] for j in range(G.r)):
        raise HypothesisNotMet(f"degree bounds {d} not below weight sums {a} in any component")
    n = affine_count(P, spec, work_cap=work_cap)
    residue = n % spec.p
    return CongruenceReport(
        kind="CW",
        q=spec.q,
        p=spec.p,
        f=spec.f,
        n_affine=n,
        modulus=spec.p,
        residue=residue,
        passed=residue == 0,
        elapsed=time.monotonic() - start,
    )


def check_cw_projective(
    P: MultiPoly, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> CongruenceReport:
    """#X(F_q) = (N - 1)/(q - 1) ≡ 1 (mod p) for degree 1 <= d <= n hypersurfaces in P^n."""
    start = time.monotonic()
    n = P.nvars - 1
    d = multidegree(P, standard_grading(P.nvars))[0]  # strict homogeneity: orbits are needed
    if not 1 <= d <= n:
        raise HypothesisNotMet(f"degree {d} is outside [1, {n}], the range for P^{n}")
    n_aff, _, n_proj = _toric_counts(P, builtin(f"projective({n})"), spec, work_cap)
    residue = n_proj % spec.p
    return CongruenceReport(
        kind="CW-projective",
        q=spec.q,
        p=spec.p,
        f=spec.f,
        n_affine=n_aff,
        n_toric=n_proj,
        modulus=spec.p,
        residue=residue,
        passed=residue == 1,
        elapsed=time.monotonic() - start,
    )


def check_ax(
    P: MultiPoly, grading_like, spec: FieldSpec, *, work_cap: int = DEFAULT_WORK_CAP
) -> CongruenceReport:
    """q^mu | N with mu computed from the grading and the degree bounds."""
    start = time.monotonic()
    G = as_grading(grading_like)
    _require_free_effective(G)
    d = degree_bounds(P, G)
    mu = ax_exponent(G, d)
    modulus = spec.q ** mu
    n = affine_count(P, spec, work_cap=work_cap)
    residue = n % modulus
    mu_classical = None
    if G.r == 1 and all(row == (1,) for row in G.weights):
        mu_classical = classical_ax_exponent(G.rho, d[0])
    return CongruenceReport(
        kind="Ax",
        q=spec.q,
        p=spec.p,
        f=spec.f,
        n_affine=n,
        modulus=modulus,
        residue=residue,
        passed=residue == 0,
        mu=mu,
        mu_classical=mu_classical,
        elapsed=time.monotonic() - start,
    )


_BLOWUP_SPACE: Space | None = None


def blowup_p4_space() -> Space:
    global _BLOWUP_SPACE
    if _BLOWUP_SPACE is None:
        _BLOWUP_SPACE = builtin("blowup_p4_line")
    return _BLOWUP_SPACE


def check_esnault(
    inst: "quintic_mod.QuinticInstance",
    spec: FieldSpec | None = None,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> CongruenceReport:
    """Quotient count of the blown-up quintic ≡ 1 (mod q); records the q | N verdict."""
    start = time.monotonic()
    if spec is None:
        spec = inst.field
    elif spec != inst.field:
        raise FieldMismatch(f"instance over {inst.field.name}, check over {spec.name}")
    space = blowup_p4_space()
    P = quintic_mod.strict_transform(inst)
    G = space.grading
    d = multidegree(P, G)
    mu = ax_exponent(G, d)
    q = spec.q
    n_aff, n_exc, n_toric = _toric_counts(P, space, spec, work_cap)
    residue = n_toric % q
    return CongruenceReport(
        kind="Esnault",
        q=q,
        p=spec.p,
        f=spec.f,
        n_affine=n_aff,
        n_exceptional=n_exc,
        n_toric=n_toric,
        modulus=q,
        residue=residue,
        passed=residue == 1,
        mu=mu,
        ax_pass=n_aff % q ** mu == 0,
        elapsed=time.monotonic() - start,
    )
