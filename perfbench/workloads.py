"""The benchmark's four workloads: seeded inputs, one operation, its traced pieces, and checks.

Every check compares an output with a fact that does not come from the code
under test: a point-count identity of the blown-up quintic, the agreement of
two counting methods, or the benchmark's own integer trace recurrence for A_s.
All operations of a workload have one size: quintic instances are drawn with
every coefficient nonzero, so each strict transform has all 35 terms.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from toricount import chow, count, fan, ff, quintic
from toricount.poly import MultiPoly

BLOWUP = "blowup_p4_line"


@contextmanager
def timed(phases: dict, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = time.perf_counter() - start


def dense_batch(spec, seed: int, size: int) -> list:
    """`size` quintic instances whose 35 coefficients are all nonzero."""
    rng = random.Random(seed)
    batch = []
    for _ in range(size):
        p3, q3, q4 = (
            quintic.poly_from_coefficients(
                spec, d, [rng.randrange(1, spec.q) for _ in range(comb(d + 2, 2))]
            )
            for d in (3, 3, 4)
        )
        batch.append(quintic.QuinticInstance(field=spec, p3=p3, q3=q3, q4=q4))
    return batch


def quintic_setup(p: int, f: int, seed: int, size: int, phases: dict):
    """The field GF(p^f) with its tables, the blowup space, and the seeded batch."""
    with timed(phases, "ff.field_setup_s"):
        spec = ff.make_field(p, f)
        ff.arithmetic_tables(spec)
    with timed(phases, "fan.grading_s"):
        space = fan.builtin(BLOWUP)
    with timed(phases, "quintic.batch_s"):
        batch = dense_batch(spec, seed, size)
    return spec, space, batch


def affine_attrs(P, spec, **_):
    return {"points": spec.q ** P.nvars, "terms": len(P.terms)}


#: functions the program also calls internally; wrapping them while the pieces
#: run records those nested calls (the sub-counts of the exceptional count and
#: the two counts inside the quotient) as child spans
NESTED = (
    (count, "affine_count", "count.affine", affine_attrs),
    (count, "exceptional_on_hypersurface", "count.exceptional", None),
)


def blowup_facts(q: int, n_affine: int, n_exceptional: int) -> list[str]:
    """Point-count identities that hold for every blown-up quintic over GF(q)."""
    problems = []
    if n_exceptional != 2 * q ** 3 - 1:
        problems.append(f"n_exceptional {n_exceptional} != 2q^3-1")
    if (n_affine - n_exceptional) % (q - 1) ** 2:
        problems.append("(q-1)^2 does not divide n_affine - n_exceptional")
    elif ((n_affine - n_exceptional) // (q - 1) ** 2) % q != 1:
        problems.append("n_toric is not 1 mod q")
    if n_affine % q:
        problems.append("q does not divide n_affine (mu = 1)")
    return problems


class Esnault:
    """`check_esnault` on a seeded batch of dense blown-up quintics over one field."""

    round_size = 1
    whole = "count.check_esnault"

    def __init__(self, p: int, f: int, batch: int):
        self.p, self.f, self.batch = p, f, batch

    def setup(self, seed: int, phases: dict) -> list:
        self.spec, self.space, batch = quintic_setup(self.p, self.f, seed, self.batch, phases)
        return batch

    def op(self, inst):
        return count.check_esnault(inst)

    def pieces(self, inst, tracer):
        with tracer.span("quintic.strict_transform"):
            P = quintic.strict_transform(inst)
        n_affine = count.affine_count(P, self.spec)
        n_exceptional = count.exceptional_on_hypersurface(P, self.space, self.spec)
        return n_affine, n_exceptional

    def reproduces(self, report, pieces) -> bool:
        return (report.n_affine, report.n_exceptional) == pieces

    def check(self, inst, report) -> list[str]:
        q = self.spec.q
        problems = blowup_facts(q, report.n_affine, report.n_exceptional)
        if report.n_toric * (q - 1) ** 2 != report.n_affine - report.n_exceptional:
            problems.append("n_toric is not (n_affine - n_exceptional)/(q-1)^2")
        if not report.passed:
            problems.append("report says the congruence fails")
        return problems

    def extra_ops(self) -> list:
        return []


class ToricOrbits:
    """Orbit enumeration against the quotient formula on seeded strict transforms."""

    round_size = 1
    whole = "toric_orbits.op"

    def __init__(self, p: int, batch: int):
        self.p, self.batch = p, batch

    def setup(self, seed: int, phases: dict) -> list:
        self.spec, self.space, batch = quintic_setup(self.p, 1, seed, self.batch, phases)
        self._counts: dict = {}
        return batch

    def op(self, inst):
        P = quintic.strict_transform(inst)
        return (
            count.toric_count_orbits(P, self.space, self.spec),
            count.toric_count_quotient(P, self.space, self.spec),
        )

    def pieces(self, inst, tracer):
        with tracer.span("quintic.strict_transform"):
            P = quintic.strict_transform(inst)
        with tracer.span("count.orbits") as orbits_span:
            orbits = count.toric_count_orbits(P, self.space, self.spec)
        with tracer.span("count.quotient"):
            quotient = count.toric_count_quotient(P, self.space, self.spec)
        # images = non-exceptional solutions x (q-1)^r = quotient x (q-1)^(2r)
        orbits_span["attrs"]["images"] = quotient * (self.spec.q - 1) ** (2 * self.space.grading.r)
        return orbits, quotient

    def reproduces(self, whole, pieces) -> bool:
        return whole == pieces

    def check(self, inst, result) -> list[str]:
        orbits, quotient = result
        problems = [] if orbits == quotient else [f"orbits {orbits} != quotient {quotient}"]
        if id(inst) not in self._counts:
            P = quintic.strict_transform(inst)
            self._counts[id(inst)] = (
                count.affine_count(P, self.spec),
                count.exceptional_on_hypersurface(P, self.space, self.spec),
            )
        n_affine, n_exceptional = self._counts[id(inst)]
        problems += blowup_facts(self.spec.q, n_affine, n_exceptional)
        if quotient * (self.spec.q - 1) ** 2 != n_affine - n_exceptional:
            problems.append("quotient is not (n_affine - n_exceptional)/(q-1)^2")
        return problems

    def extra_ops(self) -> list:
        return [self.zero_polynomial]

    def zero_polynomial(self) -> list[str]:
        """The whole blown-up P^4 has (q^2+q+1)^2 points."""
        q = self.spec.q
        zero = MultiPoly.zero(6, self.spec)
        want = (q * q + q + 1) ** 2
        got = (
            count.toric_count_orbits(zero, self.space, self.spec),
            count.toric_count_quotient(zero, self.space, self.spec),
        )
        return [] if got == (want, want) else [f"zero polynomial counts {got}, want {want}"]


class ChowSweep:
    """`tsen_certificate(s, c)` over the grid s in 0..7, c in 0..3, in seeded order."""

    whole = "chow.certificate"
    S_MAX, C_MAX = 7, 3
    round_size = (S_MAX + 1) * (C_MAX + 1)

    def setup(self, seed: int, phases: dict) -> list:
        grid = [(s, c) for s in range(self.S_MAX + 1) for c in range(self.C_MAX + 1)]
        random.Random(seed).shuffle(grid)
        self._expected: dict = {}
        return grid

    def op(self, sc):
        return chow.tsen_certificate(*sc)

    def pieces(self, sc, tracer):
        s, c = sc
        spec = chow.ChowRingSpec(s)
        E = 5 * s + c + 1
        with tracer.span("poly.power"):
            HE = chow.power(chow.hyperplane_class(5, 2), E)
        with tracer.span("chow.membership"):
            member = chow.ideal_membership(HE, spec)
        with tracer.span("chow.socle_dim"):
            socle_dim = chow.socle_dimension(spec)
        gamma = None
        k = spec.top_degree - E
        if k >= 0:
            with tracer.span("chow.normal_form"):
                gamma = _normal_form_ratio(
                    chow.normal_form(HE * chow.class_v() ** k, spec),
                    chow.normal_form(chow.fundamental_class(spec), spec),
                )
        return not member.in_ideal, gamma, socle_dim

    def reproduces(self, cert, pieces) -> bool:
        return (cert.nonzero, cert.gamma, cert.socle_dim) == pieces

    def check(self, sc, cert) -> list[str]:
        if sc not in self._expected:
            self._expected[sc] = trace_gamma(*sc)
        gamma, nonzero = self._expected[sc]
        problems = []
        if cert.gamma != gamma:
            problems.append(f"gamma {cert.gamma} != {gamma}")
        if cert.nonzero != nonzero:
            problems.append(f"nonzero {cert.nonzero} != {nonzero}")
        if cert.socle_dim != 1:
            problems.append(f"socle_dim {cert.socle_dim} != 1")
        return problems

    def extra_ops(self) -> list:
        return []


def _normal_form_ratio(target, fundamental) -> Fraction:
    """gamma with target = gamma * fundamental, both reduced to the 1-dim top degree."""
    t, f = target.as_dict(), fundamental.as_dict()
    (mono, coeff), = f.items()
    if set(t) - {mono}:
        raise ValueError("normal forms are not proportional")
    return Fraction(t.get(mono, 0)) / Fraction(coeff)


def trace_gamma(s: int, c: int) -> tuple[int | None, bool]:
    """gamma and the nonvanishing of (5x+2v)^E in A_s, E = 5s+c+1, from integers only.

    A_s is a complete intersection with socle degree D = 6s+4. Its trace
    phi_i = phi(x^i v^(D-i)), normalized on the fundamental class
    x^(3s+2)(x+v)^(2s+2)v^s, is phi_i = 0 for i >= 3s+3, phi_(3s+2) = 1 and
    phi_t = -sum_(l>=1) C(2s+2, l) phi_(t+l). gamma is phi((5x+2v)^E v^(D-E)),
    and (5x+2v)^E != 0 iff some monomial of the complementary degree pairs
    with it to a nonzero trace (the pairing is perfect).
    """
    D = 6 * s + 4
    E = 5 * s + c + 1
    phi = [0] * (D + 1)
    phi[3 * s + 2] = 1
    for t in range(3 * s + 1, -1, -1):
        phi[t] = -sum(comb(2 * s + 2, l) * phi[t + l] for l in range(1, 2 * s + 3) if t + l <= D)
    if E > D:
        return None, False
    coeffs = [comb(E, j) * 5 ** j * 2 ** (E - j) for j in range(E + 1)]
    pairings = [sum(a * phi[j + i] for j, a in enumerate(coeffs)) for i in range(D - E + 1)]
    return pairings[0], any(pairings)


WORKLOADS = {
    "esnault_prime": lambda: Esnault(11, 1, batch=8),
    "esnault_ext": lambda: Esnault(2, 3, batch=32),
    "chow_sweep": ChowSweep,
    "toric_orbits": lambda: ToricOrbits(5, batch=32),
}
