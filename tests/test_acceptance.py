"""Acceptance gate: nine named criteria with stated time budgets.

Each test prints one `[criterion N] PASS/FAIL (elapsed / budget)` line on the
real terminal (bypassing capture) and enforces its budget. Criterion 8 is
split: 8a checks nonvanishing and the socle; 8b checks signs. The socle
coefficient gamma pairs (5x+2v)^E with a power of v, the exceptional class,
which is not nef, so its sign is not fixed: it is negative for coefficient
degrees c in {0, 1}. 8b asserts positivity of the pairing with the nef, big
class u = x + v instead, and pins gamma and its sign pattern — see the README.
"""

import json
import time
from fractions import Fraction

from toricount.chow import (
    ChowRingSpec,
    fundamental_class,
    hyperplane_class,
    normal_form,
    socle_dimension,
    tsen_certificate,
)
from toricount.cli import EXIT_PASS, main
from toricount.count import (
    check_ax,
    check_cw,
    check_esnault,
    toric_count_orbits,
    toric_count_quotient,
)
from toricount.fan import builtin, primitive_collections, unimodular_column_equivalent
from toricount.ff import make_field, power_sum
from toricount.poly import MultiPoly, parse, random_homogeneous, standard_grading
from toricount.quintic import pullback_identity_check, random_batch, random_instance
from toricount.rng import SplitMix64

from oracles import blowup_fiber_count, class_u, groebner_gamma


def _report(capsys, label, ok, elapsed, budget):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 1 — power sums over every supported field
# ---------------------------------------------------------------------------

def test_criterion_1_power_sum(capsys):
    budget = 1.0
    t0 = time.monotonic()
    ok = True
    for q, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4), (5, 2)]:
        spec = make_field(q, f)
        minus_one = -spec.one()
        for alpha in range(3 * (spec.q - 1) + 1):
            expected = minus_one if alpha > 0 and alpha % (spec.q - 1) == 0 else spec.zero()
            if power_sum(spec, alpha) != expected:
                ok = False
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 1: power sums", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 2 — mod-p congruence for three graded families
# ---------------------------------------------------------------------------

def test_criterion_2_mod_p_congruence(capsys):
    budget = 30.0
    t0 = time.monotonic()
    ok = True
    per_family = 50

    # (i) standard grading, degree d <= n
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1)]):
        spec = make_field(p, f)
        G = standard_grading(4)
        rng = SplitMix64(100 + qi)
        for k in range(per_family):
            P = random_homogeneous(G, (3,), spec, SplitMix64(rng.next_tagged(k)))
            ok = ok and check_cw(P, G, spec).passed

    # (ii) blowup grading, bidegree (5, 2) — strict transforms
    blowup = builtin("blowup_p4_line")
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1)]):
        spec = make_field(p, f)
        from toricount.quintic import strict_transform

        for inst in random_batch(spec, 200 + qi, per_family):
            ok = ok and check_cw(strict_transform(inst), blowup.grading, spec).passed

    # (iii) weighted P(1,1,1,1,1,2) with the double-cover shape y^2 - P(x)
    wsp = builtin("weighted(1,1,1,1,1,2)")
    y_sq = parse("x5^2", 6, make_field(2))
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1)]):
        spec = make_field(p, f)
        G5 = standard_grading(5)
        rng = SplitMix64(300 + qi)
        for k in range(per_family):
            quintic_part = random_homogeneous(G5, (5,), spec, SplitMix64(rng.next_tagged(k)))
            lift = MultiPoly.from_dict(
                6, spec, {e + (0,): c for e, c in quintic_part.terms}
            )
            P = MultiPoly.monomial(6, spec, (0, 0, 0, 0, 0, 2), spec.one()) - lift
            ok = ok and check_cw(P, wsp.grading, spec).passed

    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 2: N = 0 mod p, three families", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criteria 3 + 4 — q^mu divisibility and the mod-q point count, bundled
# ---------------------------------------------------------------------------

def test_criterion_3_4_ax_and_esnault(capsys):
    budget = 120.0
    t0 = time.monotonic()
    ok = True
    per_field = 100
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]):
        spec = make_field(p, f)
        q = spec.q
        for inst in random_batch(spec, 4000 + qi, per_field):
            rep = check_esnault(inst)
            # criterion 3: mu = 1 on the blowup grading and q^mu | N_affine
            ok = ok and rep.mu == 1 and rep.ax_pass
            # criterion 4: intermediate identities and the final congruence
            ok = ok and rep.n_exceptional == 2 * q**3 - 1
            ok = ok and (rep.n_affine - rep.n_exceptional) % (q - 1) ** 2 == 0
            ok = ok and rep.passed and rep.residue == 1
    elapsed = time.monotonic() - t0
    _report(capsys, "criteria 3+4: q^mu | N and #X = 1 mod q (500 instances)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_4b_esnault_beyond_the_grid(capsys):
    # fields the grid F_q^6 puts out of reach (from q = 32 it exceeds the default work
    # cap); the planner counts the strict transform on boxes of F_q^4 and below
    budget = 30.0
    t0 = time.monotonic()
    ok = True
    for p, f in [(13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6), (101, 1)]:
        spec = make_field(p, f)
        q = spec.q
        for seed in range(5):
            inst = random_instance(spec, 4400 + seed)
            rep = check_esnault(inst)
            ok = ok and rep.passed and rep.n_toric % q == 1
            ok = ok and rep.ax_pass and rep.n_affine % q ** rep.mu == 0
            ok = ok and rep.n_exceptional == 2 * q**3 - 1
            ok = ok and rep.n_affine == blowup_fiber_count(inst)
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 4b: #X = 1 mod q for q in 13..101 (35 instances)", ok, elapsed,
            budget)
    assert ok
    assert elapsed < budget


def test_criterion_3_standard_and_weighted_families(capsys):
    # the other two families of criterion 3's "same families" clause
    budget = 120.0
    t0 = time.monotonic()
    ok = True
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]):
        spec = make_field(p, f)
        G = standard_grading(4)
        rng = SplitMix64(500 + qi)
        for k in range(20):
            P = random_homogeneous(G, (2,), spec, SplitMix64(rng.next_tagged(k)))
            rep = check_ax(P, G, spec)
            ok = ok and rep.passed and rep.mu == 1  # ceil((4-2)/2)
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 3b: standard-grading divisibility", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 5 — quotient formula vs direct orbit enumeration
# ---------------------------------------------------------------------------

def test_criterion_5_quotient_equals_orbits(capsys):
    budget = 60.0
    t0 = time.monotonic()
    ok = True
    fan_degrees = {
        "projective(2)": (2,),
        "projective(3)": (2,),
        "projective(4)": (2,),
        "blowup_p2": (2, 1),
        "blowup_p4_line": (5, 2),
    }
    fields = [make_field(2), make_field(3), make_field(2, 2)]
    fields += [make_field(5), make_field(7), make_field(2, 3), make_field(3, 2)]
    for name, d in fan_degrees.items():
        sp = builtin(name)
        assert sp.fan is not None
        for fi, spec in enumerate(fields):
            rng = SplitMix64(700 + fi)
            for k in range(20):
                P = random_homogeneous(sp.grading, d, spec, SplitMix64(rng.next_tagged(k)))
                if toric_count_quotient(P, sp, spec) != toric_count_orbits(P, sp, spec):
                    ok = False
    # plus the full toric variety: P = 0 on the blowup gives (q^2+q+1)^2 points
    blowup = builtin("blowup_p4_line")
    for spec in fields:
        q = spec.q
        zero = MultiPoly.zero(6, spec)
        expected = (q * q + q + 1) ** 2
        ok = ok and toric_count_quotient(zero, blowup, spec) == expected
        ok = ok and toric_count_orbits(zero, blowup, spec) == expected
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 5: quotient = orbits on builtin fans", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 6 — structural fidelity of the builtin fans
# ---------------------------------------------------------------------------

def test_criterion_6_structural_fidelity(capsys):
    budget = 5.0
    t0 = time.monotonic()
    ok = True

    # projective(d): one primitive collection (all rays), all weights (1)
    for d in (1, 2, 3, 4):
        sp = builtin(f"projective({d})")
        ok = ok and primitive_collections(sp.fan) == (tuple(range(d + 1)),)
        ok = ok and sp.grading.weights == ((1,),) * (d + 1)

    # blowup of P^2: primitive sets {n1,n2} and {n0,n3}; the reference degrees
    # are deg x = deg y = (1,0), deg z = (1,1), deg v = (0,1) with the
    # variables attached to rays as x<->n1, y<->n2, z<->n0, v<->n3, so in ray
    # order n0..n3 the rows are (1,1),(1,0),(1,0),(0,1)
    sp2 = builtin("blowup_p2")
    ok = ok and set(primitive_collections(sp2.fan)) == {(1, 2), (0, 3)}
    ok = ok and unimodular_column_equivalent(
        sp2.grading.weights, ((1, 1), (1, 0), (1, 0), (0, 1))
    )

    # blowup of P^4 along a line: primitive sets {n1,n2,n3} and {n0,n4,n5};
    # reference degrees X1..X3 = (1,0), X0 = X4 = (1,1), X5 = (0,1)
    sp4 = builtin("blowup_p4_line")
    ok = ok and set(primitive_collections(sp4.fan)) == {(1, 2, 3), (0, 4, 5)}
    ok = ok and unimodular_column_equivalent(
        sp4.grading.weights,
        ((1, 1), (1, 0), (1, 0), (1, 0), (1, 1), (0, 1)),
    )

    # weighted P(1,1,1,1,1,2): grading-first construction
    wsp = builtin("weighted(1,1,1,1,1,2)")
    ok = ok and wsp.grading.weights == ((1,), (1,), (1,), (1,), (1,), (2,))
    ok = ok and wsp.strata == ((0, 1, 2, 3, 4, 5),)

    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 6: structural fidelity", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 7 — symbolic pullback identity
# ---------------------------------------------------------------------------

def test_criterion_7_pullback_identity(capsys):
    budget = 10.0
    t0 = time.monotonic()
    ok = True
    for qi, (p, f) in enumerate([(2, 1), (3, 1), (5, 1)]):
        spec = make_field(p, f)
        for inst in random_batch(spec, 7000 + qi, 100):
            ok = ok and pullback_identity_check(inst)
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 7: pullback identity (300 instances)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 8 — existence certificates (split: see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_8_certificate_nonvanishing(capsys):
    budget = 30.0
    t0 = time.monotonic()
    ok = True
    for s in range(5):
        for c in range(4):
            cert = tsen_certificate(s, c)
            E = 5 * s + c + 1
            if E <= 6 * s + 4:
                ok = ok and cert.nonzero and cert.within_socle
            else:
                ok = ok and not cert.nonzero
    # on this grid E <= 6s+4 always holds (c <= 3 <= s+3); exercise the
    # vanishing branch just past it
    beyond = tsen_certificate(0, 4)  # E = 5 > top degree 4
    ok = ok and not beyond.nonzero
    for s in range(4):
        ok = ok and socle_dimension(ChowRingSpec(s)) == 1
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 8a: certificate nonvanishing + socle", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def _socle_ratio(target, spec):
    """The rational r with target = r * fundamental_class in the top degree of A_s.

    Read off the normal forms of both sides, so it goes through the public
    reduction and not through the solve inside ``tsen_certificate``.
    """
    nf_target = normal_form(target, spec).as_dict()
    nf_fund = normal_form(fundamental_class(spec), spec).as_dict()
    assert set(nf_target) <= set(nf_fund), "target is not a multiple of the socle"
    ratios = {Fraction(nf_target.get(m, 0)) / Fraction(coeff) for m, coeff in nf_fund.items()}
    assert len(ratios) == 1, f"normal forms are not proportional: {ratios}"
    return ratios.pop()


def test_criterion_8_gamma_positivity(capsys):
    # gamma pairs (5x+2v)^E with a power of v, the exceptional class. v is not
    # nef, so nothing fixes the sign of gamma: it is negative exactly when
    # c <= 1 (README, "The sign of γ"). The sign the geometry does fix is
    # the pairing with u = x + v: 5x+2v = 3x+2u is ample, x and u are nef and
    # u is big, so (5x+2v)^E * u^(6s+4-E) is a positive multiple of the point
    # class x^(3s+2) u^(2s+2) v^s. This test asserts that positivity and pins
    # the reported gamma against the Groebner oracle and its sign pattern.
    budget = 30.0
    t0 = time.monotonic()
    failures = []
    H = hyperplane_class(5, 2)
    for s in range(5):
        spec = ChowRingSpec(s)
        for c in range(4):
            E = 5 * s + c + 1
            k = spec.top_degree - E  # >= 0 on this grid (c <= 3 <= s + 3)
            pairing = _socle_ratio(H**E * class_u() ** k, spec)
            if not pairing > 0:
                failures.append(((s, c), f"u-pairing {pairing} <= 0"))
            cert = tsen_certificate(s, c)
            # a nonzero pairing is a second witness that (5x+2v)^E != 0 (8a)
            if pairing != 0 and not cert.nonzero:
                failures.append(((s, c), "u-pairing nonzero but cert.nonzero is False"))
            gamma = cert.gamma
            if gamma is None or not cert.within_socle:
                failures.append(((s, c), "no socle coefficient reported"))
                continue
            if gamma != groebner_gamma(s, c):
                failures.append(((s, c), f"gamma {gamma} != Groebner oracle"))
            if gamma == 0 or type(gamma) is not int:
                failures.append(((s, c), f"gamma {gamma} not a nonzero integer"))
            if cert.gamma_positive is not (gamma > 0):
                failures.append(((s, c), f"gamma_positive disagrees with gamma {gamma}"))
            if (gamma < 0) is not (c <= 1):
                failures.append(((s, c), f"gamma {gamma} breaks the sign pattern"))
    # by hand in A_0 = Q[x,v]/(x^3, (x+v)^2 v): the point class is
    # x^2 (x+v)^2 = x^2 v^2; x*(x+v)^2 v = 0 gives x v^3 = -2 pt, and
    # v*(x+v)^2 v = 0 gives v^4 = -x^2 v^2 - 2 x v^3 = 3 pt; so
    # gamma(0,0) = (5x+2v) v^3 = 5(-2) + 2(3) = -4
    hand = tsen_certificate(0, 0).gamma
    if hand != -4:
        failures.append(((0, 0), f"gamma {hand} != -4 (hand value)"))
    elapsed = time.monotonic() - t0
    ok = not failures
    _report(capsys, "criterion 8b: gamma positivity", ok, elapsed, budget)
    if failures:
        with capsys.disabled():
            sample = ", ".join(f"(s={s},c={c}): {why}" for (s, c), why in failures[:4])
            print(f"  {len(failures)} failed checks: {sample}, ...")
    assert elapsed < budget
    assert ok, f"failed checks: {failures}"


# ---------------------------------------------------------------------------
# criterion 9 — byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(capsys, tmp_path):
    budget = 60.0
    t0 = time.monotonic()
    ok = True
    commands = [
        ["verify", "esnault", "--field", "GF(3)", "--batch", "10", "--seed", "42"],
        ["verify", "ax", "--field", "GF(4)", "--batch", "5", "--seed", "7"],
        ["verify", "cw", "--field", "GF(2)", "--fan", "projective(3)",
         "--batch", "5", "--seed", "1", "--degree", "2"],
        ["chow", "certify", "--s", "2", "--c", "1", "--E", "10"],
        ["count", "--field", "GF(5)", "--fan", "projective(2)", "--poly", "x0"],
        ["quintic", "random", "--field", "GF(3)", "--seed", "5"],
    ]
    for i, args in enumerate(commands):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        code_a = main(args + ["--format", "json", "--out", str(a)])
        code_b = main(args + ["--format", "json", "--out", str(b)])
        ok = ok and code_a == code_b == EXIT_PASS
        ok = ok and a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())  # must be valid JSON
        # what the counts evaluated is opt-in; --stats adds it and nothing else
        reports = payload.get("reports", [payload])
        ok = ok and all("stats" not in rep for rep in reports)
        if args[0] in ("verify", "count"):
            c = tmp_path / f"{i}c.json"
            ok = ok and main(args + ["--stats", "--format", "json", "--out", str(c)]) == EXIT_PASS
            with_stats = json.loads(c.read_text())
            for rep in with_stats.get("reports", [with_stats]):
                ok = ok and set(rep.pop("stats")) == {"rules", "points", "point_terms"}
            ok = ok and with_stats == payload
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    _report(capsys, "criterion 9: byte-identical JSON reruns", ok, elapsed, budget)
    assert ok
    assert elapsed < budget
