import json
import subprocess
import sys
import time

import pytest

from toricount import chow as chow_mod, count as count_mod
from toricount.chow import MAX_SWEEP_COST
from toricount.cli import EXIT_INPUT, EXIT_PASS, EXIT_VIOLATION, main
from toricount.count import CongruenceReport
from toricount.quintic import QuinticInstance, random_instance
from toricount.ff import make_field

F3 = make_field(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# field-info
# ---------------------------------------------------------------------------

def test_field_info_table(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "GF(4)")
    assert code == EXIT_PASS
    assert "GF(2^2)" in out and "modulus" in out


def test_field_info_json(capsys):
    code, payload, _ = run_json(capsys, "field-info", "--field", "GF(9)")
    assert code == EXIT_PASS
    assert payload["p"] == 3 and payload["f"] == 2 and payload["q"] == 9
    assert payload["modulus"] == [1, 0, 1]  # t^2 + 1


def test_field_info_bad_name(capsys):
    code, _, err = run(capsys, "field-info", "--field", "GF(6)")
    assert code == EXIT_INPUT and "error" in err


def test_field_info_huge_cardinality_fails_fast(capsys):
    # the cardinality was once factored by trial division up to n
    for name in ("GF(1000000000039)", "GF(3^100000000)"):
        t0 = time.monotonic()
        code, _, err = run(capsys, "field-info", "--field", name)
        assert time.monotonic() - t0 < 1.0, name
        assert code == EXIT_INPUT and "cardinality cap" in err


def test_csv_not_available_for_field_info(capsys):
    # only verify offers csv, so argparse refuses it on every other leaf command
    for argv in (["field-info", "--field", "GF(2)"], ["chow", "sweep", "--c", "0", "--s-max", "1"]):
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--format", "csv"])
        assert ei.value.code == EXIT_INPUT and "csv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fan
# ---------------------------------------------------------------------------

def test_fan_list(capsys):
    code, payload, _ = run_json(capsys, "fan", "list")
    assert code == EXIT_PASS
    names = payload["builtins"]
    assert "projective(d)" in names and "blowup_p4_line" in names


def test_fan_info_builtin(capsys):
    code, payload, _ = run_json(capsys, "fan", "info", "--fan", "blowup_p4_line")
    assert code == EXIT_PASS
    assert payload["rho"] == 6 and payload["rank"] == 2
    assert payload["exceptional_strata"] == [[0, 4, 5], [1, 2, 3]]
    assert len(payload["rays"]) == 6 and len(payload["max_cones"]) == 9


def test_fan_check_file(capsys, tmp_path):
    text = "# projective line\ndim 1\nray 1\nray -1\ncone 0\ncone 1\n"
    path = tmp_path / "p1.fan"
    path.write_text(text)
    code, payload, _ = run_json(capsys, "fan", "check", "--fan", str(path))
    assert code == EXIT_PASS
    assert payload["valid"] is True and payload["rho"] == 2


def test_fan_check_invalid_file(capsys, tmp_path):
    path = tmp_path / "bad.fan"
    path.write_text("dim 2\nray 2 0\nray 0 1\ncone 0 1\n")  # non-primitive ray
    code, _, err = run(capsys, "fan", "check", "--fan", str(path))
    assert code == EXIT_INPUT and "error" in err


def test_fan_check_many_rays_fails_fast(capsys, tmp_path):
    # 16 rays in the plane: the weight search would take days, so it is capped
    path = tmp_path / "rays16.fan"
    path.write_text("dim 2\n" + "".join(f"ray 1 {k}\ncone {k}\n" for k in range(16)))
    t0 = time.monotonic()
    code, _, err = run(capsys, "fan", "check", "--fan", str(path))
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT and "weight normalization" in err


def test_fan_unknown_builtin(capsys):
    code, _, err = run(capsys, "fan", "info", "--fan", "dodecahedron")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "name",
    ["weighted(1,,2)", "weighted(1,-)", "weighted(1 2)", "projective(-)", f"weighted(1,{'7' * 5000})"],
    ids=["empty", "sign", "space", "projective-sign", "5000-digits"],
)
def test_fan_malformed_parameters(capsys, name):
    code, out, err = run(capsys, "fan", "info", "--fan", name)
    assert code == EXIT_INPUT and out == ""
    assert "error: malformed parameters in space name" in err


def test_count_overlong_number_is_a_parse_error(capsys):
    code, out, err = run(capsys, "count", "--field", "GF(7)", "--fan", "weighted(1,1)",
                         "--poly", "x0^" + "9" * 5000 + " + x1")
    assert code == EXIT_INPUT and out == ""
    assert "number has too many digits (at position 3)" in err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_projective_line_section(capsys):
    code, payload, _ = run_json(
        capsys, "count", "--field", "GF(5)", "--fan", "projective(2)", "--poly", "x0"
    )
    assert code == EXIT_PASS
    assert payload["n_toric"] == 6  # P^1 over F_5
    assert payload["n_affine"] == 25
    assert payload["residues"]["mod_p"]["residue"] == 0


def test_count_evaluates_the_grid_once(capsys, monkeypatch, tmp_path):
    inst = random_instance(F3, 4)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    planned, evaluated = [], []
    real_plan, real_masks = count_mod._plan, count_mod._zero_masks

    def plan(roots, *args):
        planned.extend(P.nvars for _, P in roots)
        return real_plan(roots, *args)

    def masks(system, spec, axes):
        evaluated.append(len(axes))
        return real_masks(system, spec, axes)

    monkeypatch.setattr(count_mod, "_plan", plan)
    monkeypatch.setattr(count_mod, "_zero_masks", masks)
    code, payload, _ = run_json(capsys, "count", "--field", "GF(3)", "--instance", str(path))
    assert code == EXIT_PASS
    # the 3^6-point grid is planned once and, below the planner's floor, evaluated once
    # whole; the strict transform restricts to 0 on the strata, which evaluate nothing
    assert planned.count(6) == 1 and evaluated == [6]
    assert payload["n_toric"] * 4 == payload["n_affine"] - payload["n_exceptional"]


def test_count_computes_the_multidegree_once(capsys, monkeypatch, tmp_path):
    from toricount import cli

    path = tmp_path / "inst.json"
    path.write_text(random_instance(F3, 4).to_json())
    calls = []

    def multidegree(P, G):
        calls.append(P.nvars)
        return real(P, G)

    real = count_mod.multidegree
    monkeypatch.setattr(count_mod, "multidegree", multidegree)
    monkeypatch.setattr(cli, "multidegree", multidegree)
    code, payload, _ = run_json(capsys, "count", "--field", "GF(3)", "--instance", str(path))
    assert code == EXIT_PASS and payload["multidegree"] == [5, 2]
    assert calls == [6]


def test_count_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "count", "--field", "GF(2)", "--fan", "projective(2)")
    assert code == EXIT_INPUT
    inst = random_instance(F3, 4)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    code, _, err = run(
        capsys, "count", "--field", "GF(3)", "--poly", "x0", "--instance", str(path)
    )
    assert code == EXIT_INPUT


def test_count_instance_defaults_to_blowup(capsys, tmp_path):
    inst = random_instance(F3, 4)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    code, payload, _ = run_json(capsys, "count", "--field", "GF(3)", "--instance", str(path))
    assert code == EXIT_PASS
    assert payload["fan"] == "blowup_p4_line"
    assert payload["multidegree"] == [5, 2]
    assert payload["n_exceptional"] == 2 * 27 - 1


def test_count_parse_error_caret(capsys):
    code, _, err = run(
        capsys, "count", "--field", "GF(2)", "--fan", "projective(2)", "--poly", "x0 ++ x1"
    )
    assert code == EXIT_INPUT
    assert "polynomial error" in err and "^" in err


def test_count_field_instance_mismatch(capsys, tmp_path):
    inst = random_instance(F3, 4)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    code, _, err = run(capsys, "count", "--field", "GF(2)", "--instance", str(path))
    assert code == EXIT_INPUT and "GF(3)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--field", "GF(3)", "--fan", "projective(2)", "--poly", "x0"],
        ["verify", "esnault", "--field", "GF(3)", "--batch", "1", "--seed", "1"],
    ],
    ids=["count", "verify"],
)
def test_work_cap_flag(capsys, argv):
    code, _, err = run(capsys, *argv, "--work-cap", "10")
    assert code == EXIT_INPUT and "exceed the work cap" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_cw_single_poly(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "cw", "--field", "GF(3)", "--fan", "projective(4)",
        "--poly", "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
    )
    assert code == EXIT_PASS
    assert payload["all_pass"] is True and payload["batch"] == 1


def test_verify_cw_hypothesis_not_met(capsys):
    code, _, err = run(
        capsys, "verify", "cw", "--field", "GF(2)", "--fan", "projective(1)",
        "--poly", "x0^5*x1^5",
    )
    assert code == EXIT_INPUT


def test_verify_esnault_batch(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "esnault", "--field", "GF(3)", "--batch", "5", "--seed", "11"
    )
    assert code == EXIT_PASS
    assert payload["batch"] == 5 and payload["failed"] == 0
    for rep in payload["reports"]:
        assert rep["pass"] is True
        assert rep["n_exceptional"] == 53


def test_verify_ax_blowup_batch(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "ax", "--field", "GF(4)", "--batch", "3", "--seed", "2"
    )
    assert code == EXIT_PASS
    assert all(rep["mu"] == 1 for rep in payload["reports"])


def test_verify_general_fan_needs_degree(capsys):
    code, _, err = run(
        capsys, "verify", "cw", "--field", "GF(3)", "--fan", "projective(4)",
        "--batch", "2", "--seed", "1",
    )
    assert code == EXIT_INPUT and "--degree" in err
    code, payload, _ = run_json(
        capsys, "verify", "cw", "--field", "GF(3)", "--fan", "projective(4)",
        "--batch", "2", "--seed", "1", "--degree", "3",
    )
    assert code == EXIT_PASS and payload["batch"] == 2
    code, payload, _ = run_json(
        capsys, "verify", "cw", "--field", "GF(3)", "--fan", "weighted(1,1,2)",
        "--batch", "3", "--seed", "1", "--degree", "2",
    )
    assert code == EXIT_PASS and payload["batch"] == 3


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "esnault", "--field", "GF(2)", "--batch", "2", "--seed", "3",
        "--format", "csv",
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0].split(",") == list(CongruenceReport.CSV_FIELDS)
    assert len(lines) == 3


def test_verify_failure_exit_code(capsys, monkeypatch):
    # congruence violations cannot be produced by valid inputs (the theorems
    # hold), so fake one report to exercise the failure path and exit code
    real = count_mod.check_esnault

    def flipped(inst, **kw):
        rep = real(inst, **kw)
        return CongruenceReport(
            kind=rep.kind, q=rep.q, p=rep.p, f=rep.f, n_affine=rep.n_affine,
            modulus=rep.modulus, residue=rep.residue, passed=False,
            n_exceptional=rep.n_exceptional, n_toric=rep.n_toric, mu=rep.mu,
            mu_classical=rep.mu_classical, ax_pass=rep.ax_pass, elapsed=rep.elapsed,
        )

    monkeypatch.setattr(count_mod, "check_esnault", flipped)
    code, payload, _ = run_json(
        capsys, "verify", "esnault", "--field", "GF(2)", "--batch", "2", "--seed", "3"
    )
    assert code == EXIT_VIOLATION
    assert payload["failed"] == 2 and payload["all_pass"] is False
    assert len(payload["failures"]) == 2
    assert "input" in payload["failures"][0]


# ---------------------------------------------------------------------------
# quintic
# ---------------------------------------------------------------------------

def test_quintic_random_then_show_round_trip(capsys, tmp_path):
    path = tmp_path / "inst.json"
    code, _, _ = run(
        capsys, "quintic", "random", "--field", "GF(3)", "--seed", "12",
        "--format", "json", "--out", str(path),
    )
    assert code == EXIT_PASS
    inst = QuinticInstance.from_json(path.read_text())
    assert inst.seed == 12 and inst.field is F3

    code, payload, _ = run_json(capsys, "quintic", "show", "--instance", str(path))
    assert code == EXIT_PASS
    assert payload["bidegree"] == [5, 2]
    assert payload["pullback_identity"] is True
    assert QuinticInstance.from_dict(payload["instance"]) == inst


def test_quintic_show_from_seed(capsys):
    code, payload, _ = run_json(
        capsys, "quintic", "show", "--field", "GF(2)", "--seed", "7"
    )
    assert code == EXIT_PASS
    assert payload["instance"]["seed"] == 7
    code, _, err = run(capsys, "quintic", "show", "--seed", "7")
    assert code == EXIT_INPUT and "a field is required" in err


def test_quintic_random_needs_seed_and_field(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["quintic", "random", "--field", "GF(3)"])
    assert ei.value.code == 2  # argparse's own usage error
    capsys.readouterr()


# a command accepts only the options it reads
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "esnault", "--field", "GF(3)", "--batch", "1", "--seed", "1", "--poly", "x0"],
        ["verify", "esnault", "--field", "GF(3)", "--batch", "1", "--seed", "1",
         "--fan", "projective(2)"],
        ["verify", "esnault", "--field", "GF(3)", "--batch", "1", "--seed", "1", "--degree", "2"],
        ["verify", "cw", "--field", "GF(3)", "--batch", "1", "--seed", "1", "--instance", "x"],
        ["count", "--field", "GF(5)", "--fan", "projective(2)", "--poly", "x0", "--timing"],
        ["chow", "sweep", "--c", "0", "--s-max", "1", "--work-cap", "10"],
        ["fan", "list", "--timing"],
    ],
    ids=["esnault-poly", "esnault-fan", "esnault-degree", "cw-instance", "count-timing",
         "sweep-work-cap", "fan-timing"],
)
def test_unread_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# an option that the command's input source never reads is a usage error too
_CW_POLY = ["--field", "GF(3)", "--fan", "projective(4)", "--poly", "x0^3 + x1^3 + x2^3"]
_UNREAD_WITH_SOURCE = {
    "cw-poly-batch": (["verify", "cw", *_CW_POLY, "--batch", "5"], "--batch", "--poly"),
    "cw-poly-seed": (["verify", "cw", *_CW_POLY, "--seed", "1"], "--seed", "--poly"),
    "ax-poly-policy": (["verify", "ax", *_CW_POLY, "--policy", "any"], "--policy", "--poly"),
    "ax-poly-degree": (["verify", "ax", *_CW_POLY, "--degree", "3"], "--degree", "--poly"),
    "cw-degree-policy": (
        ["verify", "cw", "--field", "GF(3)", "--fan", "projective(2)", "--degree", "2",
         "--batch", "1", "--seed", "1", "--policy", "p3_nonzero"],
        "--policy", "--degree",
    ),
    "ax-blowup-degree-policy": (
        ["verify", "ax", "--field", "GF(3)", "--degree", "3,1", "--batch", "1", "--seed", "1",
         "--policy", "any"],
        "--policy", "--degree",
    ),
    "esnault-instance-batch": (["verify", "esnault", "--batch", "2"], "--batch", "--instance"),
    "esnault-instance-seed": (["verify", "esnault", "--seed", "1"], "--seed", "--instance"),
    "esnault-instance-policy": (
        ["verify", "esnault", "--policy", "p3_nonzero"], "--policy", "--instance"
    ),
    "show-instance-seed": (["quintic", "show", "--seed", "1"], "--seed", "--instance"),
    "show-instance-policy": (["quintic", "show", "--policy", "any"], "--policy", "--instance"),
}


@pytest.mark.parametrize("case", list(_UNREAD_WITH_SOURCE))
def test_options_a_source_never_reads_are_usage_errors(capsys, tmp_path, case):
    argv, option, source = _UNREAD_WITH_SOURCE[case]
    if source == "--instance":
        path = tmp_path / "inst.json"
        path.write_text(random_instance(F3, 4).to_json())
        argv = argv + ["--field", "GF(3)", "--instance", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert f"error: {option} is not read with {source}" in err


# a count of checks below the least that means anything is a usage error,
# not an empty run that passes
@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "esnault", "--field", "GF(3)", "--batch", "-2", "--seed", "1"],
         "--batch must be >= 1, got -2"),
        (["verify", "cw", "--field", "GF(3)", "--fan", "projective(2)", "--degree", "2",
          "--batch", "-1", "--seed", "1"], "--batch must be >= 1, got -1"),
        (["verify", "ax", "--field", "GF(4)", "--batch", "0", "--seed", "1"],
         "--batch must be >= 1, got 0"),
    ],
    ids=["esnault", "cw", "ax"],
)
def test_counts_below_their_least_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert f"error: {message}" in err


def test_policy_defaults_to_any(capsys):
    default, given = (
        run_json(capsys, "verify", "esnault", "--field", "GF(3)", "--batch", "2", "--seed", "5",
                 *policy)[1]["reports"]
        for policy in ([], ["--policy", "any"])
    )
    assert default == given


# ---------------------------------------------------------------------------
# chow
# ---------------------------------------------------------------------------

def test_chow_certify_default(capsys):
    code, payload, _ = run_json(capsys, "chow", "certify", "--s", "1", "--c", "0")
    assert code == EXIT_PASS
    assert payload["class_xv"] == "5*x + 2*v"
    certs = payload["certificates"]
    assert len(certs) == 1 and certs[0]["default_E"] is True
    assert certs[0]["gamma"] == -2484 and certs[0]["nonzero"] is True


def test_chow_certify_with_override(capsys):
    code, payload, _ = run_json(
        capsys, "chow", "certify", "--s", "1", "--c", "0", "--E", "7"
    )
    assert code == EXIT_PASS
    certs = payload["certificates"]
    assert len(certs) == 2
    assert certs[0]["default_E"] is True and certs[0]["E"] == 6
    assert certs[1]["default_E"] is False and certs[1]["E"] == 7


def test_chow_certify_above_socle_still_passes(capsys):
    # default exponent misses the socle -> zero class, but that is the honest
    # answer for these parameters, not a violation
    code, payload, _ = run_json(capsys, "chow", "certify", "--s", "0", "--c", "5")
    assert code == EXIT_PASS
    assert payload["certificates"][0]["nonzero"] is False
    assert payload["certificates"][0]["within_socle"] is False


def test_chow_sweep(capsys):
    code, payload, _ = run_json(capsys, "chow", "sweep", "--c", "2", "--s-max", "3")
    assert code == EXIT_PASS
    assert payload["min_s"] == 0
    assert len(payload["certificates"]) == 4
    assert all(cert["nonzero"] for cert in payload["certificates"])


def test_chow_invalid_params(capsys):
    code, _, err = run(capsys, "chow", "certify", "--s", "-1", "--c", "0")
    assert code == EXIT_INPUT
    code, out, err = run(capsys, "chow", "sweep", "--c", "0", "--s-max", "-1")
    assert code == EXIT_INPUT and out == "" and "s_max" in err
    # s above chow.MAX_S is refused before any certificate is computed
    for argv in (["certify", "--s", "1000000", "--c", "0"], ["sweep", "--c", "0", "--s-max", "1000000"]):
        t0 = time.monotonic()
        code, out, err = run(capsys, "chow", *argv)
        assert time.monotonic() - t0 < 1.0, argv
        assert code == EXIT_INPUT and out == "" and "largest supported s" in err, argv


def test_sweep_cost_is_checked_before_the_first_certificate(capsys, monkeypatch):
    # each certificate that divides (5s+c+1 <= 6s+4) is charged (s+1)^3 against one cap
    t0 = time.monotonic()
    code, out, err = run(capsys, "chow", "sweep", "--c", "0", "--s-max", "200")
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT and out == ""
    assert f"error: a sweep to s_max = 200 costs 412130601, more than {MAX_SWEEP_COST}" in err
    certified = []
    real = chow_mod.tsen_certificate
    monkeypatch.setattr(chow_mod, "tsen_certificate", lambda *a: certified.append(a) or real(*a))
    # (63*64/2)^2 = 4064256 is the first sum of cubes past the cap
    for c, s_max in ((0, 62), (3, 62), (100, 120)):
        assert run(capsys, "chow", "sweep", "--c", str(c), "--s-max", str(s_max))[0] == EXIT_INPUT
    assert certified == []
    # no certificate divides below s = c - 3, so those are free
    code, payload, _ = run_json(capsys, "chow", "sweep", "--c", "1000", "--s-max", "200")
    assert code == EXIT_PASS and payload["min_s"] is None and len(certified) == 201


def test_parsed_power_past_its_cap_is_refused_before_it_expands(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "count", "--field", "GF(5)", "--fan", "projective(2)",
                         "--poly", "(x0+x1+x2)^100")
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT and out == ""
    assert "error: a power may expand to 5151 terms" in err


def test_parsed_product_past_its_cap_is_refused_before_it_expands(capsys):
    # the product of two 861-term powers once expanded for about 10 s before counting
    t0 = time.monotonic()
    code, out, err = run(capsys, "count", "--field", "GF(101)", "--fan", "projective(2)",
                         "--poly", "(x0+x1+x2)^40*(x0+x1+x2)^40")
    assert time.monotonic() - t0 < 4.0
    assert code == EXIT_INPUT and out == ""
    assert "error: a product may expand to 91881 terms" in err


def test_verify_degree_past_the_monomial_bound_is_refused_before_it_lists(capsys):
    # weighted(2,2,2,2) has no monomial of odd degree; listing the exponents of degree 401
    # to find none ran past 60 s, and projective(3) at degree 80 took 6 s to exit 2
    cases = (("weighted(2,2,2,2)", "401", ()), ("projective(3)", "80", ("--work-cap", "10")))
    for fan, degree, cap in cases:
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "ax", "--field", "GF(2)", "--fan", fan,
                             "--degree", degree, "--batch", "1", "--seed", "1", *cap)
        assert time.monotonic() - t0 < 1.0, fan
        assert code == EXIT_INPUT and out == "", fan
        assert f"multidegree ({degree},)" in err, fan


def test_exponents_past_int64_count_exactly(capsys):
    # 2^62+1 = 5 (mod 6) and 10^20-1 = 3 (mod 4): the kernel sees x^5 and x^3
    for field, e, n_affine, n_toric in (("GF(7)", 2**62 + 1, 49, 8), ("GF(5)", 10**20 - 1, 25, 6)):
        code, payload, _ = run_json(capsys, "count", "--field", field, "--fan", "weighted(1,1,1)",
                                    "--poly", f"x0^{e} + x1^{e}")
        assert code == EXIT_PASS
        assert (payload["n_affine"], payload["n_toric"]) == (n_affine, n_toric)


def test_chow_certify_large_s_and_exponent_finish(capsys):
    # s = 10 once took 90 s in a linear solve; E far above the top degree
    # once expanded (5x+2v)^E term by term
    budget = 1.0
    for args in (["--s", "10", "--c", "0"], ["--s", "0", "--c", "0", "--E", "1000000"]):
        t0 = time.monotonic()
        code, payload, _ = run_json(capsys, "chow", "certify", *args)
        assert time.monotonic() - t0 < budget, args
        assert code == EXIT_PASS
    assert payload["certificates"][1]["nonzero"] is False


# ---------------------------------------------------------------------------
# determinism and process entry points
# ---------------------------------------------------------------------------

def test_json_byte_identical_reruns(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "verify", "esnault", "--field", "GF(3)", "--batch", "4", "--seed", "9",
        "--format", "json",
    ]
    assert main(args + ["--out", str(a)]) == EXIT_PASS
    assert main(args + ["--out", str(b)]) == EXIT_PASS
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_timing_excluded_by_default(capsys):
    _, payload, _ = run_json(
        capsys, "verify", "esnault", "--field", "GF(2)", "--batch", "1", "--seed", "0"
    )
    assert "timing" not in payload["reports"][0]
    _, payload, _ = run_json(
        capsys, "verify", "esnault", "--field", "GF(2)", "--batch", "1", "--seed", "0",
        "--timing",
    )
    assert "timing" in payload["reports"][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--field", "GF(5)", "--fan", "projective(2)", "--poly", "x0^2 + x1*x2"],
        ["verify", "esnault", "--field", "GF(3)", "--batch", "2", "--seed", "9"],
        ["verify", "ax", "--field", "GF(4)", "--batch", "2", "--seed", "7"],
    ],
    ids=["count", "verify-esnault", "verify-ax"],
)
def test_stats_flag(capsys, argv):
    code, plain, _ = run_json(capsys, *argv)
    code_stats, payload, _ = run_json(capsys, *argv, "--stats")
    assert code == code_stats == EXIT_PASS
    records = [payload.pop("stats")] if "stats" in payload else [
        rep.pop("stats") for rep in payload["reports"]
    ]
    assert payload == plain  # --stats adds the records and changes nothing else
    for record in records:
        assert set(record) == {"rules", "points", "point_terms"}
        assert record["rules"] and record["point_terms"] >= record["points"] > 0
    _, table, _ = run(capsys, *argv, "--stats")
    assert "rules" in table and "point_terms" in table
    assert "rules" not in run(capsys, *argv)[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricount", "field-info", "--field", "GF(2)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and "GF(2)" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["-c", "import toricount"], ["-m", "toricount", "chow", "certify", "--s", "10", "--c", "0"]],
    ids=["import", "chow-certify"],
)
def test_cold_start_leaves_sympy_out(argv):
    # -X importtime lists every module the interpreter imports on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "toricount" in proc.stderr and "sympy" not in proc.stderr
