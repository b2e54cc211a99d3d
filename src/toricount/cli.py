"""Command-line interface: fans, counts, congruence batches, certificates.

Subcommands
-----------
* ``field-info``            — canonical modulus and parameters of GF(q)
* ``fan list|info|check``   — builtin spaces and fan-file validation
* ``count``                 — affine / exceptional / quotient counts + residues
* ``verify cw|ax|esnault``  — congruence checks, single input or seeded batch
* ``quintic random|show``   — instance generation and pretty-printing
* ``chow certify|sweep``    — existence certificates and socle data

Output is a human table by default; ``--format json`` is the machine
interface and is byte-identical across reruns for the same arguments
(timings only appear under ``--timing``). Exit codes: 0 all checks pass,
1 at least one congruence/certificate failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import chow, count, quintic
from .errors import InvalidParams, PolyParseError, ToricountError
from .fan import (
    BUILTIN_TEMPLATES,
    Space,
    builtin,
    parse_fan_text,
    space_from_fan,
)
from .ff import FieldSpec, parse_field_name
from .poly import (
    ax_exponent,
    degree_bounds,
    multidegree,
    parse,
    print_poly,
    random_homogeneous,
)
from .rng import SplitMix64

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    """One resolved invocation; exactly one polynomial source may be set."""

    command: str
    subcommand: str | None = None
    field: FieldSpec | None = None
    fan_name: str | None = None
    poly_text: str | None = None
    instance_path: str | None = None
    seed: int | None = None
    batch: int | None = None
    degree: tuple[int, ...] | None = None
    policy: str = "any"
    s: int | None = None
    c: int | None = None
    E: int | None = None
    s_max: int | None = None
    trials: int = 8
    work_cap: int | None = None
    out_format: str = "table"
    out_path: str | None = None
    timing: bool = False


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(cfg: RunConfig, payload: dict, table: str, csv_data=None) -> None:
    if cfg.out_format == "json":
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    elif cfg.out_format == "csv":
        if csv_data is None:
            raise ToricountError("csv output is not available for this command")
        header, rows = csv_data
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, table.rstrip("\n") + "\n")


def _kv_table(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


# --------------------------------------------------------------------------
# shared argument resolution
# --------------------------------------------------------------------------

def _resolve_space(cfg: RunConfig) -> Space:
    name = cfg.fan_name
    if name is None:
        raise ToricountError("a fan is required: --fan <builtin-or-file>")
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return space_from_fan(parse_fan_text(fh.read()), name=name)
    return builtin(name)


def _require_field(cfg: RunConfig) -> FieldSpec:
    if cfg.field is None:
        raise ToricountError("a field is required: --field GF(q)")
    return cfg.field


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ToricountError("--seed is required whenever randomness is used")
    return cfg.seed


def _load_instance(cfg: RunConfig) -> quintic.QuinticInstance:
    with open(cfg.instance_path, encoding="utf-8") as fh:
        inst = quintic.QuinticInstance.from_json(fh.read())
    if cfg.field is not None and inst.field != cfg.field:
        raise ToricountError(
            f"instance is over {inst.field.name} but --field {cfg.field.name} was given"
        )
    return inst


def _report_payload(cfg: RunConfig, rep: count.CongruenceReport) -> dict:
    return rep.to_dict(include_timing=cfg.timing)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_field_info(cfg: RunConfig) -> int:
    spec = _require_field(cfg)
    payload = {
        "name": spec.name,
        "p": spec.p,
        "f": spec.f,
        "q": spec.q,
        "modulus": list(spec.modulus),
        "modulus_str": spec.modulus_str,
    }
    table = _kv_table(list(payload.items()))
    _render(cfg, payload, table)
    return EXIT_PASS


def cmd_fan(cfg: RunConfig) -> int:
    if cfg.subcommand == "list":
        payload = {"builtins": list(BUILTIN_TEMPLATES)}
        _render(cfg, payload, "\n".join(BUILTIN_TEMPLATES))
        return EXIT_PASS
    space = _resolve_space(cfg)
    G = space.grading
    payload = {
        "name": space.name,
        "rho": G.rho,
        "rank": G.r,
        "weights": [list(row) for row in G.weights],
        "torsion": list(G.torsion),
        "exceptional_strata": [sorted(s) for s in space.exceptional.strata],
    }
    if space.fan is not None:
        payload["dim"] = space.fan.dim
        payload["rays"] = [list(r) for r in space.fan.rays]
        payload["max_cones"] = [sorted(c) for c in space.fan.max_cones]
    pairs = [(k, json.dumps(v) if isinstance(v, list) else str(v)) for k, v in payload.items()]
    table = _kv_table(pairs)
    if cfg.subcommand == "check":
        payload["valid"] = True
        table += "\nvalid  true"
    _render(cfg, payload, table)
    return EXIT_PASS


def cmd_count(cfg: RunConfig) -> int:
    spec = _require_field(cfg)
    if (cfg.poly_text is None) == (cfg.instance_path is None):
        raise ToricountError("exactly one of --poly or --instance is required")
    if cfg.instance_path is not None:
        inst = _load_instance(cfg)
        if cfg.fan_name is None:
            cfg.fan_name = "blowup_p4_line"
        space = _resolve_space(cfg)
        P = quintic.strict_transform(inst)
    else:
        space = _resolve_space(cfg)
        P = parse(cfg.poly_text, space.grading.rho, spec)
    G = space.grading
    if P.nvars != G.rho:
        raise ToricountError(f"polynomial has {P.nvars} variables, fan has {G.rho} rays")
    n_aff, n_exc, n_tor = count._toric_counts(P, space, spec, cfg.work_cap)
    mu = ax_exponent(G, degree_bounds(P, G))
    payload = {
        "field": spec.name,
        "fan": space.name,
        "poly": print_poly(P),
        "multidegree": list(multidegree(P, G)),
        "n_affine": n_aff,
        "n_exceptional": n_exc,
        "n_toric": n_tor,
        "mu": mu,
        "residues": {
            "mod_p": {"modulus": spec.p, "residue": n_aff % spec.p},
            "mod_q": {"modulus": spec.q, "residue": n_aff % spec.q},
            "mod_q_mu": {"modulus": spec.q ** mu, "residue": n_aff % spec.q ** mu},
            "toric_mod_q": {"modulus": spec.q, "residue": n_tor % spec.q},
        },
    }
    pairs = [
        ("field", spec.name),
        ("fan", space.name),
        ("poly", print_poly(P)),
        ("multidegree", str(list(multidegree(P, G)))),
        ("N_affine", str(n_aff)),
        ("N_exceptional", str(n_exc)),
        ("N_toric", str(n_tor)),
        ("mu", str(mu)),
        ("N_affine mod p", f"{n_aff % spec.p} (mod {spec.p})"),
        ("N_affine mod q^mu", f"{n_aff % spec.q ** mu} (mod {spec.q ** mu})"),
        ("N_toric mod q", f"{n_tor % spec.q} (mod {spec.q})"),
    ]
    _render(cfg, payload, _kv_table(pairs))
    return EXIT_PASS


def _verify_reports(cfg: RunConfig) -> tuple[list[count.CongruenceReport], list[dict]]:
    """Reports plus the serialized inputs (for failure round-trips)."""
    spec = _require_field(cfg)
    kind = cfg.subcommand
    reports: list[count.CongruenceReport] = []
    sources: list[dict] = []

    if kind == "esnault":
        if cfg.instance_path is not None:
            instances = [_load_instance(cfg)]
        else:
            if not cfg.batch:
                raise ToricountError("esnault needs --instance or --batch N --seed S")
            instances = quintic.random_batch(spec, _require_seed(cfg), cfg.batch, cfg.policy)
        for inst in instances:
            reports.append(count.check_esnault(inst, work_cap=cfg.work_cap))
            sources.append(inst.to_dict())
        return reports, sources

    check = count.check_cw if kind == "cw" else count.check_ax
    if cfg.poly_text is not None:
        space = _resolve_space(cfg)
        P = parse(cfg.poly_text, space.grading.rho, spec)
        reports.append(check(P, space.grading, spec, work_cap=cfg.work_cap))
        sources.append({"poly": print_poly(P), "fan": space.name, "field": spec.name})
        return reports, sources

    if not cfg.batch:
        raise ToricountError(f"{kind} needs --poly or --batch N --seed S")
    if cfg.fan_name is None:
        cfg.fan_name = "blowup_p4_line"
    space = _resolve_space(cfg)
    seed = _require_seed(cfg)
    if space.name == "blowup_p4_line" and cfg.degree is None:
        for inst in quintic.random_batch(spec, seed, cfg.batch, cfg.policy):
            P = quintic.strict_transform(inst)
            reports.append(check(P, space.grading, spec, work_cap=cfg.work_cap))
            sources.append(inst.to_dict())
        return reports, sources
    if cfg.degree is None:
        raise ToricountError("--degree d1,...,dr is required for random batches on this fan")
    rng = SplitMix64(seed)
    for k in range(cfg.batch):
        P = random_homogeneous(space.grading, cfg.degree, spec, SplitMix64(rng.next_tagged(k)))
        reports.append(check(P, space.grading, spec, work_cap=cfg.work_cap))
        sources.append({"poly": print_poly(P), "fan": space.name, "field": spec.name})
    return reports, sources


def cmd_verify(cfg: RunConfig) -> int:
    reports, sources = _verify_reports(cfg)
    failures = [
        {"report": _report_payload(cfg, rep), "input": src}
        for rep, src in zip(reports, sources)
        if not rep.passed
    ]
    payload = {
        "check": cfg.subcommand,
        "field": cfg.field.name if cfg.field else None,
        "batch": len(reports),
        "seed": cfg.seed,
        "passed": len(reports) - len(failures),
        "failed": len(failures),
        "all_pass": not failures,
        "failures": failures,
        "reports": [_report_payload(cfg, rep) for rep in reports],
    }
    lines = [
        f"check     {cfg.subcommand}",
        f"field     {payload['field']}",
        f"total     {len(reports)}",
        f"passed    {payload['passed']}",
        f"failed    {payload['failed']}",
    ]
    if reports and reports[0].mu is not None:
        lines.append(f"mu        {reports[0].mu}")
    table = "\n".join(lines)
    csv_rows = [rep.to_csv_row() for rep in reports]
    _render(cfg, payload, table, (list(count.CongruenceReport.CSV_FIELDS), csv_rows))
    return EXIT_PASS if not failures else EXIT_VIOLATION


def cmd_quintic(cfg: RunConfig) -> int:
    if cfg.subcommand == "random":
        spec = _require_field(cfg)
        inst = quintic.random_instance(spec, _require_seed(cfg), cfg.policy)
        payload = inst.to_dict()
        _render(cfg, payload, inst.describe())
        return EXIT_PASS
    # show
    if cfg.instance_path is not None:
        inst = _load_instance(cfg)
    else:
        spec = _require_field(cfg)
        inst = quintic.random_instance(spec, _require_seed(cfg), cfg.policy)
    ambient = quintic.ambient_quintic(inst)
    strict = quintic.strict_transform(inst)
    blowup = count.blowup_p4_space()
    payload = {
        "instance": inst.to_dict(),
        "ambient": print_poly(ambient),
        "strict_transform": print_poly(strict),
        "bidegree": list(multidegree(strict, blowup.grading)),
        "pullback_identity": quintic.pullback_identity_check(inst, trials=cfg.trials, seed=0),
    }
    table = "\n".join(
        [
            inst.describe(),
            f"ambient quintic   = {payload['ambient']}",
            f"strict transform  = {payload['strict_transform']}",
            f"bidegree          = {payload['bidegree']}",
            f"pullback identity = {payload['pullback_identity']}",
        ]
    )
    _render(cfg, payload, table)
    return EXIT_PASS


def cmd_chow(cfg: RunConfig) -> int:
    if cfg.subcommand == "sweep":
        if cfg.c is None or cfg.s_max is None:
            raise ToricountError("sweep needs --c and --s-max")
        if cfg.s_max < 0:
            raise InvalidParams(f"s_max must be >= 0, got {cfg.s_max}")
        certs = [chow.tsen_certificate(s, cfg.c) for s in range(cfg.s_max + 1)]
        min_s = next((cert.s for cert in certs if cert.nonzero), None)
        payload = {
            "c": cfg.c,
            "s_max": cfg.s_max,
            "min_s": min_s,
            "certificates": [cert.to_dict() for cert in certs],
        }
        lines = [f"c      {cfg.c}", f"s_max  {cfg.s_max}", f"min_s  {min_s}"]
        for cert in certs:
            lines.append(
                f"  s={cert.s}: E={cert.E} nonzero={cert.nonzero} gamma={cert.gamma}"
            )
        _render(cfg, payload, "\n".join(lines))
        return EXIT_PASS
    if cfg.s is None or cfg.c is None:
        raise ToricountError("certify needs --s and --c")
    certs = [chow.tsen_certificate(cfg.s, cfg.c)]
    if cfg.E is not None:
        certs.append(chow.tsen_certificate(cfg.s, cfg.c, cfg.E))
    H = chow.hyperplane_class(5, 2)
    payload = {
        "class_xv": chow.display_xv(H),
        "class_xu": chow.display_xu(H),
        "certificates": [cert.to_dict() for cert in certs],
    }
    lines = [f"class  {payload['class_xv']}  (= {payload['class_xu']})"]
    for cert in certs:
        lines.append(
            f"  s={cert.s} c={cert.c} E={cert.E}{'' if cert.default_E else ' (override)'}: "
            f"nonzero={cert.nonzero} gamma={cert.gamma} socle_dim={cert.socle_dim}"
        )
    _render(cfg, payload, "\n".join(lines))
    violated = any(cert.default_E and cert.within_socle and not cert.nonzero for cert in certs)
    return EXIT_VIOLATION if violated else EXIT_PASS


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--timing", action="store_true", help="include wall-clock fields in output")
    p.add_argument("--work-cap", type=int, default=None, help="evaluation budget override")


def _degree_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree vector {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricount",
        description="Exact point counts, congruence checks, and existence certificates "
        "for multigraded hypersurfaces in toric varieties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="canonical parameters of GF(q)")
    p.add_argument("--field", required=True)
    _add_common(p)

    p = sub.add_parser("fan", help="builtin spaces and fan files")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    for name, need_fan in (("list", False), ("info", True), ("check", True)):
        fp = fsub.add_parser(name)
        if need_fan:
            fp.add_argument("--fan", required=True, help="builtin name or fan file")
        _add_common(fp)

    p = sub.add_parser("count", help="affine/exceptional/toric counts and residues")
    p.add_argument("--field", required=True)
    p.add_argument("--fan", default=None)
    p.add_argument("--poly", default=None, help="polynomial in x0..x{rho-1}")
    p.add_argument("--instance", default=None, help="instance JSON file (strict transform)")
    _add_common(p)

    p = sub.add_parser("verify", help="congruence checks over single inputs or batches")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("cw", "ax", "esnault"):
        vp = vsub.add_parser(name)
        vp.add_argument("--field", required=True)
        vp.add_argument("--fan", default=None)
        vp.add_argument("--poly", default=None)
        vp.add_argument("--instance", default=None)
        vp.add_argument("--batch", type=int, default=None)
        vp.add_argument("--seed", type=int, default=None)
        vp.add_argument("--degree", type=_degree_tuple, default=None,
                        help="multidegree d1,...,dr for random batches on general fans")
        vp.add_argument("--policy", choices=quintic.NONZERO_POLICIES, default="any")
        _add_common(vp)

    p = sub.add_parser("quintic", help="instance generation and inspection")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    qp = qsub.add_parser("random")
    qp.add_argument("--field", required=True)
    qp.add_argument("--seed", type=int, required=True)
    qp.add_argument("--policy", choices=quintic.NONZERO_POLICIES, default="any")
    _add_common(qp)
    qp = qsub.add_parser("show")
    qp.add_argument("--instance", default=None)
    qp.add_argument("--field", default=None)
    qp.add_argument("--seed", type=int, default=None)
    qp.add_argument("--policy", choices=quintic.NONZERO_POLICIES, default="any")
    qp.add_argument("--trials", type=int, default=8)
    _add_common(qp)

    p = sub.add_parser("chow", help="existence certificates in the coefficient Chow ring")
    csub = p.add_subparsers(dest="subcommand", required=True)
    cp = csub.add_parser("certify")
    cp.add_argument("--s", type=int, required=True)
    cp.add_argument("--c", type=int, required=True)
    cp.add_argument("--E", type=int, default=None, help="exponent override; reports both readings")
    _add_common(cp)
    cp = csub.add_parser("sweep")
    cp.add_argument("--c", type=int, required=True)
    cp.add_argument("--s-max", type=int, required=True, dest="s_max")
    _add_common(cp)

    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    field = None
    if getattr(args, "field", None):
        field = parse_field_name(args.field)
    return RunConfig(
        command=args.command,
        subcommand=getattr(args, "subcommand", None),
        field=field,
        fan_name=getattr(args, "fan", None),
        poly_text=getattr(args, "poly", None),
        instance_path=getattr(args, "instance", None),
        seed=getattr(args, "seed", None),
        batch=getattr(args, "batch", None),
        degree=getattr(args, "degree", None),
        policy=getattr(args, "policy", "any"),
        s=getattr(args, "s", None),
        c=getattr(args, "c", None),
        E=getattr(args, "E", None),
        s_max=getattr(args, "s_max", None),
        trials=getattr(args, "trials", 8),
        work_cap=getattr(args, "work_cap", None),
        out_format=args.format,
        out_path=args.out,
        timing=args.timing,
    )


_HANDLERS = {
    "field-info": cmd_field_info,
    "fan": cmd_fan,
    "count": cmd_count,
    "verify": cmd_verify,
    "quintic": cmd_quintic,
    "chow": cmd_chow,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](cfg)
    except PolyParseError as exc:
        print(f"polynomial error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ToricountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
