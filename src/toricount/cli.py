"""Command-line interface: fans, counts, congruence batches, certificates.

Subcommands
-----------
* ``field-info``            — canonical modulus and parameters of GF(q)
* ``fan list|info|check``   — builtin spaces and fan-file validation
* ``count``                 — affine / exceptional / quotient counts + residues
* ``verify cw|ax|esnault``  — congruence checks, single input or seeded batch
* ``quintic random|show``   — instance generation and pretty-printing
* ``chow certify|sweep``    — existence certificates and socle data

Every leaf command takes ``--format`` (``table`` or ``json``, and ``csv``
for ``verify``) and ``--out``; ``count`` and
``verify`` also take ``--work-cap`` and ``--stats``, and ``verify`` takes
``--timing``. Output is a human table by default; ``--format json`` is the
machine interface and is byte-identical across reruns for the same arguments
(timings only appear under ``--timing``, and what the counts evaluated
only under ``--stats``). An option given with an input that never reads it,
such as ``--batch`` with ``--poly``, is a usage error. Exit codes: 0 all
checks pass, 1 at least one congruence/certificate failed, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import chow, count, quintic
from .errors import CapExceeded, InvalidParams, PolyParseError, ToricountError
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


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args: argparse.Namespace, payload: dict, table: str) -> None:
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, table.rstrip("\n") + "\n")


def _kv_table(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _stats(args: argparse.Namespace) -> dict | None:
    """A record for one check to fill under --stats."""
    return {} if args.stats else None


def _stats_pairs(records: list[dict]) -> list[tuple[str, str]]:
    """Table rows for --stats: the rules fired and the points evaluated, summed over records."""
    rules: Counter = Counter()
    for record in records:
        rules.update(record["rules"])
    return [
        ("rules", ", ".join(f"{name}={n}" for name, n in sorted(rules.items())) or "none"),
        ("points", str(sum(record["points"] for record in records))),
        ("point_terms", str(sum(record["point_terms"] for record in records))),
    ]


# --------------------------------------------------------------------------
# shared argument resolution
# --------------------------------------------------------------------------

def _resolve_space(name: str | None) -> Space:
    if name is None:
        raise ToricountError("a fan is required: --fan <builtin-or-file>")
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return space_from_fan(parse_fan_text(fh.read()), name=name)
    return builtin(name)


def _require_field(args: argparse.Namespace) -> FieldSpec:
    if args.field is None:
        raise ToricountError("a field is required: --field GF(q)")
    return args.field


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ToricountError("--seed is required whenever randomness is used")
    return args.seed


def _require_batch(args: argparse.Namespace, need: str) -> int:
    if args.batch is None:
        raise ToricountError(need)
    if args.batch < 1:
        raise InvalidParams(f"--batch must be >= 1, got {args.batch}")
    return args.batch


def _reject_unread(args: argparse.Namespace, source: str, options: tuple[str, ...]) -> None:
    """A usage error for the first of `options` given with `source`, which never reads it."""
    for name in options:
        if getattr(args, name) is not None:
            raise ToricountError(f"--{name} is not read with {source}")


def _load_instance(args: argparse.Namespace) -> quintic.QuinticInstance:
    with open(args.instance, encoding="utf-8") as fh:
        inst = quintic.QuinticInstance.from_json(fh.read())
    if args.field is not None and inst.field != args.field:
        raise ToricountError(
            f"instance is over {inst.field.name} but --field {args.field.name} was given"
        )
    return inst


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_field_info(args: argparse.Namespace) -> int:
    spec = args.field
    payload = {
        "name": spec.name,
        "p": spec.p,
        "f": spec.f,
        "q": spec.q,
        "modulus": list(spec.modulus),
        "modulus_str": spec.modulus_str,
    }
    table = _kv_table(list(payload.items()))
    _render(args, payload, table)
    return EXIT_PASS


def cmd_fan(args: argparse.Namespace) -> int:
    if args.subcommand == "list":
        payload = {"builtins": list(BUILTIN_TEMPLATES)}
        _render(args, payload, "\n".join(BUILTIN_TEMPLATES))
        return EXIT_PASS
    space = _resolve_space(args.fan)
    G = space.grading
    payload = {
        "name": space.name,
        "rho": G.rho,
        "rank": G.r,
        "weights": [list(row) for row in G.weights],
        "exceptional_strata": [sorted(s) for s in space.strata],
    }
    if space.fan is not None:
        payload["dim"] = space.fan.dim
        payload["rays"] = [list(r) for r in space.fan.rays]
        payload["max_cones"] = [sorted(c) for c in space.fan.max_cones]
    pairs = [(k, json.dumps(v) if isinstance(v, list) else str(v)) for k, v in payload.items()]
    table = _kv_table(pairs)
    if args.subcommand == "check":
        payload["valid"] = True
        table += "\nvalid  true"
    _render(args, payload, table)
    return EXIT_PASS


def cmd_count(args: argparse.Namespace) -> int:
    spec = args.field
    if (args.poly is None) == (args.instance is None):
        raise ToricountError("exactly one of --poly or --instance is required")
    if args.instance is not None:
        inst = _load_instance(args)
        space = count.blowup_p4_space() if args.fan is None else _resolve_space(args.fan)
        P = quintic.strict_transform(inst)
    else:
        space = _resolve_space(args.fan)
        P = parse(args.poly, space.grading.rho, spec)
    G = space.grading
    if P.nvars != G.rho:
        raise ToricountError(f"polynomial has {P.nvars} variables, fan has {G.rho} rays")
    stats = _stats(args)
    n_aff, n_exc, n_tor, degree = count._toric_counts(P, space, spec, args.work_cap, stats)
    mu = ax_exponent(G, degree_bounds(P, G))  # raises on P = 0, whose degree is None
    degree = list(degree)
    text = print_poly(P)
    payload = {
        "field": spec.name,
        "fan": space.name,
        "poly": text,
        "multidegree": degree,
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
        ("poly", text),
        ("multidegree", str(degree)),
        ("N_affine", str(n_aff)),
        ("N_exceptional", str(n_exc)),
        ("N_toric", str(n_tor)),
        ("mu", str(mu)),
        ("N_affine mod p", f"{n_aff % spec.p} (mod {spec.p})"),
        ("N_affine mod q^mu", f"{n_aff % spec.q ** mu} (mod {spec.q ** mu})"),
        ("N_toric mod q", f"{n_tor % spec.q} (mod {spec.q})"),
    ]
    if stats is not None:
        payload["stats"] = stats
        pairs += _stats_pairs([stats])
    _render(args, payload, _kv_table(pairs))
    return EXIT_PASS


def _verify_reports(args: argparse.Namespace) -> tuple[list[count.CongruenceReport], list[dict]]:
    """Reports plus the serialized inputs (for failure round-trips)."""
    spec = args.field
    kind = args.subcommand
    reports: list[count.CongruenceReport] = []
    sources: list[dict] = []

    if kind == "esnault":
        if args.instance is not None:
            _reject_unread(args, "--instance", ("batch", "seed", "policy"))
            instances = [_load_instance(args)]
        else:
            batch = _require_batch(args, "esnault needs --instance or --batch N --seed S")
            instances = quintic.random_batch(
                spec, _require_seed(args), batch, args.policy or "any"
            )
        for inst in instances:
            reports.append(count.check_esnault(inst, work_cap=args.work_cap, stats=_stats(args)))
            sources.append(inst.to_dict())
        return reports, sources

    check = count.check_cw if kind == "cw" else count.check_ax
    if args.poly is not None:
        _reject_unread(args, "--poly", ("batch", "seed", "policy", "degree"))
        space = _resolve_space(args.fan)
        P = parse(args.poly, space.grading.rho, spec)
        reports.append(check(P, space.grading, spec, work_cap=args.work_cap, stats=_stats(args)))
        sources.append({"poly": print_poly(P), "fan": space.name, "field": spec.name})
        return reports, sources

    batch = _require_batch(args, f"{kind} needs --poly or --batch N --seed S")
    space = count.blowup_p4_space() if args.fan is None else _resolve_space(args.fan)
    seed = _require_seed(args)
    if space.name == "blowup_p4_line" and args.degree is None:
        for inst in quintic.random_batch(spec, seed, batch, args.policy or "any"):
            P = quintic.strict_transform(inst)
            reports.append(check(P, space.grading, spec, work_cap=args.work_cap, stats=_stats(args)))
            sources.append(inst.to_dict())
        return reports, sources
    if args.degree is None:
        raise ToricountError("--degree d1,...,dr is required for random batches on this fan")
    _reject_unread(args, "--degree", ("policy",))
    rng = SplitMix64(seed)
    for k in range(batch):
        P = random_homogeneous(space.grading, args.degree, spec, SplitMix64(rng.next_tagged(k)))
        reports.append(check(P, space.grading, spec, work_cap=args.work_cap, stats=_stats(args)))
        sources.append({"poly": print_poly(P), "fan": space.name, "field": spec.name})
    return reports, sources


def cmd_verify(args: argparse.Namespace) -> int:
    reports, sources = _verify_reports(args)
    failures = [
        {"report": rep.to_dict(include_timing=args.timing), "input": src}
        for rep, src in zip(reports, sources)
        if not rep.passed
    ]
    payload = {
        "check": args.subcommand,
        "field": args.field.name,
        "batch": len(reports),
        "seed": args.seed,
        "passed": len(reports) - len(failures),
        "failed": len(failures),
        "all_pass": not failures,
        "failures": failures,
        "reports": [rep.to_dict(include_timing=args.timing) for rep in reports],
    }
    lines = [
        f"check     {args.subcommand}",
        f"field     {payload['field']}",
        f"total     {len(reports)}",
        f"passed    {payload['passed']}",
        f"failed    {payload['failed']}",
    ]
    if reports and reports[0].mu is not None:
        lines.append(f"mu        {reports[0].mu}")
    if args.stats:
        lines += [f"{k.ljust(8)}  {v}" for k, v in _stats_pairs([rep.stats for rep in reports])]
    if args.format == "csv":
        rows = [count.CongruenceReport.CSV_FIELDS] + [rep.to_csv_row() for rep in reports]
        _emit(args, "".join(",".join(row) + "\n" for row in rows))
    else:
        _render(args, payload, "\n".join(lines))
    return EXIT_PASS if not failures else EXIT_VIOLATION


def cmd_quintic(args: argparse.Namespace) -> int:
    if args.subcommand == "random":
        inst = quintic.random_instance(args.field, args.seed, args.policy)
        payload = inst.to_dict()
        _render(args, payload, inst.describe())
        return EXIT_PASS
    # show
    if args.instance is not None:
        _reject_unread(args, "--instance", ("seed", "policy"))
        inst = _load_instance(args)
    else:
        spec = _require_field(args)
        inst = quintic.random_instance(spec, _require_seed(args), args.policy or "any")
    ambient = quintic.ambient_quintic(inst)
    strict = quintic.strict_transform(inst)
    blowup = count.blowup_p4_space()
    payload = {
        "instance": inst.to_dict(),
        "ambient": print_poly(ambient),
        "strict_transform": print_poly(strict),
        "bidegree": list(multidegree(strict, blowup.grading)),
        "pullback_identity": quintic.pullback_identity_check(inst),
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
    _render(args, payload, table)
    return EXIT_PASS


def cmd_chow(args: argparse.Namespace) -> int:
    if args.subcommand == "sweep":
        if args.s_max < 0:
            raise InvalidParams(f"s_max must be >= 0, got {args.s_max}")
        chow.ChowRingSpec(args.s_max)  # refuses s_max above chow.MAX_S before any certificate
        # only the certificates with E = 5s+c+1 <= 6s+4, that is s >= c-3, divide
        cost = sum((s + 1) ** 3 for s in range(max(0, args.c - 3), args.s_max + 1))
        if cost > chow.MAX_SWEEP_COST:
            raise CapExceeded(
                f"a sweep to s_max = {args.s_max} costs {cost}, more than {chow.MAX_SWEEP_COST}"
            )
        certs = [chow.tsen_certificate(s, args.c) for s in range(args.s_max + 1)]
        min_s = next((cert.s for cert in certs if cert.nonzero), None)
        payload = {
            "c": args.c,
            "s_max": args.s_max,
            "min_s": min_s,
            "certificates": [cert.to_dict() for cert in certs],
        }
        lines = [f"c      {args.c}", f"s_max  {args.s_max}", f"min_s  {min_s}"]
        for cert in certs:
            lines.append(
                f"  s={cert.s}: E={cert.E} nonzero={cert.nonzero} gamma={cert.gamma}"
            )
        _render(args, payload, "\n".join(lines))
        return EXIT_PASS
    certs = [chow.tsen_certificate(args.s, args.c)]
    if args.E is not None:
        certs.append(chow.tsen_certificate(args.s, args.c, args.E))
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
    _render(args, payload, "\n".join(lines))
    violated = any(cert.default_E and cert.within_socle and not cert.nonzero for cert in certs)
    return EXIT_VIOLATION if violated else EXIT_PASS


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *formats: str) -> None:
    p.add_argument("--format", choices=("table", "json", *formats), default="table")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_work_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--work-cap", type=int, default=count.DEFAULT_WORK_CAP,
                   help="evaluation budget override")


_STATS_HELP = "report the counting rules that fired and the points x terms evaluated"


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
    p.add_argument("--stats", action="store_true", help=_STATS_HELP)
    _add_common(p)
    _add_work_cap(p)

    p = sub.add_parser("verify", help="congruence checks over single inputs or batches")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("cw", "ax", "esnault"):
        vp = vsub.add_parser(name)
        vp.add_argument("--field", required=True)
        if name == "esnault":
            vp.add_argument("--instance", default=None)
        else:
            vp.add_argument("--fan", default=None)
            vp.add_argument("--poly", default=None)
            vp.add_argument("--degree", type=_degree_tuple, default=None,
                            help="multidegree d1,...,dr for random batches on general fans")
        vp.add_argument("--batch", type=int, default=None)
        vp.add_argument("--seed", type=int, default=None)
        vp.add_argument("--policy", choices=quintic.NONZERO_POLICIES, default=None)
        vp.add_argument("--stats", action="store_true", help=_STATS_HELP)
        _add_common(vp, "csv")
        vp.add_argument("--timing", action="store_true", help="include wall-clock fields in output")
        _add_work_cap(vp)

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
    qp.add_argument("--policy", choices=quintic.NONZERO_POLICIES, default=None)
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
        args.field = None if getattr(args, "field", None) is None else parse_field_name(args.field)
        return _HANDLERS[args.command](args)
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
