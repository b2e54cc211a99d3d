"""Seeded benchmark of toricount: one workload per run, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload esnault_prime --seed 1 --seconds 15 --trace 0

The workload runs in this one process and thread, in a closed loop: the next
operation starts when the previous one returns. `--trace 0` prints the
end-to-end metrics; `--trace 1` runs each operation once whole and once as
traced calls into its public pieces, checks that the pieces reproduce the
whole, prints the per-layer metrics and writes the spans to perfbench/out/.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

#: fresh processes whose set-up time is measured; setup_s is their median
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_LAYERS = ("toricount.import_s", "fan.grading_s", "ff.field_setup_s", "quintic.batch_s")


def import_program() -> float:
    """Import toricount from the checkout's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "toricount", "__init__.py")):
        sys.exit(f"perfbench: no toricount package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import toricount

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(toricount.__file__))) != SRC:
        sys.exit(f"perfbench: imported toricount from {toricount.__file__}, not {SRC}")
    return elapsed


def setup(workload: str, seed: int) -> tuple[object, list, dict]:
    """Import the program, build the workload's field and grading, generate its inputs."""
    phases = {name: 0.0 for name in SETUP_LAYERS}
    phases["toricount.import_s"] = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    inputs = wl.setup(seed, phases)
    return wl, inputs, phases


def measure_setup(workload: str, seed: int) -> list[tuple[float, dict]]:
    """Set up in fresh processes: (seconds from spawn to ready, phase seconds) each."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: set-up process exited with code {proc.returncode}")
        samples.append((ready, json.loads(line)))
    return samples


class Mismatch(Exception):
    """The traced pieces of an operation gave another result than the whole."""


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory, written out at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, targets):
        """Record a span for every call to each (module, attribute) while active."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        for module, attr, name, attrs in targets:
            setattr(module, attr, self._wrap(getattr(module, attr), name, attrs))
        try:
            yield
        finally:
            for module, attr, func in saved:
                setattr(module, attr, func)

    def _wrap(self, func, name, attrs):
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return func(*args, **kwargs)

        return traced


def closed_loop(wl, inputs, seconds: float, step):
    """Run whole rounds of `step` until `seconds` have passed; (results, op times, elapsed)."""
    results, times = [], []
    k = 0
    start = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            inp = inputs[k % len(inputs)]
            t = time.perf_counter()
            try:
                out, error = step(inp), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, exc
            times.append(time.perf_counter() - t)
            results.append((k % len(inputs), out, error))
            k += 1
        if time.perf_counter() - start >= seconds:
            return results, times, time.perf_counter() - start


def traced_step(wl, tracer: Tracer, nested):
    """One operation whole, then as traced pieces; the output is the whole's result."""

    def step(inp):
        tracer.op += 1
        with tracer.span(wl.whole):
            whole = wl.op(inp)
        with tracer.wrapping(nested), tracer.span("pieces"):
            pieces = wl.pieces(inp, tracer)
        if not wl.reproduces(whole, pieces):
            raise Mismatch(f"pieces {pieces!r} do not reproduce {whole!r}")
        return whole

    return step


def layer_metrics(spans: list[dict], setup_phases: list[dict]) -> dict:
    def dur(sp):
        return sp["end"] - sp["start"]

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def mean_s(sps):
        return sum(map(dur, sps)) / len(sps) if sps else 0.0

    def rate(sps, work):
        total = sum(map(dur, sps))
        return sum(work(sp) for sp in sps) / total if total else 0.0

    def under_exceptional(sp):
        return sp["parent"] is not None and spans[sp["parent"]]["name"] == "count.exceptional"

    exceptional = named("count.exceptional")
    sub = [sp for sp in named("count.affine") if under_exceptional(sp)]
    full = [sp for sp in named("count.affine") if not under_exceptional(sp)]
    orbits = named("count.orbits")
    wholes = [sp for sp in spans if sp["parent"] is None and sp["name"] != "pieces"]
    pieces = named("pieces")
    whole_total = sum(map(dur, wholes))
    values = {name: statistics.median(p[name] for p in setup_phases) for name in SETUP_LAYERS}
    values.update({
        "quintic.strict_transform_s": mean_s(named("quintic.strict_transform")),
        "count.affine_s": mean_s(full),
        "count.affine_points_per_s": rate(full, lambda sp: sp["attrs"]["points"]),
        "count.affine_point_terms_per_s": rate(
            full, lambda sp: sp["attrs"]["points"] * sp["attrs"]["terms"]),
        "count.exceptional_s": mean_s(exceptional),
        "count.exceptional_subcounts": len(sub) / len(exceptional) if exceptional else 0.0,
        "count.orbits_s": mean_s(orbits),
        "count.orbit_images_per_s": rate(orbits, lambda sp: sp["attrs"]["images"]),
        "count.quotient_s": mean_s(named("count.quotient")),
        "chow.certificate_s": mean_s(named("chow.certificate")),
        "chow.membership_s": mean_s(named("chow.membership")),
        "chow.socle_dim_s": mean_s(named("chow.socle_dim")),
        "poly.power_s": mean_s(named("poly.power")),
        "trace.overhead_pct": 100.0 * (sum(map(dur, pieces)) - whole_total) / whole_total,
    })
    return values


LAYER_UNITS = {
    "count.affine_points_per_s": "1/s",
    "count.affine_point_terms_per_s": "1/s",
    "count.orbit_images_per_s": "1/s",
    "count.exceptional_subcounts": "count",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("esnault_prime", "esnault_ext", "chow_sweep", "toric_orbits"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        _, _, phases = setup(args.workload, args.seed)
        print(json.dumps(phases), flush=True)
        return 0

    samples = measure_setup(args.workload, args.seed)
    wl, inputs, _ = setup(args.workload, args.seed)
    try:  # warm-up: lazy tables and caches fill outside the timed window
        wl.op(inputs[0])
    except Exception:  # the timed loop counts and reports the failure
        pass

    tracer = Tracer()
    if args.trace:
        from workloads import NESTED

        step = traced_step(wl, tracer, NESTED)
    else:
        step = wl.op
    results, times, elapsed = closed_loop(wl, inputs, args.seconds, step)

    problems = []
    failed = 0
    for i, out, error in results:
        if isinstance(error, Mismatch):
            found = [str(error)]
        elif error is not None:
            print(f"perfbench: input {i} raised {type(error).__name__}: {error}", file=sys.stderr)
            failed += 1
            continue
        else:
            found = wl.check(inputs[i], out)
        failed += bool(found)
        problems += [f"input {i}: {p}" for p in found]
    extra = wl.extra_ops()
    for check in extra:
        try:
            found = check()
        except Exception as exc:
            print(f"perfbench: {check.__name__} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        failed += bool(found)
        problems += found
    for p in problems:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)

    if args.trace:
        values = layer_metrics(tracer.spans, [phases for _, phases in samples])
        units = {name: LAYER_UNITS.get(name, "s") for name in values}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.spans, fh, default=repr)
    else:
        completed = len(results) - failed
        values = {
            "ops_per_s": completed / elapsed,
            "op_p50_ms": 1000.0 * statistics.median(times),
            "setup_s": statistics.median(ready for ready, _ in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(f"perfbench: {args.workload} seed {args.seed}: {len(results)} timed operations "
          f"in {elapsed:.2f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results) + len(extra),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
