"""Command-line front end: runs the check batteries of `checks.BATTERIES` over
seeded samples and writes deterministic CSV/JSON reports.

Each row's `passed` is that row's own verdict: every column within
`bound * --tol-scale`, or above its lower bound.  Exit codes: 0 every row
passed, 1 at least one row failed or a numerical failure (a library error
other than a phase-space one) stopped the command, 2 bad usage or
configuration.  Identical configuration and seed produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from . import asymptotics as asy
from . import dynamics
from .checks import ASYMPTOTICS, BATTERIES, FLOW_GAP
from .phase_space import Coupling, PhaseSpaceError, VandiejenError, sample

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# argparse's own pattern (as of Python 3.10 and 3.11) reads "-1e-5" as an option
# string, so "--step -1e-5" would lack its value; this one takes exponent notation
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            start, step, stop = (float(v) for v in spec.split(":"))
            if step <= 0:
                raise ValueError
            return np.arange(start, stop + 1e-12, step)
        return np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad time grid {spec!r}; use start:step:stop or a comma list") from exc


def _emit(rows, header, args) -> str:
    """Render rows (list of dicts) as csv or json text."""
    if args.format == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt(row[k]) if isinstance(row[k], (int, float)) and not isinstance(row[k], bool)
             else row[k] for k in header]
        )
    return buf.getvalue()


def _write(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coupling(args) -> Coupling:
    g = Coupling(mu=args.mu, nu=args.nu)
    if not g.in_base_class():
        raise UsageError(f"coupling (mu={args.mu}, nu={args.nu}) outside the base class")
    if not g.is_regular():
        raise UsageError(f"coupling (mu={args.mu}, nu={args.nu}) outside the regular class")
    return g


def _report(rows, checks, header, args) -> int:
    """Stamp each row's own verdict into `passed`, write the report, return the exit code.

    A row may arrive with a verdict of its own in `passed`; the checks are added to it.
    """
    for row in rows:
        row["passed"] = bool(
            row.get("passed", True) and all(c.holds(row, args.tol_scale) for c in checks)
        )
    _write(_emit(rows, header, args), args)
    return EXIT_PASS if all(row["passed"] for row in rows) else EXIT_FAIL


def _points(args) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    return args.points


def _run_battery(args, name: str, fixed: dict | None = None, **options) -> int:
    battery = BATTERIES[name]
    g = _coupling(args)
    points = [sample(args.n, seed=args.seed + k) for k in range(_points(args))]
    rows = [{**(fixed or {}), **battery.residuals(p, g, **options)} for p in points]
    for i, row in enumerate(rows):
        row["point"] = i
    header = ["point", *(c.column for c in battery.checks), "passed"]
    return _report(rows, battery.checks, header, args)


def cmd_lax_check(args) -> int:
    # lax-check rows also carry the seed, which shows in JSON reports
    return _run_battery(args, "lax-check", {"seed": args.seed})


def cmd_duality(args) -> int:
    return _run_battery(args, "duality")


def cmd_scatter(args) -> int:
    return _run_battery(args, "scatter")


def cmd_brackets(args) -> int:
    if not (np.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be finite and positive, got {args.step}")
    return _run_battery(args, "brackets", step=args.step)


def cmd_flow(args) -> int:
    g = _coupling(args)
    grid = _parse_grid(args.t)
    p = sample(args.n, seed=args.seed)
    proj = dynamics.projection_trajectory(p, g, grid) if args.method != "runge-kutta" else None
    rk = dynamics.rk_flow(p, g, grid) if args.method != "projection" else None
    primary = proj if proj is not None else rk
    coords = [f"{x}_{a + 1}" for x in ("lambda", "theta") for a in range(args.n)]
    header = ["t", *coords, "energy"]
    rows = [
        dict(zip(header, map(float, [t, *s.point.xi, *s.point.eta, s.energy])))
        for t, s in zip(grid, primary)
    ]
    if args.method == "both":
        header.append(FLOW_GAP.column)
        for row, a, b in zip(rows, proj, rk):
            row[FLOW_GAP.column] = float(np.abs(a.point.as_vector() - b.point.as_vector()).max())
    _write(_emit(rows, header, args), args)
    ok = args.method != "both" or all(FLOW_GAP.holds(r, args.tol_scale) for r in rows)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_asymptotics(args) -> int:
    if args.n < 2:
        raise UsageError(f"asymptotics needs n >= 2, got {args.n}")
    grid = _parse_grid(args.t)
    battery = ASYMPTOTICS[args.kind]
    specs = [
        asy.sample_spec(args.n, seed=args.seed + k, kind=args.kind) for k in range(_points(args))
    ]
    rows = [{"spec": k, **battery.residuals(spec, grid)} for k, spec in enumerate(specs)]
    return _report(rows, battery.checks, list(rows[0]), args)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The `vandiejen` parser; `config` holds option defaults, which explicit flags
    override.  A config key that is no option of any subcommand is a UsageError."""
    parser = argparse.ArgumentParser(
        prog="vandiejen",
        description="Numerical checks for a two-parameter hyperbolic integrable many-body system",
    )
    parser.add_argument("--config", help="JSON file of option defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, points=20):
        """The options every subcommand takes; --points (at least 1) unless points is None."""
        sp.add_argument("--n", type=int, default=2, help="particle count / matrix size")
        sp.add_argument("--mu", type=float, default=0.7)
        sp.add_argument("--nu", type=float, default=0.4)
        sp.add_argument("--seed", type=int, default=1)
        if points is not None:
            sp.add_argument("--points", type=int, default=points)
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")

    sp = sub.add_parser("lax-check", help="Lax matrix structure invariants")
    common(sp)
    sp.set_defaults(fn=cmd_lax_check)

    sp = sub.add_parser("duality", help="spectral-duality identities")
    common(sp)
    sp.set_defaults(fn=cmd_duality)

    sp = sub.add_parser("flow", help="trajectory propagation")
    common(sp, points=None)
    sp.add_argument("--method", choices=("projection", "runge-kutta", "both"), default="both")
    sp.add_argument("--t", default="0:0.5:5", help="time grid start:step:stop or comma list")
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("scatter", help="asymptotic scattering identities")
    common(sp)
    sp.set_defaults(fn=cmd_scatter)

    sp = sub.add_parser("brackets", help="finite-difference canonicity checks")
    common(sp, points=5)
    sp.add_argument("--step", type=float, default=1e-5)
    sp.set_defaults(fn=cmd_brackets)

    sp = sub.add_parser("asymptotics", help="matrix-flow eigenvalue asymptotics")
    common(sp, points=5)
    sp.add_argument("--kind", choices=("exponential", "linear"), default="exponential")
    sp.add_argument("--t", default="4:1:10", help="time grid")
    sp.set_defaults(fn=cmd_asymptotics)

    config = {key.replace("-", "_"): value for key, value in (config or {}).items()}
    known = set()
    parser._negative_number_matcher = NEGATIVE_NUMBER
    for sp in sub.choices.values():
        sp._negative_number_matcher = NEGATIVE_NUMBER
        options = {a.dest for a in sp._actions if a.option_strings} - {"help"}
        sp.set_defaults(**{k: v for k, v in config.items() if k in options})
        known |= options
    unknown = sorted(set(config) - known)
    if unknown:
        raise UsageError(f"unknown option(s) {', '.join(unknown)}")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        return config
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the config becomes each subcommand's defaults, so any explicit flag wins
        try:
            parser = build_parser(_load_config(args.config))
        except UsageError as exc:
            parser.exit(EXIT_USAGE, f"error: bad config: {exc}\n")
        args = parser.parse_args(argv)
    try:
        if not (np.isfinite(args.tol_scale) and args.tol_scale > 0):
            raise UsageError(f"--tol-scale must be finite and positive, got {args.tol_scale}")
        return args.fn(args)
    except (UsageError, PhaseSpaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VandiejenError as exc:  # a numerical failure: typed, reported, no traceback
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
