"""Command-line front end: runs the check batteries of `checks.BATTERIES` over
seeded samples and writes deterministic CSV/JSON reports.  A battery samples
the stack of its units (phase points, or flow specs for `asymptotics`) for
the seeds from --seed on in one sampler call, each unit the one its seed gives
alone, makes one residual call on that stack and splits the columns into one
row per unit; a row's JSON also holds its unit's seed.
`flow` propagates one point over a time grid, one row per time.

Every report goes through one writer, which stamps each row's `passed` with
that row's own verdict: every column within `bound * --tol-scale`, or above
its lower bound, and for `flow` a projection step that did not fail.  CSV
reports show `passed` for the batteries only, JSON reports for every command.
Exit codes: 0 every row passed, 1 at least one row failed or a numerical
failure (a library error other than a phase-space one) stopped the command,
2 bad usage or configuration.  Identical configuration and seed produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import asymptotics as asy
from . import dynamics
from .checks import BATTERIES, FLOW_GAP
from .phase_space import Coupling, PhaseSpaceError, VandiejenError, sample

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# argparse's own pattern (as of Python 3.10 and 3.11) reads "-1e-5" as an option
# string, so "--step -1e-5" would lack its value; this one takes exponent notation
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Every parse error ends in one `error:` line and exit 2; the subcommand
    parsers take this class from their parent."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_grid(spec: str) -> np.ndarray:
    """The times of start:step:stop or a comma list: at least one, all finite."""
    try:
        if ":" in spec:
            start, step, stop = (float(v) for v in spec.split(":"))
            if step <= 0:
                raise ValueError
            grid = np.arange(start, stop + 1e-12, step)
        else:
            grid = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad time grid {spec!r}; use start:step:stop or a comma list") from exc
    # an empty grid would be a report with nothing checked
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise UsageError(f"time grid {spec!r} must hold at least one time, all finite")
    return grid


def _json_value(value):
    """A row value as strict JSON allows it: a non-finite float becomes null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(rows, header, args) -> str:
    """Render rows (list of dicts) as csv or json text.  JSON is strict: a
    non-finite value (inf, nan) is written as null."""
    if args.format == "json":
        rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        return json.dumps(rows, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    g.require_regular()
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


def _stack(args, unit: str):
    """The --points units from seed --seed on, as one stack from one sampler call."""
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    seeds = range(args.seed, args.seed + args.points)
    if unit == "spec":
        return asy.sample_spec(args.n, seed=seeds, kind=args.kind)
    return sample(args.n, seed=seeds)


def _run_battery(args, name: str, *context, **options) -> int:
    """One residual call on the stack of the sampled units; the header is the
    unit column, the residual columns in their order, and `passed`.  Row i
    also carries its unit's seed, --seed + i, which shows in JSON reports."""
    battery = BATTERIES[name]
    columns = battery.residuals(_stack(args, battery.unit), *context, **options)
    header = [battery.unit, *(c for c in columns if c != "passed"), "passed"]
    rows = [
        {"seed": args.seed + i, battery.unit: i,
         **{c: bool(v[i]) if c == "passed" else float(v[i]) for c, v in columns.items()}}
        for i in range(args.points)
    ]
    return _report(rows, battery.checks, header, args)


def cmd_lax_check(args) -> int:
    return _run_battery(args, "lax-check", _coupling(args))


def cmd_duality(args) -> int:
    return _run_battery(args, "duality", _coupling(args))


def cmd_scatter(args) -> int:
    return _run_battery(args, "scatter", _coupling(args))


def cmd_brackets(args) -> int:
    if not (np.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be finite and positive, got {args.step}")
    return _run_battery(args, "brackets", _coupling(args), step=args.step)


def cmd_flow(args) -> int:
    """A time whose projection step fails stays a row that does not pass: the
    RK sample under --method both (its propagator_gap inf), nan under
    --method projection; one error line names the failed times."""
    g = _coupling(args)
    grid = _parse_grid(args.t)
    p = sample(args.n, seed=args.seed)
    proj = dynamics.projection_outcomes(p, g, grid) if args.method != "runge-kutta" else None
    rk = dynamics.rk_flow(p, g, grid) if args.method != "projection" else None
    failed = [i for i, s in enumerate(proj or ()) if isinstance(s, dynamics.DynamicsError)]
    primary = list(proj) if proj is not None else rk
    for i in failed:
        primary[i] = rk[i] if rk is not None else None
    coords = [f"{x}_{a + 1}" for x in ("lambda", "theta") for a in range(args.n)]
    header = ["t", *coords, "energy"]
    rows, nan = [], [np.nan] * (len(header) - 1)
    for t, s in zip(grid, primary):
        values = nan if s is None else [*s.point.xi, *s.point.eta, s.energy]
        rows.append(dict(zip(header, map(float, [t, *values]))))
    for i in failed:
        rows[i]["passed"] = False
    if args.method == "both":
        header.append(FLOW_GAP.column)
        for row, a, b in zip(rows, proj, rk):
            row[FLOW_GAP.column] = (
                np.inf if isinstance(a, dynamics.DynamicsError)
                else float(np.abs(a.point.as_vector() - b.point.as_vector()).max())
            )
    if failed:
        times = ",".join(format(grid[i], "g") for i in failed)
        sys.stderr.write(f"error: projection step failed at t={times}: {proj[failed[0]]}\n")
    return _report(rows, (FLOW_GAP,) if args.method == "both" else (), header, args)


def cmd_asymptotics(args) -> int:
    if args.n < 2:
        raise UsageError(f"asymptotics needs n >= 2, got {args.n}")
    try:
        grid = asy.fit_grid(_parse_grid(args.t), args.kind)
    except asy.AsymptoticsError as exc:  # the grid alone decides, as --n does
        raise UsageError(str(exc)) from exc
    return _run_battery(args, f"asymptotics-{args.kind}", grid)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The `vandiejen` parser; `config` holds option defaults, which explicit flags
    override.  A config key that is no option of any subcommand is a UsageError."""
    parser = _Parser(
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

    sp = sub.add_parser("duality", help="spectral-duality identities")
    common(sp)

    sp = sub.add_parser("flow", help="trajectory propagation")
    common(sp, points=None)
    sp.add_argument("--method", choices=("projection", "runge-kutta", "both"), default="both")
    sp.add_argument("--t", default="0:0.5:5", help="time grid start:step:stop or comma list")

    sp = sub.add_parser("scatter", help="asymptotic scattering identities")
    common(sp)

    sp = sub.add_parser("brackets", help="finite-difference canonicity checks")
    common(sp, points=5)
    sp.add_argument("--step", type=float, default=1e-5)

    sp = sub.add_parser("asymptotics", help="matrix-flow eigenvalue asymptotics")
    common(sp, points=5)
    sp.add_argument("--kind", choices=("exponential", "linear"), default="exponential")
    sp.add_argument("--t", default="4:1:10", help="time grid")

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


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """build_parser() without a config, built once per process: parsing leaves
    a parser unchanged, and a --config run builds its own."""
    return build_parser()


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
    parser = _default_parser()
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
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        # looked up at each call, not bound into the cached parser
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, PhaseSpaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VandiejenError as exc:  # a numerical failure: typed, reported, no traceback
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
