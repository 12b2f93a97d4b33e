"""Command-line front end: runs the check batteries of `checks.BATTERIES` and
writes deterministic CSV/JSON reports.  A battery makes one residual call on
the stack of its units, one row per unit.  The units are phase points, or
flow specs for `asymptotics`, sampled for the seeds from --seed on in one
sampler call, each the unit its seed gives alone, whose seed a JSON row also
holds; for `flow` they are the times of --t, to which one point is flowed.

Every command goes through one writer over one float table: the unit column,
the residual columns and `passed`.  It stamps each row's `passed` with that
row's own verdict, each check one comparison over its column: every column
within its bound, or above its lower bound, and the battery's own verdict
where it gives one (for `flow`, a projection step that did not fail).  Both
formats render that table: a CSV row is one "%.17g" format over the row, a
JSON row a dict of the same values.  Then a battery's error line (from `flow`
or `brackets`, naming a failed flow) goes to stderr.  Options come from argv
alone, parsed once.  Exit codes: 0 every row passed, 1 at least one row
failed or a numerical failure (a library error other than a phase-space one)
stopped the command with no report, 2 bad usage.  Identical arguments produce
byte-identical output.

The library routine that uses a value checks it (the sampler --n, --seed and
--points, lax_matrix and rk_flow the coupling, brackets the step and its
stencils) and raises a PhaseSpaceError, bad usage here; this module checks
only the time grid, --out, and the asymptotics size and grid.

A command runs in a fresh interpreter, which compiles every module it imports
where no bytecode is cached, so this module imports the check table and the
sampler alone: a battery imports its own modules when it runs, `asymptotics`
is imported for its command and `json` for a JSON report.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from .checks import BATTERIES
from .phase_space import Coupling, PhaseSpaceError, VandiejenError, sample

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# argparse's own pattern (as of Python 3.10 and 3.11) reads "-1e-5" as an option
# string, so "--step -1e-5" would lack its value; this one takes exponent
# notation, and a time grid that starts with a negative time ("--t -1:0.5:1")
NEGATIVE_NUMBER = re.compile(
    r"^-{x}([:,]-?{x})*$".format(x=r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Every parse error ends in one `error:` line and exit 2; the subcommand
    parsers take this class from their parent."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _parse_grid(spec: str) -> np.ndarray:
    """The times of start:step:stop or a comma list: at least one, all finite,
    and few enough for numpy to allocate."""
    try:
        if ":" in spec:
            start, step, stop = (float(v) for v in spec.split(":"))
            if step <= 0:
                raise ValueError
            # the stop counts up to rounding relative to the larger end (an absolute
            # 1e-12 is below half an ulp from 16384 on); tiny keeps 0:s:0 one time
            slack = 1e-12 * max(abs(start), abs(stop), np.finfo(float).tiny)
            grid = np.arange(start, stop + slack, step)
        else:
            grid = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad time grid {spec!r}; use start:step:stop or a comma list") from exc
    except MemoryError as exc:
        raise UsageError(f"time grid {spec!r} holds too many times to allocate") from exc
    # an empty grid would be a report with nothing checked
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise UsageError(f"time grid {spec!r} must hold at least one time, all finite")
    return grid


def _emit(header: list, table: np.ndarray, args, seed=None) -> str:
    """Render the column table, one row per unit and one column per header
    name, the last `passed` (0 or 1), as csv or json text.  Every float takes
    Python's repr in JSON and its .17g form in CSV, one format over the whole
    row.  JSON is strict: a non-finite value (inf, nan) is written as null.
    With a seed the unit column is the row index i, and a JSON row holds it
    and its seed, seed + i, as integers."""
    values, passed = table[:, :-1].tolist(), table[:, -1].astype(bool).tolist()
    if args.format == "json":
        import json

        rows = []
        finite = np.isfinite(table[:, :-1]).tolist()
        for i, (row, known, ok) in enumerate(zip(values, finite, passed)):
            record = {k: v if f else None for k, v, f in zip(header, row, known)}
            record["passed"] = ok
            if seed is not None:
                record.update({header[0]: i, "seed": seed + i})
            rows.append(record)
        return json.dumps(rows, sort_keys=True, indent=2, allow_nan=False) + "\n"
    line = ",".join(["%.17g"] * (len(header) - 1) + ["%s"]) + "\n"
    return ",".join(header) + "\n" + "".join(line % (*row, ok) for row, ok in zip(values, passed))


def _write(text: str, args):
    """Write the report to --out, or to stdout; an --out that cannot be written
    (a missing directory, a directory, a full device) is a UsageError."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc


def _stack(args, unit: str):
    """A battery's units: the times of --t for unit "t", else the --points
    units from seed --seed on, as one stack from one sampler call, of few
    enough units for numpy to allocate."""
    if unit == "t":
        return _parse_grid(args.t)
    seeds = range(args.seed, args.seed + args.points)
    try:
        if unit == "spec":
            from .asymptotics import sample_spec

            return sample_spec(args.n, seed=seeds, kind=args.kind)
        return sample(args.n, seed=seeds)
    except MemoryError as exc:
        raise UsageError(f"--points {args.points} holds too many units to allocate") from exc


def _run_battery(args, name: str, *context, **options) -> int:
    """One residual call on the battery's units, one row each; the report, then the
    battery's error line.  The header is the unit column, the residual columns in
    order, and `passed`; a sampled unit's column is its index i, its seed --seed + i.
    The columns go into one float table, and each check is one comparison over
    its column: a row passes where every check holds and the battery's own
    verdict, if it gives one, is true."""
    battery = BATTERIES[name]
    columns = battery.residuals(_stack(args, battery.unit), *context, **options)
    error = columns.pop("error", None)
    verdict = columns.pop("passed", True)
    sampled = battery.unit not in columns
    header = [battery.unit, *(c for c in columns if c != battery.unit), "passed"]
    table = np.empty((len(next(iter(columns.values()))), len(header)))
    table[:, 0] = np.arange(len(table)) if sampled else columns[battery.unit]
    view = {c: table[:, k] for k, c in enumerate(header[1:-1], 1)}
    for c, column in view.items():
        column[:] = columns[c]
    passed = np.full(len(table), True) & verdict
    for check in battery.checks:
        passed &= check.holds(view)
    table[:, -1] = passed
    _write(_emit(header, table, args, args.seed if sampled else None), args)
    if error:  # after the report, so that an unwritable --out is the one error line
        sys.stderr.write(f"error: {error}\n")
    return EXIT_PASS if passed.all() else EXIT_FAIL


def cmd_lax_check(args) -> int:
    return _run_battery(args, "lax-check", Coupling(args.mu, args.nu))


def cmd_duality(args) -> int:
    return _run_battery(args, "duality", Coupling(args.mu, args.nu))


def cmd_scatter(args) -> int:
    return _run_battery(args, "scatter", Coupling(args.mu, args.nu))


def cmd_brackets(args) -> int:
    return _run_battery(args, "brackets", Coupling(args.mu, args.nu), step=args.step)


def cmd_flow(args) -> int:
    point = sample(args.n, seed=args.seed)
    return _run_battery(args, f"flow-{args.method}", point, Coupling(args.mu, args.nu))


def cmd_asymptotics(args) -> int:
    from .asymptotics import AsymptoticsError, fit_grid

    # argv alone decides the size and the grid, checked here as usage: the
    # battery's AsymptoticsError is also its numerical failure, exit 1
    if args.n < 2:
        raise UsageError(f"asymptotics needs n >= 2, got {args.n}")
    try:
        grid = fit_grid(_parse_grid(args.t), args.kind)
    except AsymptoticsError as exc:
        raise UsageError(str(exc)) from exc
    return _run_battery(args, f"asymptotics-{args.kind}", grid)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `vandiejen` parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="vandiejen",
        description="Numerical checks for a two-parameter hyperbolic integrable many-body system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, points=20, coupling=True):
        """Every subcommand's options: --points unless points is None, --mu/--nu if coupling."""
        sp.add_argument("--n", type=int, default=2, help="particle count / matrix size")
        if coupling:
            sp.add_argument("--mu", type=float, default=0.7)
            sp.add_argument("--nu", type=float, default=0.4)
        sp.add_argument("--seed", type=int, default=1)
        if points is not None:
            sp.add_argument("--points", type=int, default=points)
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

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
    common(sp, points=5, coupling=False)
    sp.add_argument("--kind", choices=("exponential", "linear"), default="exponential")
    sp.add_argument("--t", default="4:1:10", help="time grid")

    parser._negative_number_matcher = NEGATIVE_NUMBER
    for sp in sub.choices.values():
        sp._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at each call, not bound into the cached parser
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, PhaseSpaceError) as exc:  # a BracketError among them
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VandiejenError as exc:  # a numerical failure: typed, reported, no traceback
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
