"""Benchmark of the `vandiejen` check batteries, end to end and per layer.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 35 --trace 0

One client runs a closed loop in one process: each op is one call to
``vandiejen.cli.main(argv)`` that writes its report to a temporary ``--out``
file, and the next op starts when the previous one returns.  A workload is a
fixed catalogue of argv lists; ``--seed`` sets the order in which each pass
runs them.  The run warms up on one op of each command and size, then makes
whole timed passes (so every op runs equally often), with fresh interpreters
for the cold-start metrics spread between them, until at least MIN_SAMPLES ops
were timed and the whole run, warm-up and fresh interpreters included, has
lasted about ``--seconds``.  Each op is timed next to a fixed reference
kernel and each fresh interpreter next to a reference interpreter, and times
are reported at a nominal host speed (see "host speed" below).  ``--trace 1``
instead runs an untraced, a traced and an untraced pass and reports per-layer
metrics.  The last line of standard output is the JSON result; see README.md
for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # reports, temporary files and span dumps
FRESH_SAMPLES = 4  # fresh interpreters per run, for setup_s and for first_op_s
MIN_SAMPLES = 100  # op latencies per run, so that p90 has ten beyond it
IMPORT_REPEATS = 3
# one fresh interpreter paying the import that every `vandiejen` command pays
IMPORT_CLI = "import vandiejen.cli"
IMPORT_PROBE = "import vandiejen.cli, scipy.integrate, mpmath"
TRAJECTORY_GRID = "0:0.25:2"
FLOW_GAP_BOUND = 1e-6  # cmd_flow's propagator-gap bound at --tol-scale 1


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    rows: int  # report rows the op must produce
    units: int  # checked units: phase points, asymptotics specs or flow samples
    phase_points: int  # the base of duality.frames_per_point


def _battery(cmd, n, points, *extra):
    return Op((cmd, "--n", str(n), "--points", str(points), *extra), points, points, points)


def catalogue(workload: str, tiny: bool = False) -> list[Op]:
    """The fixed op list of a workload; ``tiny`` shrinks it for the smoke test."""
    if workload == "survey":
        points, sizes = (3, (2, 4)) if tiny else (50, (2, 4, 6))
        ops = [
            _battery(cmd, n, points, "--mu", mu, "--nu", nu)
            for cmd in ("lax-check", "duality", "scatter")
            for n in sizes
            for mu, nu in (("0.7", "0.4"), ("1.3", "0.2"))
        ]
        specs, asy_sizes = (2, (4,)) if tiny else (12, (4, 6, 8))
        ops += [
            Op(("asymptotics", "--n", str(n), "--kind", kind, "--points", str(specs)),
               specs, specs, 0)
            for kind in ("exponential", "linear")
            for n in asy_sizes
        ]
        return ops
    if workload == "trajectory":
        seeds = {2: 2} if tiny else {2: 20, 3: 10, 4: 5}
        grid = "0:0.5:1" if tiny else TRAJECTORY_GRID
        samples = len(_grid(grid))
        return [
            Op(("flow", "--n", str(n), "--seed", str(s), "--t", grid, "--method", "both"),
               samples, samples, samples)
            for n, count in seeds.items()
            for s in range(1, count + 1)
        ]
    if workload == "canonicity":
        seeds = {2: 3} if tiny else {2: 15, 3: 20, 4: 8}
        return [
            _battery("brackets", n, 1, "--seed", str(s))
            for n, count in seeds.items()
            for s in range(1, count + 1)
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("survey", "trajectory", "canonicity")


def _grid(spec: str) -> list[float]:
    start, step, stop = (float(v) for v in spec.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [start + k * step for k in range(count)]


# -- host speed ------------------------------------------------------------
# The host's speed drifts by up to x2 within seconds to minutes, in CPU time as
# much as in wall time, so medians within a run cannot absorb it.  A reference
# that shares no code with the library is timed before and after each
# measurement, and the measurement is scaled by the reference's nominal time
# over the mean of the two: the host's drift cancels, a change in the library
# does not.  An op's reference is a kernel in process; a fresh interpreter's is
# another fresh interpreter, since the kernel does not follow start-up costs.

REF_NOMINAL_S = 1.5e-3  # the kernel's median time on the host of README.md
REF_IMPORT = "import numpy, scipy.linalg"
REF_IMPORT_NOMINAL_S = 0.32  # the median time of python3 -c REF_IMPORT there


@functools.cache
def _reference_input():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return a + a.conj().T, np.eye(6)


def reference_seconds() -> float:
    """Time of one call of the reference kernel: small Hermitian eigensolves
    and scalar Python arithmetic, the library's own mix of costs."""
    import numpy as np

    h, eye = _reference_input()
    start = perf_counter()
    total = 0.0
    for k in range(40):
        w, v = np.linalg.eigh(h + k * 1e-3 * eye)
        total += float(w[0]) + float(np.abs(v).sum())
        for j in range(60):
            total += (j * 0.5) ** 0.5
    return perf_counter() - start


def nominal(seconds: float, ref_s: float, ref_nominal_s: float) -> float:
    """``seconds`` measured next to a reference time ``ref_s``, at the nominal speed."""
    return seconds * ref_nominal_s / ref_s


# -- one op ----------------------------------------------------------------


@dataclass
class Result:
    op: int  # index into the catalogue
    seconds: float
    code: int | None  # exit code; None when the call raised
    error: str | None  # exception type name, or a correctness problem
    digest: str
    size: int
    failing_rows: tuple[str, ...]
    ref_s: float = 0.0  # the reference kernel's time around the op, if timed in process


def check_report(op: Op, code: int, text: str) -> tuple[str | None, tuple[str, ...]]:
    """(problem or None, rows whose check failed) for one op's CSV report."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != op.rows:
        return f"{len(rows)} rows, expected {op.rows}", ()
    if "passed" in rows[0]:
        failing = tuple(r.get("point", r.get("spec")) for r in rows if r["passed"] != "True")
    elif "propagator_gap" in rows[0]:
        failing = tuple(r["t"] for r in rows if float(r["propagator_gap"]) > FLOW_GAP_BOUND)
    else:
        failing = ()
    if (code == 1) != bool(failing):
        return f"exit {code} disagrees with the report's verdict", failing
    return None, failing


def run_op(main, ops: list[Op], index: int, out: Path) -> Result:
    op = ops[index]
    out.unlink(missing_ok=True)
    start = perf_counter()
    try:
        code, error = main([*op.argv, "--out", str(out)]), None
    except SystemExit as exc:  # argparse reports usage errors this way
        code, error = (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception as exc:  # the loop must outlive any library failure
        code, error = None, type(exc).__name__
    seconds = perf_counter() - start
    data = out.read_bytes() if out.exists() else b""
    failing: tuple[str, ...] = ()
    if error is None:
        if code not in (0, 1):
            error = f"exit {code}"
        else:
            error, failing = check_report(op, code, data.decode(errors="replace"))
    return Result(index, seconds, code, error, hashlib.sha256(data).hexdigest(), len(data), failing)


def warm_up(ops: list[Op]) -> list[int]:
    """The first op of each command and size: enough to load what ops load lazily."""
    first: dict[tuple[str, ...], int] = {}
    for index, op in enumerate(ops):
        first.setdefault(op.argv[:3], index)  # (command, "--n", n)
    return sorted(first.values())


class Loop:
    """Runs passes over a catalogue and keeps the per-op correctness record."""

    def __init__(self, ops: list[Op], out: Path):
        sys.path.insert(0, str(SRC))
        import vandiejen.cli

        # looked up per op, so that a traced pass calls the wrapped ``main``
        self.cli, self.ops, self.out = vandiejen.cli, ops, out
        self.digests: dict[int, str] = {}
        self.results: list[Result] = []

    def run_pass(self, order) -> list[Result]:
        done = []
        ref = reference_seconds()
        for index in order:
            res = run_op(self.cli.main, self.ops, index, self.out)
            after = reference_seconds()
            res.ref_s, ref = (ref + after) / 2, after
            first = self.digests.setdefault(index, res.digest)
            if res.error is None and res.digest != first:
                res.error = "report differs from an earlier pass"
            done.append(res)
        self.results += done
        return done

    def failures(self) -> list[Result]:
        return [r for r in self.results if r.error is not None]


# -- fresh interpreters ----------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DIEJEN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a new interpreter running ``python3 <args>`` in the checkout."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    return perf_counter() - start, proc


def setup_sample() -> float:
    return fresh(["-c", IMPORT_CLI])[0]


def reference_import_sample() -> float:
    return fresh(["-c", REF_IMPORT])[0]


def first_op_sample(loop: Loop) -> float:
    """Wall time of the workload's first op as a shell command, import included.

    The report must match the in-process report of the same op byte for byte;
    a mismatch is recorded as a failure of that op.
    """
    op, out = loop.ops[0], loop.out.with_suffix(".cmd")
    out.unlink(missing_ok=True)
    seconds, proc = fresh(["-m", "vandiejen.cli", *op.argv, "--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    digest = hashlib.sha256(data).hexdigest()
    error = None
    if proc.returncode not in (0, 1):
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    elif digest != loop.digests.get(0, digest):
        error = "command report differs from the in-process report"
    loop.results.append(Result(0, seconds, proc.returncode, error, digest, len(data), ()))
    return seconds


def import_seconds(repeats: int) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, medians over runs."""
    samples: dict[str, list[float]] = {"vandiejen": [], "scipy.integrate": [], "mpmath": []}
    for _ in range(repeats):
        _, proc = fresh(["-X", "importtime", "-c", IMPORT_PROBE])
        found = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, raw = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            name, top = raw.strip(), not raw[1:].startswith(" ")
            if top and (name == "vandiejen" or name.startswith("vandiejen.")):
                found["vandiejen"] += int(cumulative) * 1e-6
            elif name in ("scipy.integrate", "mpmath") and not found[name]:
                found[name] = int(cumulative) * 1e-6
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


# -- environment -----------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "DIEJEN_THREADS": os.environ.get("DIEJEN_THREADS", "unset"),
    }


# -- the two kinds of run --------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fresh_samples(loop: Loop) -> tuple[tuple[float, float], tuple[float, float]]:
    """((setup_s, reference), (first_op_s, reference)) in wall seconds, where
    each reference is the mean of the reference interpreters on either side."""
    refs = [reference_import_sample()]
    setup = setup_sample()
    refs.append(reference_import_sample())
    first = first_op_sample(loop)
    refs.append(reference_import_sample())
    return (setup, (refs[0] + refs[1]) / 2), (first, (refs[1] + refs[2]) / 2)


def timed_run(
    loop: Loop, seed: int, start: float, seconds: float, fresh_count: int, raw_path: Path
) -> tuple[dict, dict]:
    """Passes until ``seconds`` after ``start`` (a perf_counter reading), all included."""
    ops = loop.ops
    setup_sample()  # compiles bytecode once, as an installed package has it
    loop.run_pass(warm_up(ops))
    rng = random.Random(seed)
    timed: list[list[Result]] = []
    fresh_runs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    last = 0.0  # length of the latest pass
    # another pass starts while it would end, on average, before the deadline
    while len(timed) * len(ops) < MIN_SAMPLES or perf_counter() - start + last / 2 < seconds:
        begin = perf_counter()
        timed.append(loop.run_pass(rng.sample(range(len(ops)), len(ops))))
        last = perf_counter() - begin
        # fresh interpreters spread over the run, so they see the same machine
        elapsed = perf_counter() - start
        if len(fresh_runs) < fresh_count and elapsed >= len(fresh_runs) * seconds / fresh_count:
            fresh_runs.append(fresh_samples(loop))
    while len(fresh_runs) < fresh_count:
        fresh_runs.append(fresh_samples(loop))
    setup, first = zip(*fresh_runs)

    def times(op_s, fresh_s) -> dict:
        """The time metrics, from op Result -> seconds and (wall, reference) -> seconds."""
        latencies = sorted(op_s(r) for p in timed for r in p)
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        rates = [sum(ops[r.op].units for r in p) / sum(op_s(r) for r in p) for p in timed]
        return {
            "points_per_s": _metric(statistics.median(rates), "1/s"),
            "op_p50_ms": _metric(cuts[49] * 1e3, "ms"),
            "op_p90_ms": _metric(cuts[89] * 1e3, "ms"),
            "setup_s": _metric(statistics.median(fresh_s(*x) for x in setup), "s"),
            "first_op_s": _metric(statistics.median(fresh_s(*x) for x in first), "s"),
        }

    at_nominal = times(lambda r: nominal(r.seconds, r.ref_s, REF_NOMINAL_S),
                       lambda wall, ref: nominal(wall, ref, REF_IMPORT_NOMINAL_S))
    wall = times(lambda r: r.seconds, lambda wall, _: wall)
    timed_ops = sum(map(len, timed))
    passed = sum(r.code == 0 for p in timed for r in p)
    raw_path.write_text(json.dumps({
        "ops": [" ".join(op.argv) for op in ops],
        "passes": [[(r.op, r.seconds, r.ref_s) for r in p] for p in timed],
        "setup_s": setup, "first_op_s": first,
    }))
    return {
        **{k: at_nominal[k] for k in ("points_per_s", "op_p50_ms", "op_p90_ms")},
        "pass_share": _metric(passed / timed_ops, "share"),
        "setup_s": at_nominal["setup_s"],
        "first_op_s": at_nominal["first_op_s"],
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"timed_passes": len(timed), "timed_ops": timed_ops,
        "wall": {k: m["value"] for k, m in wall.items()},
        "reference_kernel_ms": statistics.median(r.ref_s for p in timed for r in p) * 1e3,
        "reference_import_s": statistics.median(ref for _, ref in setup + first),
        "raw_file": str(raw_path.relative_to(ROOT))}


def traced_run(loop: Loop, seed: int, import_repeats: int, spans_path: Path) -> tuple[dict, dict]:
    from layers import Tracer

    imports = import_seconds(import_repeats)
    ops = loop.ops
    loop.run_pass(warm_up(ops))
    order = random.Random(seed).sample(range(len(ops)), len(ops))

    def timed_pass():
        start = perf_counter()
        results = loop.run_pass(order)
        return results, perf_counter() - start

    # untraced, traced, untraced: a linear drift of machine speed cancels
    _, before = timed_pass()
    tracer = Tracer()
    tracer.install()
    try:
        results, traced = timed_pass()
    finally:
        tracer.uninstall()
    _, after = timed_pass()
    tracer.write(spans_path)
    metrics = tracer.metrics(
        phase_points=sum(ops[i].phase_points for i in order),
        report_bytes=sum(r.size for r in results),
        overhead_s=traced - (before + after) / 2,
    )
    metrics["import.vandiejen_s"] = _metric(imports["vandiejen"], "s")
    metrics["import.scipy.integrate_s"] = _metric(imports["scipy.integrate"], "s")
    metrics["import.mpmath_s"] = _metric(imports["mpmath"], "s")
    return metrics, {"pass_walls_s": [before, traced, after], "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (SRC / "vandiejen" / "cli.py").is_file():
        sys.stderr.write(f"error: no vandiejen sources under {SRC}\n")
        return 2
    os.environ.pop("DIEJEN_THREADS", None)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        loop = Loop(catalogue(args.workload, args.tiny), Path(tmp) / "report.csv")
        if args.trace:
            metrics, info = traced_run(
                loop, args.seed, 1 if args.tiny else IMPORT_REPEATS, WORK / f"spans-{stem}.jsonl")
        else:
            metrics, info = timed_run(
                loop, args.seed, start, args.seconds, 1 if args.tiny else FRESH_SAMPLES,
                WORK / f"raw-{stem}.json")
    failures = loop.failures()
    failing_ops = sorted({
        (" ".join(loop.ops[r.op].argv), ",".join(r.failing_rows))
        for r in loop.results if r.failing_rows
    })
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("info " + json.dumps({
        "workload": args.workload, **info,
        "reports_sha256": hashlib.sha256(
            "".join(loop.digests[i] for i in sorted(loop.digests)).encode()).hexdigest(),
        "failing_ops": [f"{argv} (rows {rows})" for argv, rows in failing_ops],
        "failure_kinds": Counter(r.error for r in failures),
        "failures": [f"{' '.join(loop.ops[r.op].argv)}: {r.error}" for r in failures[:20]],
    }, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(loop.results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
