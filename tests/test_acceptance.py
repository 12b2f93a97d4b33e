"""End-to-end acceptance battery.

Each test is one headline property of the library, run at desk scale; the
`pytest -v` report shows one pass/fail line per criterion.
"""
import numpy as np
import pytest

from vandiejen import (
    Coupling,
    PhasePoint,
    asymptotics,
    sample,
)
from vandiejen.asymptotics import (
    exponential_summary,
    flow_eigenvalues,
    linear_summary,
    sample_spec,
)
from vandiejen.checks import BATTERIES
from vandiejen.dynamics import projection_flow
from vandiejen.lax import lax_matrix
from vandiejen.linalg import principal_minors

from conftest import (
    det_cofactor,
    flow_states,
    hyperbolic_cauchy_det,
    record_returns,
    trace_power_observable,
)

G = Coupling(0.7, 0.4)
SEEDS = range(50)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, detail


def _battery_worst(battery, points, columns=None, **options):
    """(verdict, worst) over the points for the battery's checks, or for those
    of its checks whose column is in `columns`; the worst value of a column is
    its largest, or its smallest for a lower bound."""
    entry = BATTERIES[battery]
    checks = [c for c in entry.checks if columns is None or c.column in columns]
    rows = [entry.residuals(p, G, **options) for p in points]
    worst = {c.column: (min if c.lower else max)(r[c.column] for r in rows) for c in checks}
    return all(c.holds(worst) for c in checks), worst


def test_acceptance_lax_structure():
    points = [sample(n, seed=seed) for n in (1, 2, 3, 4) for seed in SEEDS]
    columns = ("hermiticity", "det_minus_one", "min_eigenvalue", "pairing", "trace_minus_2h")
    ok, worst = _battery_worst("lax-check", points, columns)
    _report("lax-structure", ok, str(worst))


def test_acceptance_commutation_relation():
    points = [sample(n, seed=seed) for n in (1, 2, 3, 4) for seed in SEEDS]
    ok, worst = _battery_worst("lax-check", points, ("commutation",))
    _report("commutation-relation", ok, f"worst rel residual {worst['commutation']:.3e}")


def test_acceptance_duality_identities():
    points = [sample(n, seed=seed) for n in (1, 2, 3) for seed in range(10)]
    ok, worst = _battery_worst("duality", points)
    _report("duality-identities", ok, str(worst))


def test_acceptance_cauchy_determinant():
    # the direct determinant is evaluated in extended precision so that
    # near-singular draws don't contaminate the reference
    from mpmath import mp

    def mp_direct(alpha, xi, eta):
        with mp.workdps(40):
            m = len(xi)
            mat = mp.matrix(m, m)
            for j in range(m):
                for k in range(m):
                    mat[j, k] = mp.sinh(1j * mp.mpf(alpha)) / mp.sinh(
                        1j * mp.mpf(alpha) + mp.mpf(xi[j]) - mp.mpf(eta[k])
                    )
            return complex(mp.det(mat))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(200):
        m = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.2, 1.4))
        xi = rng.uniform(-4, 4, m)
        eta = rng.uniform(-4, 4, m)
        ref = mp_direct(alpha, xi, eta)
        val = hyperbolic_cauchy_det(alpha, xi, eta)
        worst = max(worst, abs(val - ref) / max(abs(ref), 1e-30))
    _report("cauchy-determinant", worst <= 1e-9, f"worst rel error {worst:.3e}")


def test_acceptance_propagators_and_conservation():
    # the flow command's battery: its propagator gap against the table's bound,
    # and conservation along the projection states of its rows
    battery = BATTERIES["flow-both"]
    (gap_check,) = battery.checks
    grid = [0.0, 1.0, 2.5, 5.0]
    worst_gap, worst_cons, worst_group, passed = 0.0, 0.0, 0.0, True
    for n in (1, 2, 3):
        for seed in (3, 7):
            p = sample(n, seed=seed)
            columns = battery.residuals(grid, p, G)
            passed = passed and columns["passed"].all()
            worst_gap = max(worst_gap, columns[gap_check.column].max())
            b0 = lax_matrix(p, G)
            refs = [b0.energy] + [trace_power_observable(b0, k) for k in (2, 3)]
            for s in flow_states(columns, n)[1:]:
                bt = lax_matrix(PhasePoint.from_vector(s), G)
                vals = [bt.energy] + [trace_power_observable(bt, k) for k in (2, 3)]
                worst_cons = max(
                    worst_cons,
                    max(abs(v - r) / abs(r) for v, r in zip(vals, refs)),
                )
            one = projection_flow(p, G, 3.0)
            two = projection_flow(projection_flow(p, G, 1.2), G, 1.8)
            worst_group = max(worst_group, np.abs(one.as_vector() - two.as_vector()).max())
    ok = passed and worst_gap <= gap_check.bound and worst_cons <= 1e-8 and worst_group <= 1e-7
    _report(
        "propagators-and-conservation", ok,
        f"gap {worst_gap:.3e} conservation {worst_cons:.3e} group {worst_group:.3e}",
    )


def test_acceptance_scattering():
    points = [sample(n, seed=seed) for n in (1, 2, 3) for seed in (2, 5)]
    ok, worst = _battery_worst("scatter", points)
    # S(W_-) = W_+ is held to the composite route's bound here, tighter than the CLI's
    ok = ok and worst["scattering_consistency"] <= 1e-12
    _report("scattering", ok, str(worst))


def test_acceptance_canonicity():
    ok, worst = _battery_worst("brackets", [sample(n, seed=4) for n in (1, 2)], step=1e-5)
    # the step-halving ratio of the largest canonicity column is measured in
    # the truncation-dominated regime
    p = sample(2, seed=12)
    residuals = BATTERIES["brackets"].residuals
    columns = ("action_action", "angle_angle", "cross_deviation")
    coarse, fine = (max(residuals(p, G, step=h)[c] for c in columns) for h in (2e-3, 1e-3))
    ratio = coarse / fine
    _report("canonicity", ok and 3.5 <= ratio <= 4.5, f"{worst} ratio {ratio:.2f}")


def test_acceptance_exponential_flow_asymptotics():
    worst_rec, worst_tri = 0.0, 0.0
    ok = True
    for size in (2, 3, 4, 5):
        for seed in range(20):
            spec = sample_spec(size, seed=seed)
            assert spec.gap >= 0.3
            for t in (8.0, 10.0):
                flow_eigenvalues(spec, t)  # modulus ordering must hold
            late = exponential_summary(spec, np.arange(6.0, 12.1, 1.0))
            # the recovery on the CLI's default grid: on the later grid
            # above, some size-2 remainders sit below the fit floor throughout
            row = exponential_summary(spec, np.arange(4.0, 10.5, 1.0))
            ok = ok and late["passed"] and row["passed"]
            worst_rec = max(worst_rec, float(row["p_recovery_rel_err"]))
        tri = np.triu(0.3 * np.ones((size, size))) + np.eye(size)
        p_tri = asymptotics._p_from_minors(*principal_minors(tri))
        worst_tri = max(worst_tri, float(np.abs(p_tri).max()))
    (recovery,) = BATTERIES["asymptotics-exponential"].checks
    ok = ok and worst_rec <= recovery.bound and worst_tri <= 1e-12
    _report(
        "exponential-flow-asymptotics", ok,
        f"recovery {worst_rec:.3e} triangular {worst_tri:.3e}",
    )


def test_acceptance_linear_flow_asymptotics(monkeypatch):
    fits = record_returns(monkeypatch, asymptotics, "_decay_orders")  # per component
    ok = True
    detail = []
    for size in (2, 3, 4):
        spec = sample_spec(size, seed=31 + size, kind="linear")
        ok = ok and linear_summary(spec, np.array([10.0, 15.0, 20.0]))["passed"]
        ok = ok and linear_summary(spec, np.array([10.0, 15.0, 20.0, 30.0, 40.0]))["passed"]
        orders, orders_without_alpha = fits[-2:]
        ok = ok and np.nanmax(np.abs(orders - 2.0)) <= 0.3
        ok = ok and np.nanmax(np.abs(orders_without_alpha - 1.0)) <= 0.3
        detail.append(
            f"N={size} order {np.nanmean(orders):.2f}/{np.nanmean(orders_without_alpha):.2f}"
        )
    _report("linear-flow-asymptotics", ok, " ".join(detail))


def test_acceptance_determinism(tmp_path):
    from vandiejen.cli import EXIT_PASS, main

    ok = True
    for cmd in (["lax-check", "--points", "5"], ["duality", "--points", "3", "--format", "json"]):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        for out in (a, b):
            ok = ok and main(cmd + ["--out", str(out)]) == EXIT_PASS
        ok = ok and a.read_bytes() == b.read_bytes()
    _report("determinism", ok)
