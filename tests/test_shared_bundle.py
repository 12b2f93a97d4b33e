"""One Lax bundle per phase point: each route at a point reads the bundle that
lax_matrix built there, and a row's shared routes give exactly the numbers of
the public entry points.  Likewise one spectrum per flow spec and time."""
import numpy as np
import pytest

from vandiejen import Coupling, _kernels, asymptotics, brackets, duality, lax, scattering
from vandiejen.checks import BATTERIES
from vandiejen.cli import main

from conftest import point

COUPLINGS = [Coupling(0.7, 0.4), Coupling(1.3, 0.2)]


@pytest.fixture
def z_calls(monkeypatch):
    """Counts calls of the z kernel; every caller reaches it through `_kernels`."""
    calls = []
    original = _kernels.z_coeffs

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "z_coeffs", counted)
    return calls


@pytest.mark.parametrize(
    "unit, expected",
    [
        (lax.lax_matrix, lambda n: 1),
        (duality.identity_residuals, lambda n: 2),
        (scattering.identity_residuals, lambda n: 1),
        (brackets.symplectic_residuals, lambda n: 1),  # one stack of 4n stencil points
    ],
    ids=["lax_matrix", "duality_row", "scatter_row", "brackets_row"],
)
@pytest.mark.parametrize("n", [2, 3])
def test_z_kernel_runs_once_per_bundle(z_calls, unit, expected, n):
    unit(point(n, seed=4), COUPLINGS[0])
    assert len(z_calls) == expected(n)


@pytest.mark.parametrize("points", [1, 20])
@pytest.mark.parametrize(
    "command, expected", [("lax-check", 1), ("duality", 2), ("scatter", 1), ("brackets", 1)]
)
def test_battery_runs_the_z_kernel_once_per_stack(z_calls, command, expected, points, tmp_path):
    # every sampled point in one stack: the count does not grow with --points
    argv = [command, "--n", "2", "--points", str(points), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(z_calls) == expected


@pytest.mark.parametrize("kind", ["linear", "exponential"])
@pytest.mark.parametrize("grid", [[4.0, 5.0], np.arange(4.0, 10.5, 1.0)], ids=["2", "7"])
def test_asymptotics_row_solves_each_spectrum_once(monkeypatch, kind, grid):
    # one eigensolve for the whole stack of specs: each distinct time of the
    # grid once, the exponential row's p recovery reading the same solve
    calls = []
    original = asymptotics.general_eig

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(asymptotics, "general_eig", counted)
    specs = [asymptotics.sample_spec(4, seed=seed, kind=kind) for seed in (2, 3, 4)]
    stack = asymptotics.FlowSpec(
        np.stack([s.m for s in specs]), np.stack([s.d for s in specs]), kind
    )
    BATTERIES[f"asymptotics-{kind}"].residuals(stack, grid)
    assert [a.shape for a in calls] == [(3, len(grid), 4, 4)]


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_duality_row_equals_the_stand_alone_routes(g, n):
    p = point(n, seed=2)
    row = duality.identity_residuals(p, g)
    back = duality.dual_frame(duality.dual_frame(p, g).image, g.hat()).image
    assert row["involution"] == float(np.abs(back.as_vector() - p.as_vector()).max())


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
def test_bundle_reads_f_and_energy_from_its_coefficients(g):
    p = point(3, seed=6)
    b = lax.lax_matrix(p, g)
    top = np.exp(p.eta / 2.0) * np.sqrt(b.u)
    bottom = np.exp(-p.eta / 2.0) * b.z.conj() / np.sqrt(b.u)
    np.testing.assert_array_equal(b.f, np.concatenate([top, bottom]))
    assert b.energy == lax.energy(p, g)
    np.testing.assert_array_equal(b.c, lax.conjugation_matrix(3))
