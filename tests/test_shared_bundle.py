"""One Lax bundle per phase point: each route at a point reads the bundle that
lax_matrix built there, and a row's shared routes give exactly the numbers of
the public entry points.  Likewise one spectrum per flow spec and time."""
import numpy as np
import pytest

from vandiejen import Coupling, _kernels, asymptotics, brackets, duality, lax, scattering
from vandiejen.checks import ASYMPTOTICS

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
        (lambda p, g: scattering.residual_trace(p, g, [1.0, 2.0, 3.0]), lambda n: 1),
    ],
    ids=["lax_matrix", "duality_row", "scatter_row", "brackets_row", "residual_trace"],
)
@pytest.mark.parametrize("n", [2, 3])
def test_z_kernel_runs_once_per_bundle(z_calls, unit, expected, n):
    unit(point(n, seed=4), COUPLINGS[0])
    assert len(z_calls) == expected(n)


@pytest.mark.parametrize("kind, extra", [("linear", 0), ("exponential", 2)])
@pytest.mark.parametrize("grid", [[4.0, 5.0], np.arange(4.0, 10.5, 1.0)], ids=["2", "7"])
def test_asymptotics_row_solves_each_spectrum_once(monkeypatch, kind, extra, grid):
    # the exponential row adds the two times of the p recovery
    calls = []
    original = asymptotics.general_eig

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(asymptotics, "general_eig", counted)
    ASYMPTOTICS[kind].residuals(asymptotics.sample_spec(4, seed=2, kind=kind), grid)
    assert len(calls) == len(grid) + extra


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_duality_row_equals_the_stand_alone_routes(g, n):
    p = point(n, seed=2)
    row = duality.identity_residuals(p, g)
    back = duality.duality_map(duality.duality_map(p, g), g.hat())
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
