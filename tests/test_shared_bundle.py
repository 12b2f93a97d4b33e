"""One Lax bundle per phase point: each route at a point reads the bundle that
lax_matrix built there, and the shared routes give exactly the numbers of the
stand-alone ones."""
import numpy as np
import pytest

from vandiejen import Coupling, _kernels, brackets, duality, lax, scattering

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
        (brackets.symplectic_residuals, lambda n: 4 * n),
        (lambda p, g: scattering.residual_trace(p, g, [1.0, 2.0, 3.0]), lambda n: 1),
    ],
    ids=["lax_matrix", "duality_row", "scatter_row", "brackets_row", "residual_trace"],
)
@pytest.mark.parametrize("n", [2, 3])
def test_z_kernel_runs_once_per_bundle(z_calls, unit, expected, n):
    unit(point(n, seed=4), COUPLINGS[0])
    assert len(z_calls) == expected(n)


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_bracket_row_equals_the_stand_alone_checks(g, n):
    p = point(n, seed=2)
    row = brackets.symplectic_residuals(p, g)
    rep = brackets.canonicity_suite(p, g)
    assert row["action_action"] == rep.action_action
    assert row["angle_angle"] == rep.angle_angle
    assert row["cross_deviation"] == rep.cross_deviation
    assert row["antisymplectic"] == brackets.antisymplectic_check(p, g)
    assert row["flow_symplectic"] == brackets.flow_symplectic_check(p, g)


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_duality_row_equals_the_stand_alone_routes(g, n):
    p = point(n, seed=2)
    row = duality.identity_residuals(p, g)
    frame = duality.dual_frame(p, g)
    back = duality.duality_map(duality.duality_map(p, g), g.hat())
    assert row["involution"] == float(np.abs(back.as_vector() - p.as_vector()).max())
    l_hat, _, pushforward = duality.dual_lax(p, g)
    assert row["dual_lax_pushforward"] == float(
        np.abs(l_hat - pushforward).max() / np.abs(l_hat).max()
    )
    closed = [duality.dual_z_closed_form(frame.theta_hat, g.hat(), c) for c in range(n)]
    assert row["z_closed_form"] == float(np.abs(np.array(closed) - frame.z_hat).max())


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
def test_bundle_reads_f_and_energy_from_its_coefficients(g):
    p = point(3, seed=6)
    b = lax.lax_matrix(p, g)
    np.testing.assert_array_equal(b.f, lax.f_vector(p, g))
    assert b.energy == lax.energy(p, g)
    np.testing.assert_array_equal(b.c, lax.conjugation_matrix(3))
