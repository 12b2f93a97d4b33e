import numpy as np
import pytest

from vandiejen.brackets import BracketError, omega_matrix, poisson_brackets, symplectic_residuals
from vandiejen.duality import dual_frame
from vandiejen.dynamics import energy
from vandiejen.phase_space import PhasePoint

from conftest import point

CANONICITY = ("action_action", "angle_angle", "cross_deviation")


def _canonicity_deviation(p, g, step=1e-5):
    row = symplectic_residuals(p, g, step)
    return max(row[c] for c in CANONICITY)


def test_omega_matrix_shape_and_square():
    om = omega_matrix(2)
    np.testing.assert_array_equal(om @ om, -np.eye(4))


def test_canonical_pairs(g):
    # {xi_a, eta_b} = delta_ab and {xi_a, xi_b} = {eta_a, eta_b} = 0
    table = poisson_brackets(lambda q: q.as_vector(), point(2, seed=3))
    assert np.abs(table - omega_matrix(2)).max() <= 1e-9


def test_energy_self_bracket_vanishes(g):
    table = poisson_brackets(lambda q: energy(q, g)[:, None], point(2, seed=5))
    assert table[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_dual_angles_commute_with_energy(g):
    # theta_hat are conserved quantities, so {theta_hat, H} = 0
    table = poisson_brackets(
        lambda q: np.concatenate([dual_frame(q, g).image.xi, energy(q, g)[:, None]], axis=-1),
        point(2, seed=7),
    )
    assert np.abs(table[:2, 2]).max() <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_dual_coordinates_are_canonical(n, g):
    assert _canonicity_deviation(point(n, seed=9 + n), g) <= 1e-5


def test_canonicity_deviation_is_second_order(g):
    # in the truncation-dominated step regime, halving the step divides the
    # deviation by ~4 (central differences are second order)
    p = point(2, seed=12)
    coarse = _canonicity_deviation(p, g, step=2e-3)
    fine = _canonicity_deviation(p, g, step=1e-3)
    assert 3.5 <= coarse / fine <= 4.5


def test_spectral_map_reverses_the_form(g):
    for n in (1, 2):
        assert symplectic_residuals(point(n, seed=14 + n), g)["antisymplectic"] <= 1e-4


def test_flow_preserves_the_form(g):
    assert symplectic_residuals(point(2, seed=17), g)["flow_symplectic"] <= 1e-4


def test_double_spectral_map_has_identity_jacobian(g):
    from vandiejen.brackets import _map_jacobian

    p = point(2, seed=19)
    j = _map_jacobian(
        lambda x: dual_frame(dual_frame(PhasePoint.from_vector(x), g).image, g.hat()).image.as_vector(),
        p, step=1e-5,
    )
    assert np.abs(j - np.eye(4)).max() <= 1e-4


def test_rejects_point_near_boundary(g):
    squeezed = PhasePoint(xi=[1.0, 1.0 - 2e-5], eta=[0.0, 0.0])
    with pytest.raises(BracketError):
        poisson_brackets(lambda q: q.as_vector(), squeezed)


def test_rejects_bad_step(g):
    with pytest.raises(BracketError):
        poisson_brackets(lambda q: q.as_vector(), point(1, seed=1), step=0.0)


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
def test_bracket_row_rejects_step_that_is_not_finite_and_positive(step, g):
    # a negative step would also turn the interior margin negative and pass it
    with pytest.raises(BracketError, match="finite and positive"):
        symplectic_residuals(point(2, seed=1), g, step)
    with pytest.raises(BracketError, match="finite and positive"):
        poisson_brackets(lambda q: q.as_vector(), point(2, seed=1), step)
