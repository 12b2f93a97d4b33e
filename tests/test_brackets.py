import numpy as np
import pytest

from vandiejen.brackets import (
    BracketError,
    Observable,
    antisymplectic_check,
    canonicity_suite,
    dual_angle_observable,
    flow_symplectic_check,
    omega_matrix,
    poisson_bracket,
    position_observable,
    rapidity_observable,
)
from vandiejen.dynamics import energy
from vandiejen.phase_space import PhasePoint

from conftest import point


def test_omega_matrix_shape_and_square():
    om = omega_matrix(2)
    np.testing.assert_array_equal(om @ om, -np.eye(4))


def test_canonical_pairs(g):
    p = point(2, seed=3)
    for a in range(2):
        for b in range(2):
            val = poisson_bracket(position_observable(a), rapidity_observable(b), p)
            assert val == pytest.approx(1.0 if a == b else 0.0, abs=1e-9)
    assert poisson_bracket(position_observable(0), position_observable(1), p) == pytest.approx(
        0.0, abs=1e-9
    )


def test_energy_self_bracket_vanishes(g):
    p = point(2, seed=5)
    h = Observable("energy", lambda q: energy(q, g))
    assert poisson_bracket(h, h, p) == pytest.approx(0.0, abs=1e-10)


def test_dual_angles_commute_with_energy(g):
    # theta_hat are conserved quantities, so {theta_hat, H} = 0
    p = point(2, seed=7)
    h = Observable("energy", lambda q: energy(q, g))
    for a in range(2):
        assert poisson_bracket(dual_angle_observable(a, g), h, p) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_dual_coordinates_are_canonical(n, g):
    report = canonicity_suite(point(n, seed=9 + n), g)
    assert report.max_deviation <= 1e-5


def test_canonicity_deviation_is_second_order(g):
    # in the truncation-dominated step regime, halving the step divides the
    # deviation by ~4 (central differences are second order)
    p = point(2, seed=12)
    coarse = canonicity_suite(p, g, step=2e-3).max_deviation
    fine = canonicity_suite(p, g, step=1e-3).max_deviation
    assert 3.5 <= coarse / fine <= 4.5


def test_spectral_map_reverses_the_form(g):
    for n in (1, 2):
        assert antisymplectic_check(point(n, seed=14 + n), g) <= 1e-4


def test_flow_preserves_the_form(g):
    assert flow_symplectic_check(point(2, seed=17), g, s=1.0) <= 1e-4


def test_double_spectral_map_has_identity_jacobian(g):
    from vandiejen.brackets import _map_jacobian
    from vandiejen.duality import duality_map

    p = point(2, seed=19)
    j = _map_jacobian(
        lambda q: duality_map(duality_map(q, g), g.hat()).as_vector(), p, step=1e-5
    )
    assert np.abs(j - np.eye(4)).max() <= 1e-4


def test_rejects_point_near_boundary(g):
    squeezed = PhasePoint(xi=[1.0, 1.0 - 2e-5], eta=[0.0, 0.0])
    with pytest.raises(BracketError):
        poisson_bracket(position_observable(0), rapidity_observable(0), squeezed)


def test_rejects_bad_step(g):
    with pytest.raises(BracketError):
        poisson_bracket(position_observable(0), rapidity_observable(0), point(1, seed=1), step=0.0)
