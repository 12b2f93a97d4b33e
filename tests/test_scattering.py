import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.duality import dual_frame
from vandiejen.scattering import (
    ScatteringError,
    asymptotic_data,
    delta_vector,
    identity_residuals,
    scattering_map,
    upsilon,
    upsilon_minus_inverse,
)
from vandiejen.checks import BATTERIES
from vandiejen.phase_space import Coupling, PhasePoint

from conftest import point


def test_delta_single_particle_closed_form(g):
    xi = [0.7]
    expect = 0.5 * np.log1p(np.sin(g.nu) ** 2 / np.sinh(1.4) ** 2)
    assert delta_vector(xi, g)[0] == pytest.approx(expect, rel=1e-14)


def test_delta_vanishes_far_away(g):
    assert abs(delta_vector([50.0], g)[0]) < 1e-40


def test_delta_matches_reversed_summation_oracle(g):
    # re-sum the two-body terms in the opposite loop order
    xi = np.array([2.1, 1.3, 0.5])
    delta = delta_vector(xi, g)
    for c in range(3):
        val = 0.5 * np.log1p(np.sin(g.nu) ** 2 / np.sinh(2 * xi[c]) ** 2)
        for d in reversed(range(3)):
            if d == c:
                continue
            sign = -0.5 if d < c else 0.5
            val += sign * np.log1p(np.sin(g.mu) ** 2 / np.sinh(xi[c] - xi[d]) ** 2)
            val += 0.5 * np.log1p(np.sin(g.mu) ** 2 / np.sinh(xi[c] + xi[d]) ** 2)
        assert delta[c] == pytest.approx(val, rel=1e-13)


def test_delta_rejects_unordered(g):
    with pytest.raises(ScatteringError):
        delta_vector([0.5, 1.0], g)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "xi", [[-0.5], [0.0], [[0.7], [0.0]], [1.0, 0.0], [1.0, -0.5]], ids=str
)
def test_delta_rejects_a_non_positive_entry_at_every_size(xi, g):
    # one particle too: 0 would divide by sinh(0) and warn, -0.5 would pass unnoticed
    with pytest.raises(ScatteringError, match="strictly descending positive"):
        delta_vector(xi, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minor_routes_match_closed_form(n, g):
    data = asymptotic_data(point(n, seed=5 + n), g)
    assert np.abs(data.minor_route_plus - data.lambda_plus).max() <= 1e-9
    assert np.abs(data.minor_route_minus - data.lambda_minus).max() <= 1e-9


def graded_point(n, gaps, seed):
    """A point past the sampler's box: xi_n = 0.3 + U(0, 0.2), then n - 1 gaps
    U(*gaps) upwards, and eta U(-1.5, 1.5), from one default_rng(seed)."""
    rng = np.random.default_rng(seed)
    base = 0.3 + rng.uniform(0.0, 0.2)
    steps = rng.uniform(*gaps, n - 1)
    eta = rng.uniform(-1.5, 1.5, n)
    return PhasePoint(xi=base + np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]]), eta=eta)


@pytest.mark.parametrize("mu, nu", [(0.7, 0.4), (1.3, 0.2), (2.0, 1.0), (0.5, 1.1)])
@pytest.mark.parametrize("gaps", [(0.3, 0.4), (0.35, 0.5)], ids=str)
def test_minor_routes_hold_at_sixteen_graded_particles(gaps, mu, nu):
    # xi_1 lies in 5.5..6.8 here, and L_hat = B* B spans e^{4 xi_1}: minors
    # taken as determinants of L_hat's blocks were off by up to 3.1e-7, where
    # a QR of the row-sorted factor B holds them to 1e-11
    points = [graded_point(16, gaps, seed) for seed in (1, 2, 3)]
    stack = PhasePoint(xi=np.stack([p.xi for p in points]), eta=np.stack([p.eta for p in points]))
    columns = identity_residuals(stack, Coupling(mu, nu))
    bounds = {c.column: c.bound for c in BATTERIES["scatter"].checks}
    for route in ("minor_route_plus", "minor_route_minus"):
        assert bounds[route] == 1e-9
        assert columns[route].max() <= bounds[route], (route, columns[route])


def test_sum_identity(g):
    data = asymptotic_data(point(3, seed=9), g)
    npt.assert_allclose(data.lambda_plus + data.lambda_minus, data.delta, atol=1e-9)
    npt.assert_allclose(data.theta_plus, -data.theta_minus)


def test_single_particle_lambda_plus_closed_form(g):
    p = point(1, seed=11)
    frame = dual_frame(p, g)
    data = asymptotic_data(p, g)
    th = frame.theta_hat[0]
    expect = 0.5 * frame.lambda_hat[0] + 0.25 * np.log1p(np.sin(g.nu) ** 2 / np.sinh(2 * th) ** 2)
    assert data.lambda_plus[0] == pytest.approx(expect, rel=1e-12)


def test_scattering_map_negates_rapidities(g):
    zeta = PhasePoint.__new__(PhasePoint)
    object.__setattr__(zeta, "xi", np.array([0.3, -0.2]))
    object.__setattr__(zeta, "eta", np.array([-1.5, -0.4]))
    out = scattering_map(zeta, g)
    npt.assert_array_equal(out.eta, [1.5, 0.4])


def test_scattering_map_single_particle(g):
    zeta = PhasePoint.__new__(PhasePoint)
    object.__setattr__(zeta, "xi", np.array([0.4]))
    object.__setattr__(zeta, "eta", np.array([-1.2]))
    out = scattering_map(zeta, g)
    assert out.xi[0] == pytest.approx(-0.4 + delta_vector([0.6], g)[0], rel=1e-13)
    assert out.eta[0] == pytest.approx(1.2)


def test_scattering_map_composed_with_reverse_is_identity(g):
    zeta = PhasePoint.__new__(PhasePoint)
    object.__setattr__(zeta, "xi", np.array([0.9, 0.1]))
    object.__setattr__(zeta, "eta", np.array([-2.0, -0.7]))
    out = scattering_map(zeta, g)
    back_xi = -out.xi + delta_vector(out.eta / 2.0, g)
    back_eta = -out.eta
    npt.assert_allclose(back_xi, zeta.xi, atol=1e-12)
    npt.assert_allclose(back_eta, zeta.eta)


def test_scattering_map_rejects_bad_rapidities(g):
    zeta = PhasePoint.__new__(PhasePoint)
    object.__setattr__(zeta, "xi", np.array([0.3]))
    object.__setattr__(zeta, "eta", np.array([0.5]))
    with pytest.raises(ScatteringError):
        scattering_map(zeta, g)


def test_wave_maps_factor_through_duality(g):
    p = point(2, seed=13)
    q = dual_frame(p, g).image
    data = asymptotic_data(p, g)
    for sign in (1, -1):
        w = data.wave(sign)
        v = upsilon(q, g, sign)
        npt.assert_allclose(w.xi, v.xi, atol=1e-10)
        npt.assert_allclose(w.eta, v.eta, atol=1e-10)


def test_scattering_connects_wave_maps(g):
    p = point(2, seed=15)
    data = asymptotic_data(p, g)
    w_minus, w_plus = data.wave(-1), data.wave(1)
    out = scattering_map(w_minus, g)
    npt.assert_allclose(out.xi, w_plus.xi, atol=1e-12)
    npt.assert_allclose(out.eta, w_plus.eta, atol=1e-12)


def test_upsilon_minus_inverse_round_trip(g):
    q = point(2, seed=17)
    zeta = upsilon(q, g, -1)
    back = upsilon_minus_inverse(zeta, g)
    npt.assert_allclose(back.xi, q.xi, atol=1e-12)
    npt.assert_allclose(back.eta, q.eta, atol=1e-12)


def test_residual_trace_mirrored_time_hits_minus_branch(g):
    p = point(2, seed=7)
    from vandiejen.dynamics import projection_flow

    data = asymptotic_data(p, g)
    t = 30.0
    q = projection_flow(p, g, -t)
    res = q.xi + t * np.sinh(data.theta_minus) - data.lambda_minus
    assert np.abs(res).max() < 5e-3
    assert np.abs(q.eta - data.theta_minus).max() < 5e-3


def test_wave_map_rejects_bad_sign(g):
    with pytest.raises(ScatteringError):
        asymptotic_data(point(1, seed=1), g).wave(0)
