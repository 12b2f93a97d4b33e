import re

import numpy as np
import numpy.testing as npt
import pytest

from vandiejen import _kernels, dynamics
from vandiejen.duality import dual_frame
from vandiejen.dynamics import (
    RK_ABS_TOL,
    RK_REL_TOL,
    DynamicsError,
    flow_residuals,
    projection_flow,
    rk_flow,
    vector_field,
)
from vandiejen.lax import LaxBundle, energy, lax_matrix
from vandiejen.phase_space import Coupling, PhasePoint, PhaseSpaceError

from conftest import (
    allocating_field, flow_states, graded_point, overflow_point, point, spread_point,
)


# The oracle: every flow quantity rebuilt and eigensolved in mpmath at dps digits.
def _flow_position_mp(bundle: LaxBundle, t: float, dps: int):
    """High-precision route: rebuild all flow data in mpmath and eigensolve there.

    Returns (xi_t descending, xi_dot) as float arrays; used when the flow
    matrix exponent span exceeds what double precision can resolve.
    """
    from mpmath import mp

    n = bundle.n
    g = bundle.coupling
    with mp.workdps(dps):
        mu, nu = mp.mpf(g.mu), mp.mpf(g.nu)
        xi = [mp.mpf(x) for x in bundle.point.xi]
        eta = [mp.mpf(x) for x in bundle.point.eta]
        z = []
        for a in range(n):
            val = -mp.sinh(1j * nu + 2 * xi[a]) / mp.sinh(2 * xi[a])
            for c in range(n):
                if c == a:
                    continue
                for s in (xi[a] - xi[c], xi[a] + xi[c]):
                    val *= mp.sinh(1j * mu + s) / mp.sinh(s)
            z.append(val)
        u = [abs(v) for v in z]
        f = [mp.e ** (eta[a] / 2) * mp.sqrt(u[a]) for a in range(n)]
        f += [mp.e ** (-eta[a] / 2) * mp.conj(z[a]) / mp.sqrt(u[a]) for a in range(n)]
        lam = xi + [-x for x in xi]
        big = 2 * n
        ell = mp.matrix(big, big)
        for k in range(big):
            for l in range(big):
                ckl = 1 if (k + n == l or l + n == k) else 0
                num = 1j * mp.sin(mu) * f[k] * mp.conj(f[l]) + 1j * mp.sin(mu - nu) * ckl
                ell[k, l] = num / mp.sinh(1j * mu + lam[k] - lam[l])
        b = ell - ell ** -1
        beta, v = mp.eighe(b)
        el = mp.diag([mp.e ** lam[k] for k in range(big)])
        tt = mp.mpf(t)
        core = v * mp.diag([mp.e ** (tt * beta[j]) for j in range(big)]) * v.H
        a_mat = el * core * el
        a_mat = (a_mat + a_mat.H) / 2
        w, q = mp.eighe(a_mat)
        widx = sorted(range(big), key=lambda j: w[j])
        dcore = v * mp.diag([beta[j] * mp.e ** (tt * beta[j]) for j in range(big)]) * v.H
        da = el * dcore * el
        xi_t, xi_dot = [], []
        for j in widx[n:][::-1]:
            qj = q[:, j]
            wdot = (qj.H * (da * qj))[0, 0].real
            xi_t.append(float(mp.log(w[j]) / 2))
            xi_dot.append(float(wdot / (2 * w[j])))
    return np.array(xi_t), np.array(xi_dot)


def test_vector_field_matches_finite_difference_gradient(g):
    # xi_dot = dH/d eta, eta_dot = -dH/d xi, checked against central differences
    p = point(3, seed=2)
    xd, ed = vector_field(p, g)
    h = 1e-6
    for a in range(3):
        eta_p = p.eta.copy(); eta_p[a] += h
        eta_m = p.eta.copy(); eta_m[a] -= h
        dh_deta = (energy(PhasePoint(p.xi, eta_p), g) - energy(PhasePoint(p.xi, eta_m), g)) / (2 * h)
        assert xd[a] == pytest.approx(dh_deta, abs=1e-8)
        xi_p = p.xi.copy(); xi_p[a] += h
        xi_m = p.xi.copy(); xi_m[a] -= h
        dh_dxi = (energy(PhasePoint(xi_p, p.eta), g) - energy(PhasePoint(xi_m, p.eta), g)) / (2 * h)
        assert ed[a] == pytest.approx(-dh_dxi, abs=1e-8)


def test_single_particle_rapidity_rate_closed_form(g):
    p = PhasePoint(xi=[0.9], eta=[0.4])
    xd, ed = vector_field(p, g)
    u = energy(PhasePoint(p.xi, [0.0]), g)
    assert xd[0] == pytest.approx(np.sinh(0.4) * u, rel=1e-12)
    y = 2 * p.xi[0]
    interaction = np.sin(g.nu) ** 2 / np.tanh(y) / (np.sin(g.nu) ** 2 + np.sinh(y) ** 2)
    assert ed[0] == pytest.approx(2 * np.cosh(0.4) * u * interaction, rel=1e-10)


def test_zero_rapidity_freezes_positions(g):
    p = PhasePoint(xi=[1.4, 0.6], eta=[0.0, 0.0])
    xd, _ = vector_field(p, g)
    npt.assert_allclose(xd, 0.0, atol=1e-15)


def test_rk_energy_conservation(g):
    p = point(3, seed=5)
    energies = energy(rk_flow(p, g, [0.0, 1.0, 2.5, 4.0]), g)
    e0 = energies[0]
    for e in energies:
        assert abs(e - e0) <= 1e-8 * e0


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 7), (2, 44), (3, 11), (3, 33)])
def test_propagators_agree(n, seed, g):
    p = point(n, seed=seed)
    grid = [0.5, 2.0, 5.0]
    rk = rk_flow(p, g, grid)
    pr = PhasePoint.from_vector(flow_states(flow_residuals(grid, p, g, "projection"), n))
    assert np.abs(rk.xi - pr.xi).max() <= 1e-6
    assert np.abs(rk.eta - pr.eta).max() <= 1e-6


def test_projection_flow_identity_at_zero_time(g):
    p = point(2, seed=9)
    q = projection_flow(p, g, 0.0)
    assert np.abs(q.xi - p.xi).max() <= 1e-10
    assert np.abs(q.eta - p.eta).max() <= 1e-10


def test_projection_flow_group_property(g):
    p = point(2, seed=13)
    one_step = projection_flow(p, g, 3.0)
    two_step = projection_flow(projection_flow(p, g, 1.2), g, 1.8)
    assert np.abs(one_step.xi - two_step.xi).max() <= 1e-7
    assert np.abs(one_step.eta - two_step.eta).max() <= 1e-7


def test_projection_flow_time_reversal(g):
    p = point(2, seed=15)
    back = projection_flow(projection_flow(p, g, 2.0), g, -2.0)
    assert np.abs(back.xi - p.xi).max() <= 1e-8
    assert np.abs(back.eta - p.eta).max() <= 1e-8


def test_projection_conserves_spectrum(g):
    p = point(3, seed=17)
    th0 = dual_frame(p, g).theta_hat
    th1 = dual_frame(projection_flow(p, g, 2.0), g).theta_hat
    assert np.abs(th1 - th0).max() <= 1e-8


def test_analytic_and_finite_difference_rapidities_agree(g):
    # the closed-form rate xi_dot = u sinh(eta) against a central difference in t
    p = point(2, seed=19)
    t, h = 1.5, 1e-5
    q = projection_flow(p, g, t)
    xi_dot = np.asarray(_kernels.u_coeffs(q.xi, g.mu, g.nu)) * np.sinh(q.eta)
    fd = (projection_flow(p, g, t + h).xi - projection_flow(p, g, t - h).xi) / (2 * h)
    assert np.abs(xi_dot - fd).max() <= 1e-6


# (n, mu, nu, seed, t) over four couplings, n = 2..5, both signs of t, and
# exponent spans |t| (beta_max - beta_min) + 4 max|Lam| of 30, 44 (a point where
# the former double-precision eigh route failed `brackets --n 4`), 58, 104, 204,
# 293, 522, 1069 and 1301, the last two beyond the former cap of 600.
ORACLE_CASES = [
    (2, 1.3, 0.2, 1, 2.0),
    (4, 0.7, 0.4, 4, 1.0),
    (3, 2.0, 1.0, 1, -4.0),
    (3, 0.3, 2.5, 2, -6.0),
    (2, 0.7, 0.4, 44, 8.0),
    (5, 2.0, 1.0, 3, 2.0),
    (4, 1.3, 0.2, 2, -8.0),
    (2, 0.3, 2.5, 3, 120.0),
    (3, 0.7, 0.4, 5, -20.0),
]


@pytest.mark.parametrize("n,mu,nu,seed,t", ORACLE_CASES)
def test_projection_flow_matches_mpmath_oracle(n, mu, nu, seed, t):
    g = Coupling(mu, nu)
    p = point(n, seed=seed)
    bundle = lax_matrix(p, g)
    beta = np.linalg.eigvalsh(bundle.matrix - bundle.c @ bundle.matrix @ bundle.c)
    span = abs(t) * np.ptp(beta) + 4 * np.abs(bundle.lam).max()
    xi_ref, xi_dot_ref = _flow_position_mp(bundle, t, int(span / 2.302585) + 30)
    eta_ref = np.arcsinh(xi_dot_ref / np.asarray(_kernels.u_coeffs(xi_ref, mu, nu)))
    q = projection_flow(p, g, t)
    # Error model: the double eigensolve of B (size 2n) is backward stable,
    # |dB| <= 2n eps max|beta|.  That moves each beta_j by as much, hence each
    # position by |t|/2 times it, and the basis V by |dB| / min gap(beta), which
    # moves each log singular value of the graded factor by at most as much.
    # |t| in place of |t|/2 covers the rounding of xi itself, eps |xi| with
    # |xi| <= max|Lam| + |t| max|beta| / 2.  eta = arcsinh(xi_dot / u) is held to
    # the same bound: an error in xi_dot enters divided by u cosh(eta) >= 1.
    eps = np.finfo(float).eps
    bound = 2 * n * eps * np.abs(beta).max() * (1.0 / np.diff(beta).min() + abs(t))
    assert np.abs(q.xi - xi_ref).max() <= bound
    assert np.abs(q.eta - eta_ref).max() <= bound


def test_projection_matches_rk_at_large_exponent_span(g):
    # exponent span 204: the flow matrix's eigenvalues range over about e^{+-100}
    p = point(2, seed=44)
    t = 8.0
    q = projection_flow(p, g, t)
    r = rk_flow(p, g, [t])
    assert np.abs(q.xi - r.xi).max() <= 1e-6
    assert np.abs(q.eta - r.eta).max() <= 1e-6


def test_regular_form_spectrum_matches_flow(g):
    # L_hat diag(e^{2t sinh 2 Theta_hat}) is conjugate, through W = diag(I, J),
    # to the flow matrix in regular form, whose exponent diagonal descends
    p = point(2, seed=7)
    frame = dual_frame(p, g)
    t = 1.0
    flow = frame.dual_matrix() @ np.diag(np.exp(2 * t * np.sinh(2 * frame.big_theta)))
    flow_spec = np.sort(np.linalg.eigvals(flow).real)
    b = lax_matrix_eigendata(p, g, t)
    assert np.abs(flow_spec - b).max() <= 1e-8 * np.abs(b).max()


def lax_matrix_eigendata(p, g, t):
    bundle = lax_matrix(p, g)
    bmat = bundle.matrix - np.linalg.inv(bundle.matrix)
    beta, v = np.linalg.eigh(bmat)
    core = v @ np.diag(np.exp(t * beta)) @ v.conj().T
    a = np.exp(2 * bundle.lam)[:, None] * core
    return np.sort(np.linalg.eigvals(a).real)


def test_overflow_cap_raises(g):
    with pytest.raises(DynamicsError):
        projection_flow(point(2, seed=3), g, 1e6)


# 1.5 DBL_MAX / vmax: t beta stays finite, t vmax and the range overflow
@pytest.mark.parametrize("t", [1e308, -1e308, "window"])
def test_a_time_past_the_double_range_fails_at_the_range_cap(g, t):
    # t beta or the exponent range overflows to inf, and the range cap names
    # it; RuntimeWarnings are errors here
    if t == "window":
        vmax = 2.0 * np.sinh(2.0 * dual_frame(point(2, seed=3), g).theta_hat.max())
        t = float(np.finfo(float).max / vmax * 1.5)
    message = f"flow exponent range inf exceeds the double range cap at t={t}"
    with pytest.raises(DynamicsError, match=re.escape(message)):
        projection_flow(point(2, seed=3), g, t)
    out = flow_residuals([1.0, t], point(2, seed=3), g, "projection")
    assert out["passed"].tolist() == [True, False]
    assert out["error"] == f"projection step failed at t={t:g}: {message}"


def test_projection_outcomes_keep_the_times_before_a_failure(g):
    # the projection route's outcome per time: a state, or a failed row of nan
    p, grid = point(2, seed=3), [0.0, 1.0, 1e6, 2.0]
    out = flow_residuals(grid, p, g, "projection")
    assert out["passed"].tolist() == [True, True, False, True]
    assert out["error"].startswith("projection step failed at t=1e+06: ")
    assert "t=1000000" in out["error"]
    states = flow_states(out, 2)
    assert np.isnan(states[2]).all() and np.isnan(out["energy"][2])
    ref = flow_states(flow_residuals([0.0, 1.0, 2.0], p, g, "projection"), 2)
    npt.assert_array_equal(states[[0, 1, 3]], ref)


def test_a_failing_time_keeps_its_message_and_the_others_flow():
    # flow --n 6 --mu 1.3 --nu 0.2 on its default grid fails at t = 5 alone
    p, g, grid = point(6, seed=1), Coupling(1.3, 0.2), np.arange(11) * 0.5
    out = flow_residuals(grid, p, g, "projection")
    assert out["error"] == (
        "projection step failed at t=5: "
        "flow exponent range 727.2 exceeds the double range cap at t=5.0"
    )
    assert out["passed"].tolist() == [True] * 10 + [False]
    states = flow_states(out, 6)
    npt.assert_array_equal(states[0], p.as_vector())
    for t, s in zip(grid[1:-1], states[1:-1]):
        npt.assert_array_equal(s, projection_flow(p, g, t).as_vector())


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_non_finite_time_fails_alone(t, g):
    # one non-finite time among finite ones fails the whole grid, before
    # anything flows, for every method and for projection_flow, by the one
    # time rule of phase_space.time_grid, which names the time
    p = point(2, seed=3)
    for method in ("projection", "runge-kutta", "both"):
        with pytest.raises(PhaseSpaceError, match=f"^non-finite time {t}$"):
            flow_residuals([1.0, t, 2.0], p, g, method)
    with pytest.raises(PhaseSpaceError, match=f"^non-finite time {t}$"):
        projection_flow(p, g, t)


def test_a_lost_rank_fails_its_time_alone(g, monkeypatch):
    # the flow's SVD returns a zero n-th singular value for one unit of its
    # stack: at the grid's time t = 2 (unit 1 of the moving times 1, 2, 3),
    # that row alone fails, by the lost-rank check ahead of the collision its
    # placeholder positions also make, and the other rows keep their bits
    p, grid = point(2, seed=3), [0.0, 1.0, 2.0, 3.0]
    ref, svd = flow_residuals(grid, p, g, "projection"), np.linalg.svd

    def losing_rank(unit):
        def patched(a):
            u, sigma, vh = svd(a)
            sigma[unit, p.n - 1] = 0.0
            return u, sigma, vh
        return patched

    monkeypatch.setattr(np.linalg, "svd", losing_rank(1))
    out = flow_residuals(grid, p, g, "projection")
    message = "flow factor lost rank (roundoff) at t=2.0"
    assert out["passed"].tolist() == [True, True, False, True]
    assert out["error"] == f"projection step failed at t=2: {message}"
    states, kept = flow_states(out, 2), [0, 1, 3]
    assert np.isnan(states[2]).all() and np.isnan(out["energy"][2])
    npt.assert_array_equal(states[kept], flow_states(ref, 2)[kept])
    npt.assert_array_equal(out["energy"][kept], ref["energy"][kept])
    monkeypatch.setattr(np.linalg, "svd", losing_rank(0))
    with pytest.raises(DynamicsError, match=f"^{re.escape(message)}$"):
        projection_flow(p, g, 2.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_rk_rejects_a_non_finite_grid(t, g):
    with pytest.raises(PhaseSpaceError, match=f"^non-finite time {t}$"):
        rk_flow(point(2, seed=3), g, [0.0, t, 1.0])


def test_an_empty_grid_is_rejected(g):
    p = point(2, seed=3)
    for method in ("projection", "runge-kutta", "both"):
        with pytest.raises(PhaseSpaceError, match="^a time grid needs at least one time$"):
            flow_residuals([], p, g, method)
    with pytest.raises(PhaseSpaceError, match="^a time grid needs at least one time$"):
        rk_flow(p, g, [])


@pytest.mark.parametrize("method", ["rk", "Projection", ""])
def test_flow_residuals_rejects_an_unknown_method(method, g):
    # one of its three methods, or a typed error: never a silent run of both
    with pytest.raises(DynamicsError, match=f"^unknown method {method!r}$"):
        flow_residuals(np.array([0.0, 1.0]), point(2, seed=3), g, method)


def test_coinciding_flowed_positions_fail_at_the_collision_stage():
    # 16 positions at gaps U(0.35, 0.5): two of them coincide at t = 1.5,
    # where u has no value; the unit fails the collision check with a zero
    # gap, and no RuntimeWarning (an error here) comes before it
    p = graded_point(16, (0.35, 0.5), seed=1)
    message = "eigenvalue collision along the flow: relative gap 0.000e+00"
    with pytest.raises(DynamicsError, match=f"^{re.escape(message)}$"):
        projection_flow(p, Coupling(0.7, 0.4), 1.5)


def test_rk_far_positions_are_quiet():
    # positions pass 355 before t = 5, where sinh of a position sum overflows in
    # the kernels (its q term is 0); pytest turns a RuntimeWarning into an error
    p, g = point(7, seed=1), Coupling(1.3, 0.2)
    q = rk_flow(p, g, [5.0])
    with np.errstate(over="ignore"):  # the one flow_residuals holds its energies under
        e = energy(q, g)[0]
    assert q.xi[0, 0] > 355 and np.isfinite(e)
    assert abs(e - energy(p, g)) <= 1e-9 * energy(p, g)


def test_rk_mixed_sign_grid_order_preserved(g):
    p = point(2, seed=21)
    grid = [1.0, -1.0, 0.0, 2.0]
    states = rk_flow(p, g, grid)
    assert states.xi.shape == (len(grid), 2)
    npt.assert_array_equal(states.xi[2], p.xi)
    ordered = rk_flow(p, g, sorted(grid)).as_vector()  # t = -1, 0, 1, 2
    npt.assert_array_equal(states.as_vector(), ordered[[2, 0, 1, 3]])


def test_rk_repeated_times_share_one_sample(g):
    p = point(2, seed=21)
    grid = [1.0, 0.0, -0.5, 1.0, 0.5]
    states = rk_flow(p, g, grid).as_vector()
    assert states.shape == (len(grid), 4)
    npt.assert_array_equal(states[0], states[3])


def test_rk_quiet_when_trial_stages_overflow(g):
    """pytest turns any RuntimeWarning into an error (pyproject.toml)."""
    p = overflow_point()
    r = rk_flow(p, g, [2.0]).as_vector()[0]
    q = projection_flow(p, g, 2.0)
    assert np.abs(r - q.as_vector()).max() <= 1e-6


def test_rk_rejects_non_finite_state(g, monkeypatch):
    real = dynamics._dop853

    def poisoned(*args, **kwargs):
        states = real(*args, **kwargs)
        states[-1] = np.inf
        return states

    monkeypatch.setattr(dynamics, "_dop853", poisoned)
    with pytest.raises(DynamicsError, match="non-finite state"):
        rk_flow(point(2, seed=21), g, [1.0])


def test_rk_fails_on_a_field_that_is_always_nan(g, monkeypatch):
    """The initial step is nan; it must count as below the minimum step, where
    a loop on `h < min_step` would run for ever."""
    monkeypatch.setattr(
        _kernels, "field_kernel", lambda *_: lambda y, out: np.multiply(y, np.nan, out=out)
    )
    with pytest.raises(DynamicsError, match="^integrator failed: "):
        rk_flow(point(2, seed=21), g, [1.0, -1.0])


def test_integration_to_a_blow_up_fails_at_the_minimum_step():
    """y' = y^2, y(0) = 1 blows up at t = 1: the step shrinks to its minimum there."""
    with pytest.raises(DynamicsError, match="^integrator failed: "):
        dynamics._dop853(
            lambda y, out: np.multiply(y, y, out=out), np.ones(1), np.array([2.0]), 1e-10, 1e-12
        )


def test_vector_field_is_the_kernel(g):
    for n in (1, 2, 5):
        p = point(n, seed=4)
        out = np.empty(2 * n)
        _kernels.field_kernel(n, g.mu, g.nu)(p.as_vector(), out)
        got = np.concatenate(vector_field(p, g))
        npt.assert_array_equal(got.view(np.uint64), out.view(np.uint64))


DOP853_CASES = {
    "n2": (lambda: point(2, 3), [0.25, 0.5, 1.0]),
    "n3": (lambda: point(3, 2), [-0.5, -1.0, -2.0]),
    "n4": (lambda: point(4, 1), [0.25, 0.5, 1.0]),
    "n16": (lambda: spread_point(16, 1), [0.25, 0.5, 1.0]),
    "stage-overflow": (overflow_point, [2.0]),
}


@pytest.mark.parametrize("case", DOP853_CASES)
def test_dop853_with_the_kernel_is_the_allocating_route_bit_for_bit(case, g):
    """Each stage written in place into K, over one kernel's buffers, gives the
    states of fields that allocate every result."""
    make_point, times = DOP853_CASES[case]
    p = make_point()
    n, ts = p.n, np.array(times)

    def allocating(y, out):
        out[:] = np.concatenate(allocating_field(y[:n], y[n:], g.mu, g.nu))

    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernels.field_kernel(n, g.mu, g.nu)
        got = dynamics._dop853(kernel, p.as_vector(), ts, RK_REL_TOL, RK_ABS_TOL)
        ref = dynamics._dop853(allocating, p.as_vector(), ts, RK_REL_TOL, RK_ABS_TOL)
    assert np.all(np.isfinite(got))
    npt.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_non_regular_coupling_rejected():
    from vandiejen.phase_space import PhaseSpaceError

    with pytest.raises(PhaseSpaceError):
        vector_field(point(2, seed=1), Coupling(0.7, 1.4))
