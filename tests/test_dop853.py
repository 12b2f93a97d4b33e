"""The in-repo DOP853 against scipy's, its oracle: the same tableau, samples and
evaluation count."""
import numpy as np
import numpy.testing as npt
import pytest

from vandiejen import Coupling, _kernels, dynamics
from vandiejen.dynamics import RK_ABS_TOL, RK_REL_TOL, rk_flow

from conftest import count_field_calls, overflow_point, point

scipy_integrate = pytest.importorskip("scipy.integrate")


def test_tableau_is_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for ours, theirs in [
        (dynamics._A, ref.A), (dynamics._B, ref.B),
        (dynamics._E3, ref.E3), (dynamics._E5, ref.E5), (dynamics._D, ref.D),
    ]:
        assert ours.shape == theirs.shape
        npt.assert_array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def _solve_ivp(p, g, ts):
    """solve_ivp's DOP853 sweep from t = 0 to ts[-1], sampled at ts, with rk_flow's tolerances."""
    field = _kernels.field_kernel(p.n, g.mu, g.nu)

    def rhs(_t, x):
        out = np.empty(2 * p.n)
        field(x, out)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return scipy_integrate.solve_ivp(
            rhs, (0.0, ts[-1]), p.as_vector(), method="DOP853",
            t_eval=ts, rtol=RK_REL_TOL, atol=RK_ABS_TOL,
        )


def _solve_ivp_flow(p, g, t_values):
    """rk_flow's sweeps through solve_ivp: {t: state} and the evaluation count."""
    states, nfev = {0.0: p.as_vector()}, 0
    for sign in (1.0, -1.0):
        ts = sign * np.unique(sign * t_values[sign * t_values > 0])
        if len(ts):
            sol = _solve_ivp(p, g, ts)
            assert sol.success
            states.update(zip(ts.tolist(), sol.y.T))
            nfev += sol.nfev
    return states, nfev


GRID = np.arange(9) * 0.25  # the trajectory benchmark's 0:0.25:2
COUPLING = (0.7, 0.4)
CASES = {
    f"n{n}-seed{seed}": (lambda n=n, seed=seed: point(n, seed), GRID, COUPLING)
    for n, count in {2: 20, 3: 10, 4: 5}.items() for seed in range(1, count + 1)
}
# sizes the catalogue lacks, up to the largest the sampler draws, at two couplings
CASES.update({
    f"n{n}-seed{seed}-mu{mu}-nu{nu}": (lambda n=n, seed=seed: point(n, seed), GRID, (mu, nu))
    for n in (1, 6, 8, 12) for seed in (1, 2) for mu, nu in (COUPLING, (1.3, 0.2))
})
CASES["mixed-signs"] = (lambda: point(2, 1), np.array([0, 1, 1, -0.5, 0.5]), COUPLING)
CASES["stage-overflow"] = (overflow_point, np.array([2.0]), COUPLING)


@pytest.mark.parametrize("case", CASES)
def test_samples_and_evaluations_match_solve_ivp(case, monkeypatch):
    make_point, t_values, coupling = CASES[case]
    p, g = make_point(), Coupling(*coupling)
    expected, nfev = _solve_ivp_flow(p, g, t_values)
    calls = count_field_calls(monkeypatch)
    for t, state in zip(t_values, rk_flow(p, g, t_values).as_vector()):
        npt.assert_array_equal(state, expected[float(t)])
    assert len(calls) == nfev


@pytest.mark.parametrize("t_end", [1e200, 1e300])
def test_steps_below_the_time_spacing_fail_as_in_solve_ivp(t_end, g, monkeypatch):
    # at such times a step's 3rd-order error estimate underflows to 0 in the
    # step control; solve_ivp reads that 0 / 0 as a rejected step and gives up
    p = point(2, 1)
    sol = _solve_ivp(p, g, [t_end])
    assert sol.status == -1 and sol.message.startswith("Required step size")
    calls = count_field_calls(monkeypatch)
    with pytest.raises(dynamics.DynamicsError, match=f"integrator failed: {sol.message}"):
        rk_flow(p, g, [t_end])
    assert len(calls) == sol.nfev


def test_a_zero_field_steps_as_in_solve_ivp():
    # f = 0: the initial step takes its floor (d1 and d2 at most 1e-15), every
    # error norm is 0, and each accepted step grows by MAX_FACTOR
    y0, ts = np.array([0.5, -1.0, 2.0]), np.array([0.5, 3.0, 40.0])
    calls = []

    def zero(_y, out):
        calls.append(1)
        out[:] = 0.0

    sol = scipy_integrate.solve_ivp(
        lambda _t, y: np.zeros_like(y), (0.0, ts[-1]), y0, method="DOP853",
        t_eval=ts, rtol=RK_REL_TOL, atol=RK_ABS_TOL,
    )
    assert sol.success
    npt.assert_array_equal(dynamics._dop853(zero, y0, ts, RK_REL_TOL, RK_ABS_TOL), sol.y.T)
    assert len(calls) == sol.nfev
