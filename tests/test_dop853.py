"""The in-repo DOP853 against scipy's, its oracle: the same tableau, samples and
evaluation count."""
import numpy as np
import numpy.testing as npt
import pytest

from vandiejen import _kernels, dynamics
from vandiejen.dynamics import RK_ABS_TOL, RK_REL_TOL, rk_flow

from conftest import overflow_point, point

scipy_integrate = pytest.importorskip("scipy.integrate")


def test_tableau_is_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for ours, theirs in [
        (dynamics._A, ref.A), (dynamics._B, ref.B),
        (dynamics._E3, ref.E3), (dynamics._E5, ref.E5), (dynamics._D, ref.D),
    ]:
        assert ours.shape == theirs.shape
        npt.assert_array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def _solve_ivp_flow(p, g, t_values):
    """rk_flow's sweeps through solve_ivp: {t: state} and the evaluation count."""
    field = _kernels.field_kernel(p.n, g.mu, g.nu)

    def rhs(_t, x):
        out = np.empty(2 * p.n)
        field(x, out)
        return out

    states, nfev = {0.0: p.as_vector()}, 0
    for sign in (1.0, -1.0):
        ts = sign * np.unique(sign * t_values[sign * t_values > 0])
        if len(ts):
            with np.errstate(over="ignore", invalid="ignore"):
                sol = scipy_integrate.solve_ivp(
                    rhs, (0.0, ts[-1]), p.as_vector(), method="DOP853",
                    t_eval=ts, rtol=RK_REL_TOL, atol=RK_ABS_TOL,
                )
            assert sol.success
            states.update(zip(ts.tolist(), sol.y.T))
            nfev += sol.nfev
    return states, nfev


GRID = np.arange(9) * 0.25  # the trajectory benchmark's 0:0.25:2
CASES = {
    f"n{n}-seed{seed}": (lambda n=n, seed=seed: point(n, seed), GRID)
    for n, count in {2: 20, 3: 10, 4: 5}.items() for seed in range(1, count + 1)
}
CASES["mixed-signs"] = (lambda: point(2, 1), np.array([0, 1, 1, -0.5, 0.5]))
CASES["stage-overflow"] = (overflow_point, np.array([2.0]))


@pytest.mark.parametrize("case", CASES)
def test_samples_and_evaluations_match_solve_ivp(case, g, monkeypatch):
    make_point, t_values = CASES[case]
    p = make_point()
    expected, nfev = _solve_ivp_flow(p, g, t_values)
    calls = []
    kernel = _kernels.field_kernel

    def counted(*args):
        field = kernel(*args)
        return lambda y, out: calls.append(1) or field(y, out)

    monkeypatch.setattr(_kernels, "field_kernel", counted)
    for t, state in zip(t_values, rk_flow(p, g, t_values).as_vector()):
        ref = expected[float(t)]
        assert np.abs(state - ref).max() <= 1e-12 * np.abs(ref).max()
    assert len(calls) == nfev
