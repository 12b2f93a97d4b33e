"""The flow step's one spectral layout against the sorted-column oracle.

dynamics._flow_units reads Lam, beta and Y once in the order of
_descending_rows and gives each unit's columns that order or its reverse by
the sign of its t.  The oracle below is the earlier form of the same step,
which sorted each unit's columns by decreasing t beta through per-unit index
tables.  Away from t = 0 the two give the same bits: states, failure mask and
every reason.  At t = 0 every column exponent is 0, the oracle's sort keeps
the index order of its ties, and the two factors differ by a permutation of
their columns, so there they agree to rounding; so they do at t = +-5e-324,
where the products t beta that the oracle sorts by round to ties."""
import dataclasses

import numpy as np
import pytest

from vandiejen import Coupling, PhasePoint, _kernels, brackets
from vandiejen.duality import _descending_rows, _full_angles, _spectrum, dual_frame
from vandiejen.dynamics import EXPONENT_RANGE_CAP, FLOW_GAP_TOL, _flow_units
from vandiejen.lax import lax_matrix

from conftest import point

COUPLINGS = [Coupling(0.7, 0.4), Coupling(1.3, 0.2), Coupling(2.0, 1.0), Coupling(0.5, 1.1)]


def sorted_flow_units(bundle, theta_hat, basis, t):
    """The oracle: each unit broadcast to a flat table of spectra and times,
    its 2n velocities gathered and its columns sorted by decreasing t beta."""
    lam, g = bundle.lam, bundle.coupling
    n = theta_hat.shape[-1]
    spectra = np.arange(theta_hat[..., 0].size).reshape(theta_hat.shape[:-1])
    t = np.asarray(t, dtype=float)
    shape = np.broadcast(spectra, t).shape
    units, times = np.empty(shape, dtype=np.intp), np.empty(shape)
    units[...], times[...] = spectra, t
    spectra, times = units.reshape(-1), times.reshape(-1)
    velocities = 2.0 * np.sinh(2.0 * _full_angles(theta_hat.reshape(-1, n)))[spectra]
    rows = _descending_rows(n)
    row_exp = lam.reshape(-1, 2 * n)[spectra[:, None], rows]
    t = times[:, None]
    with np.errstate(over="ignore"):
        cols = np.argsort(-t * velocities, axis=-1, kind="stable")
        beta = velocities[np.arange(len(times))[:, None], cols]
        col_exp = 0.5 * t * beta
        exp_range = row_exp[:, 0] - row_exp[:, -1] + col_exp[:, 0] - col_exp[:, -1]
    capped = exp_range > EXPONENT_RANGE_CAP
    col_exp[capped] = 0.0
    factor = (
        np.exp(row_exp - row_exp[:, :1])[:, :, None]
        * basis.reshape(-1, 2 * n, 2 * n)[spectra[:, None, None], rows[:, None], cols[:, None, :]]
        * np.exp(col_exp - col_exp[:, :1])[:, None, :]
    )
    _, sigma, wh = np.linalg.svd(factor)
    top = sigma[:, :n]
    lost = top[:, -1] <= 0
    top[lost] = 1.0
    xi_t = np.log(top) + row_exp[:, :1] + col_exp[:, :1]
    gap = 0.0 - np.expm1(2.0 * (xi_t[:, 1:] - xi_t[:, :-1]).max(axis=-1, initial=-np.inf))
    collided = gap < FLOW_GAP_TOL
    failed = capped | lost | collided
    xi_t[failed] = np.nan
    xi_dot = 0.5 * (np.abs(wh[:, :n]) ** 2 @ beta[:, :, None])[..., 0]
    eta_t = np.arcsinh(xi_dot / _kernels.u_coeffs(xi_t, g.mu, g.nu))

    def reason(k: int) -> str:
        at = f"at t={float(times[k])}"
        if capped[k]:
            return f"flow exponent range {exp_range[k]:.4g} exceeds the double range cap {at}"
        if lost[k]:
            return f"flow factor lost rank (roundoff) {at}"
        return f"eigenvalue collision along the flow: relative gap {gap[k]:.3e}"

    return xi_t.reshape(shape + (n,)), eta_t.reshape(shape + (n,)), failed, reason


def assert_same_flow(bundle, theta_hat, basis, t):
    """The layout and the oracle agree bit for bit: states, mask and every reason."""
    got = _flow_units(bundle, theta_hat, basis, t)
    want = sorted_flow_units(bundle, theta_hat, basis, t)
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert [got[3](k) for k in range(len(got[2]))] == [want[3](k) for k in range(len(want[2]))]
    return got[2]


def stencil_frame(n, g, seeds=(2, 5)):
    """The frame of the bracket stencils of a few points, as one (P, 4n) stack."""
    x = np.stack([point(n, seed=s).as_vector() for s in seeds])
    moved = x[:, None, :] + brackets._offsets(2 * n, brackets.DEFAULT_STEP)
    return dual_frame(PhasePoint.from_vector(moved), g)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("g", COUPLINGS, ids=str)
def test_stacked_stencils_flow_as_the_oracle(n, g):
    frame = stencil_frame(n, g)
    spectrum = (frame.bundle, frame.theta_hat, frame.basis)
    for t in (1.0, -0.7, 4.0, -4.0):
        assert_same_flow(*spectrum, t)
    # a time per unit, of both signs, and one time per point against its stencil
    units = frame.theta_hat.shape[:-1]
    times = np.where(np.arange(np.prod(units)).reshape(units) % 3 == 0, -1.5, 0.75)
    assert_same_flow(*spectrum, times)
    assert_same_flow(*spectrum, np.array([[2.0], [-2.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [1, 4, 7])
def test_one_spectrum_flows_mixed_sign_grids_as_the_oracle(n, seed):
    bundle = lax_matrix(point(n, seed=seed), Coupling(1.3, 0.2))
    spectrum = _spectrum(bundle)
    for grid in (np.arange(-3.0, 3.25, 0.5)[np.arange(13) != 6], [1.0, 1.0, -0.5, 0.5, -7.0]):
        assert_same_flow(bundle, *spectrum, np.asarray(grid))
    # one unit: a single spectrum at one time
    for t in (0.5, -0.5):
        assert_same_flow(bundle, *spectrum, t)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_extreme_times_flow_as_the_oracle(n):
    bundle = lax_matrix(point(n, seed=3), Coupling(0.7, 0.4))
    spectrum = _spectrum(bundle)
    failed = assert_same_flow(bundle, *spectrum, np.array([1e300, -1e300, 1.0]))
    assert failed.tolist() == [True, True, False]
    failed = assert_same_flow(bundle, *spectrum, np.array([1e-320, -1e-320]))
    assert not failed.any()


def test_the_twin_bundle_fails_as_in_the_oracle():
    # unit 0 collides and unit 1 exceeds the range cap: the twin bundle of
    # test_stack's first-failing-unit test
    bundle = lax_matrix(point(2, seed=3), Coupling(0.7, 0.4))
    x = bundle.lam[0]
    twin = dataclasses.replace(bundle, lam=np.array([x, x, -x, -x]))
    t = np.array([1e-13, 1e6])
    failed = assert_same_flow(twin, *_spectrum(bundle), t)
    assert failed.tolist() == [True, True]
    assert_same_flow(twin, *_spectrum(bundle), t[::-1])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_at_time_zero_the_layout_agrees_with_the_oracle_to_rounding(n):
    frame = stencil_frame(n, Coupling(0.7, 0.4))
    for t in (0.0, -0.0, 5e-324, -5e-324):
        got = _flow_units(frame.bundle, frame.theta_hat, frame.basis, t)
        want = sorted_flow_units(frame.bundle, frame.theta_hat, frame.basis, t)
        assert not got[2].any() and not want[2].any()
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
