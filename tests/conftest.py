import tracemalloc

import numpy as np
import pytest

from vandiejen import Coupling, sample
from vandiejen.lax import LaxError
from vandiejen.linalg import LinalgError
from vandiejen.phase_space import DEFAULT_ETA_RANGE, DEFAULT_XI_GAP, DEFAULT_XI_RANGE, PhasePoint


@pytest.fixture
def g():
    return Coupling(0.7, 0.4)


@pytest.fixture
def g_hat(g):
    return g.hat()


def point(n, seed):
    return sample(n, seed=seed)


def flow_states(columns, n) -> np.ndarray:
    """The lambda and theta columns of a flow report, as one state (xi, eta) per time."""
    return np.stack([columns[f"{x}_{a + 1}"] for x in ("lambda", "theta") for a in range(n)], -1)


def rejection_sample(n, seed):
    """(xi, eta) of the first uniform box of default_rng(seed) whose sorted
    positions clear DEFAULT_XI_GAP, one attempt at a time: the law that
    sample draws constructively."""
    lo, hi = DEFAULT_XI_RANGE
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        xi = np.sort(rng.uniform(lo, hi, size=n))[::-1]
        if n == 1 or np.min(-np.diff(xi)) >= DEFAULT_XI_GAP:
            return xi, rng.uniform(*DEFAULT_ETA_RANGE, size=n)
    raise AssertionError("no attempt cleared the gaps")


def overflow_point():
    """An n = 8 point whose DOP853 trial stages towards t = 2 push sinh/cosh(eta)
    past the double range."""
    rng = np.random.default_rng(2)
    xi = np.cumsum(rng.uniform(0.2, 0.4, 8))[::-1] + 0.3
    return PhasePoint(xi=xi, eta=rng.uniform(-3, 3, 8))


def allocating_field(xi, eta, mu, nu):
    """(xi_dot, eta_dot) in the float operations and order of
    _kernels.field_kernel, each one allocating its result: the reference for
    the kernel's in-place buffers."""
    from vandiejen import _kernels

    n = len(xi)
    stencil, t, _, _ = _kernels._compact(n)
    forward = np.concatenate([xi, eta]).dot(stencil)
    sinh_forward = np.sinh(forward)
    x, sinh_x = forward[:-n].reshape(n, -1), sinh_forward[:-n].reshape(n, -1)
    q = np.square(_kernels._amplitudes(n, mu, nu) / sinh_x)
    one_plus_q = 1.0 + q
    xi_term = q / (np.tanh(x) * one_plus_q)
    u = np.sqrt(one_plus_q.prod(axis=1))
    weights = np.diag(np.cosh(forward[-n:]) * u)
    return sinh_forward[-n:] * u, t.dot(weights.dot(xi_term).reshape(-1))


def count_field_calls(monkeypatch) -> list:
    """A list that grows by one at each evaluation of a field kernel built from now on."""
    from vandiejen import _kernels

    calls = []
    kernel = _kernels.field_kernel

    def counted(*args):
        field = kernel(*args)
        return lambda y, out: calls.append(1) or field(y, out)

    monkeypatch.setattr(_kernels, "field_kernel", counted)
    return calls


def record_returns(monkeypatch, module, name) -> list:
    """A list that grows by the value each call of module.name returns from now on."""
    returned, call = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: returned.append(call(*args, **kw)) or returned[-1])
    return returned


def traced_peak(run):
    """Bytes that tracemalloc sees allocated at the peak of run(), above those
    allocated when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def graded_point(n, gaps, seed):
    """A point past the sampler's box: xi_n = 0.3 + U(0, 0.2), then n - 1 gaps
    U(*gaps) upwards, and eta U(-1.5, 1.5), from one default_rng(seed)."""
    rng = np.random.default_rng(seed)
    base = 0.3 + rng.uniform(0.0, 0.2)
    steps = rng.uniform(*gaps, n - 1)
    eta = rng.uniform(-1.5, 1.5, n)
    return PhasePoint(xi=base + np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]]), eta=eta)


def spread_point(n, seed):
    """A point past the sampler's box: gaps U(0.5, 1.0) above 0.3, eta U(-1.5, 1.5)."""
    rng = np.random.default_rng(seed)
    xi = np.cumsum(rng.uniform(0.5, 1.0, n))[::-1] + 0.3
    return PhasePoint(xi=xi, eta=rng.uniform(-1.5, 1.5, n))


def det_cofactor(m):
    """Brute-force determinant by first-row cofactor expansion (test oracle)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(m.shape[1]):
        sub = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * det_cofactor(sub)
    return total


def hyperbolic_cauchy_matrix(alpha, xi, eta):
    """The matrix [sinh(i*alpha) / sinh(i*alpha + xi_k - eta_l)]."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    num = np.sinh(1j * alpha)
    den = np.sinh(1j * alpha + xi[:, None] - eta[None, :])
    if np.abs(den).min() < 1e-300:
        raise LinalgError("singular Cauchy denominator")
    return num / den


def hyperbolic_cauchy_det(alpha, xi, eta):
    """Closed-form determinant of the hyperbolic Cauchy matrix.

    det [sinh(ia)/sinh(ia + xi_k - eta_l)] =
        sinh(ia)^m * prod_{k<l} sinh(xi_k - xi_l) sinh(eta_l - eta_k)
                   / prod_{k,l} sinh(ia + xi_k - eta_l)
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != eta.shape or xi.ndim != 1 or len(xi) == 0:
        raise LinalgError("xi and eta must be equal-length non-empty vectors")
    if abs(np.sin(alpha)) < 1e-300:
        raise LinalgError("sin(alpha) = 0 makes the formula singular")
    m = len(xi)
    den = np.sinh(1j * alpha + xi[:, None] - eta[None, :])
    if np.abs(den).min() < 1e-300:
        raise LinalgError("singular Cauchy denominator")
    val = np.sinh(1j * alpha) ** m / np.prod(den)
    for k in range(m):
        for l in range(k + 1, m):
            val *= np.sinh(xi[k] - xi[l]) * np.sinh(eta[l] - eta[k])
    return complex(val)


def trace_power_observable(bundle, k):
    """tr(L^k), real for Hermitian L; a conserved quantity of the flow."""
    if k < 1:
        raise LaxError("k must be >= 1")
    val = np.trace(np.linalg.matrix_power(bundle.matrix, k))
    return float(val.real)
