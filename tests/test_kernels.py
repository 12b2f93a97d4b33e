"""The vectorized coefficient kernels against loop-form reference implementations.

Bounds come from one rounding model: every floating-point operation, numpy's
sinh, tanh and log1p included, is within eps (one ulp) of its exact result.  A
value that is a sum of N terms, each computed with k operations, is then within
(N - 1 + k) eps sum|terms| of its exact value, and two routes that both obey
the model differ by at most twice that.  The arguments xi_a -+ xi_c are rounded
identically by both routes, so only the evaluation of each term differs.
"""
import dis
import re
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from mpmath import mp

from vandiejen import Coupling, _kernels
from vandiejen.dynamics import rk_flow
from vandiejen.lax import COORD_CAP

from conftest import allocating_field, count_field_calls, point, spread_point, traced_peak

EPS = np.finfo(float).eps
COUPLINGS = [(0.7, 0.4), (1.3, 0.2), (0.3, 2.5), (2.0, 1.0)]
CASES = [(n, mu, nu, seed) for n in range(1, 8) for mu, nu in COUPLINGS for seed in (1, 2, 3)]


# -- loop-form references ------------------------------------------------------


def _xi_interaction(y, alpha):
    """Xi(y, alpha) = sin(alpha)^2 coth(y) / (sin(alpha)^2 + sinh(y)^2)."""
    s2 = np.sin(alpha) ** 2
    sh = np.sinh(y)
    return s2 * (np.cosh(y) / sh) / (s2 + sh * sh)


def log_u_gradient(xi, mu, nu):
    """Matrix of partials d ln(u_a) / d xi_b, from the Xi closed forms."""
    n = len(xi)
    grad = np.zeros((n, n))
    for a in range(n):
        diag = -2 * _xi_interaction(2 * xi[a], nu)
        for d in range(n):
            if d == a:
                continue
            diag -= _xi_interaction(xi[a] - xi[d], mu)
            diag -= _xi_interaction(xi[a] + xi[d], mu)
            grad[a, d] = -_xi_interaction(xi[d] - xi[a], mu) - _xi_interaction(
                xi[d] + xi[a], mu
            )
        grad[a, a] = diag
    return grad


def _abs_gradient_terms(xi, mu, nu):
    """Entry [a, b]: the sum of |Xi| over the terms that make up log_u_gradient[a, b]."""
    n = len(xi)
    out = np.zeros((n, n))
    for a in range(n):
        out[a, a] = 2 * abs(_xi_interaction(2 * xi[a], nu))
        for d in range(n):
            if d == a:
                continue
            pair = abs(_xi_interaction(xi[a] - xi[d], mu)) + abs(_xi_interaction(xi[a] + xi[d], mu))
            out[a, a] += pair
            out[a, d] = pair
    return out


def u_loop(xi, mu, nu):
    """u_a = sqrt(1 + q_nu(2 xi_a)) prod_{c != a} sqrt(1 + q_mu(xi_a - xi_c)) sqrt(1 + q_mu(xi_a + xi_c)),
    with q_alpha(y) = sin(alpha)^2 / sinh(y)^2."""
    n = len(xi)
    out = np.empty(n)
    for a in range(n):
        val = np.sqrt(1.0 + np.sin(nu) ** 2 / np.sinh(2 * xi[a]) ** 2)
        for c in range(n):
            if c != a:
                val *= np.sqrt(1.0 + np.sin(mu) ** 2 / np.sinh(xi[a] - xi[c]) ** 2)
                val *= np.sqrt(1.0 + np.sin(mu) ** 2 / np.sinh(xi[a] + xi[c]) ** 2)
        out[a] = val
    return out


def delta_shift_loop(xi, g, c):
    """Phase shift Delta_c at the ordered positive vector xi: signed two-body
    log terms over index pairs plus the one-body term in 2*xi_c."""
    n = len(xi)
    s_mu2 = np.sin(g.mu) ** 2
    s_nu2 = np.sin(g.nu) ** 2
    val = 0.5 * np.log1p(s_nu2 / np.sinh(2 * xi[c]) ** 2)
    for d in range(n):
        if d == c:
            continue
        sign = -0.5 if d < c else 0.5
        val += sign * np.log1p(s_mu2 / np.sinh(xi[c] - xi[d]) ** 2)
        val += 0.5 * np.log1p(s_mu2 / np.sinh(xi[c] + xi[d]) ** 2)
    return float(val)


def _abs_delta_terms(xi, g, c):
    n = len(xi)
    total = abs(0.5 * np.log1p(np.sin(g.nu) ** 2 / np.sinh(2 * xi[c]) ** 2))
    for d in range(n):
        if d != c:
            total += abs(0.5 * np.log1p(np.sin(g.mu) ** 2 / np.sinh(xi[c] - xi[d]) ** 2))
            total += abs(0.5 * np.log1p(np.sin(g.mu) ** 2 / np.sinh(xi[c] + xi[d]) ** 2))
    return total


def _omega_weights(theta_hat, mu_hat):
    """Cauchy-type weights: omega_c = prod_{d != c}
    sinh(th_c - th_d) sinh(th_c + th_d) / [sinh(i mu_hat + th_c - th_d) sinh(i mu_hat + th_c + th_d)]."""
    n = len(theta_hat)
    out = np.ones(n, dtype=complex)
    for c in range(n):
        for d in range(n):
            if d == c:
                continue
            dm = theta_hat[c] - theta_hat[d]
            sm = theta_hat[c] + theta_hat[d]
            out[c] *= np.sinh(dm) * np.sinh(sm)
            out[c] /= np.sinh(1j * mu_hat + dm) * np.sinh(1j * mu_hat + sm)
    return out


# -- comparisons ---------------------------------------------------------------


def _field(xi, eta, mu, nu):
    """(xi_dot, eta_dot) at one point, from a field_kernel built for it."""
    n = len(xi)
    out = np.empty(2 * n)
    _kernels.field_kernel(n, mu, nu)(np.concatenate([xi, eta]), out)
    return out[:n], out[n:]


def _assert_field_matches_loop_gradient(p, mu, nu):
    """xi_dot at p is sinh(eta) u bit for bit, eta_dot within the rounding
    bound of the loop gradient."""
    n = p.n
    xi_dot, eta_dot = _field(p.xi, p.eta, mu, nu)
    u = _kernels.u_coeffs(p.xi, mu, nu)
    np.testing.assert_array_equal(xi_dot, np.sinh(p.eta) * u)
    weight = np.cosh(p.eta) * u
    ref = -weight @ log_u_gradient(p.xi, mu, nu)
    # eta_dot_a expanded: 2 terms for each c != a, 2n - 1 for c = a; a term is
    # weight_c times one Xi, 10 operations (9 in Xi in either form, 1 product)
    terms, ops = 4 * n - 3, 10
    bound = 2 * (terms - 1 + ops) * EPS * (weight @ _abs_gradient_terms(p.xi, mu, nu))
    assert np.all(np.abs(eta_dot - ref) <= bound)


@pytest.mark.parametrize("n,mu,nu,seed", CASES)
def test_vector_field_matches_loop_gradient(n, mu, nu, seed):
    _assert_field_matches_loop_gradient(point(n, seed), mu, nu)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("mu,nu", COUPLINGS[:2])
def test_vector_field_matches_loop_gradient_past_the_sampler(n, mu, nu):
    _assert_field_matches_loop_gradient(spread_point(n, 1), mu, nu)


@pytest.mark.parametrize("n,mu,nu,seed", CASES)
def test_u_coeffs_match_loop_product(n, mu, nu, seed):
    xi = point(n, seed).xi
    ref = u_loop(xi, mu, nu)
    # A product is bounded relatively: 2n - 1 factors, each at most 7 operations
    # (sin, square, sinh, square, quotient, 1 +, sqrt), 2n - 2 products, one sqrt
    factors, ops = 2 * n - 1, 7
    bound = 2 * (factors * ops + factors - 1 + 1) * EPS * ref
    assert np.all(np.abs(_kernels.u_coeffs(xi, mu, nu) - ref) <= bound)


@pytest.mark.parametrize("n,mu,nu,seed", CASES)
def test_delta_shifts_match_loop(n, mu, nu, seed):
    g = Coupling(mu, nu)
    xi = point(n, seed).xi
    got = _kernels.delta_shifts(xi, mu, nu)
    # 2n - 1 terms, each sin, square, sinh, square, quotient, log1p (the 1/2 is exact)
    terms, ops = 2 * n - 1, 6
    for c in range(n):
        bound = 2 * (terms - 1 + ops) * EPS * _abs_delta_terms(xi, g, c)
        assert abs(got[c] - delta_shift_loop(xi, g, c)) <= bound


@pytest.mark.parametrize("n,mu,nu,seed", CASES)
def test_pair_product_gives_the_loop_weights(n, mu, nu, seed):
    # A product is bounded relatively: 2(n - 1) pair factors, each at most 8
    # operations (4 sinh, products and quotients, the running product), and one
    # reciprocal; a complex product, quotient or sinh is within 4 eps.
    theta_hat, mu_hat = point(n, seed).xi, -mu
    ref = _omega_weights(theta_hat, mu_hat)
    got = 1.0 / _kernels.pair_product(theta_hat, mu_hat)
    ops = 8 * 2 * (n - 1) + 1
    assert np.all(np.abs(got - ref) <= 2 * ops * 4 * EPS * np.abs(ref))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16])
@pytest.mark.parametrize("mu,nu", COUPLINGS[:2])
def test_stacked_kernels_give_each_point_its_bits_alone(n, mu, nu):
    # a (2, 2) stack of points; n = 8, 9 and 16 cross numpy's 8-wide pairwise
    # summation block, and n = 16 lies past the sampler's box
    points = [spread_point(n, seed) if n == 16 else point(n, seed) for seed in (1, 2, 3, 4)]
    xi = np.stack([p.xi for p in points]).reshape(2, 2, n)
    kernels = {
        "u": lambda x: _kernels.u_coeffs(x, mu, nu),
        "delta": lambda x: _kernels.delta_shifts(x, mu, nu),
        "pair": lambda x: _kernels.pair_product(x, mu),
        "z": lambda x: _kernels.z_coeffs(x, mu, nu),
    }
    for name, kernel in kernels.items():
        stacked = kernel(xi)
        alone = np.array([[kernel(x) for x in row] for row in xi])
        assert stacked.shape == alone.shape == (2, 2, n), name
        npt.assert_array_equal(stacked.view(np.uint64), alone.view(np.uint64), err_msg=name)


def _ulps(got: float, exact) -> float:
    """|got - exact| in units of the spacing of doubles at exact."""
    if exact == 0:
        return 0.0 if got == 0 else np.inf
    return float(abs(mp.mpf(got) - exact)) / np.spacing(abs(float(exact)))


@pytest.mark.parametrize("alpha", [0.7, -1.3, 0.4])
def test_shifted_sinh_is_within_2_ulp_of_the_exact_value(alpha):
    # over the range the coordinate cap allows, and near 0, where sinh(x) cos(alpha)
    # is small beside the imaginary part; each part against 200-bit mpmath
    xs = np.concatenate([np.linspace(-600.0, 600.0, 1201), np.linspace(-1e-3, 1e-3, 201)])
    got = _kernels.shifted_sinh(alpha, xs)
    with mp.workprec(200):
        for x, z in zip(xs, got):
            exact = mp.sinh(mp.mpc(x, alpha))
            assert _ulps(z.real, exact.real) <= 2 and _ulps(z.imag, exact.imag) <= 2, x


def test_no_complex_sinh_in_the_library():
    # shifted_sinh is the one complex kernel; conftest keeps np.sinh(1j ...) as its oracle
    src = Path(_kernels.__file__).parent
    calls = [f.name for f in sorted(src.glob("*.py")) if re.search(r"np\.sinh\(\s*1j", f.read_text())]
    assert calls == []


def test_vector_field_is_finite_and_quiet_far_out():
    # sinh of the position sums reaches 1e260; (s / sinh(x))^2 underflows to 0,
    # its limit, with no errstate and no warning, up to the coordinate cap
    eta = np.array([0.3, -0.2])
    for xi in (np.array([200.0, 180.0]), np.array([COORD_CAP, 290.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi_dot, eta_dot = _field(xi, eta, 1.3, 0.2)
            u = _kernels.u_coeffs(xi, 1.3, 0.2)
            delta = _kernels.delta_shifts(xi, 1.3, 0.2)
        for values in (xi_dot, eta_dot, u, delta):
            assert np.all(np.isfinite(values))
        # the one q term left, at the gap xi_1 - xi_2 >= 10, is below 1e-8
        assert np.all(u >= 1.0) and np.all(u - 1.0 < 1e-8)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n,mu,nu,seed", CASES)
def test_field_kernel_is_the_allocating_field_bit_for_bit(n, mu, nu, seed):
    p = point(n, seed)
    y, out = p.as_vector(), np.full(2 * n, np.nan)
    _kernels.field_kernel(n, mu, nu)(y, out)
    ref = np.concatenate(allocating_field(p.xi, p.eta, mu, nu))
    npt.assert_array_equal(_bits(out), _bits(ref))
    npt.assert_array_equal(y, p.as_vector())


def test_field_kernel_matches_the_allocating_field_past_the_overflows():
    # Runge-Kutta trial stages: positions past 355, rapidities past 710, and
    # nan or inf entries, where sinh and cosh overflow and the field turns inf
    # or nan; the kernel must give the same bits, nan payloads included
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 9):
        field = _kernels.field_kernel(n, 1.3, 0.2)
        for k in range(40):
            size = (0.3, 5.0, 400.0, 800.0)[k % 4]
            xi, eta = np.sort(rng.uniform(0, size, n))[::-1], rng.uniform(-size, size, n)
            if k % 5 == 0:
                (xi if k % 10 else eta)[-1] = (np.nan, np.inf)[k % 3 == 0]
            out = np.empty(2 * n)
            with np.errstate(all="ignore"):
                field(np.concatenate([xi, eta]), out)
                ref = np.concatenate(allocating_field(xi, eta, 1.3, 0.2))
            npt.assert_array_equal(_bits(out), _bits(ref))


def test_field_kernel_reuses_its_buffers_bit_for_bit():
    # one kernel called on a run of states, a second of another (n, mu, nu)
    # called in turn with it, each into one output buffer: every result is
    # that of a fresh kernel at that state
    rng = np.random.default_rng(11)
    specs = [(3, 0.7, 0.4), (5, 1.3, 0.2)]
    kernels = {spec: _kernels.field_kernel(*spec) for spec in specs}
    outs = {spec: np.empty(2 * spec[0]) for spec in specs}
    states = {
        spec: [np.concatenate([np.sort(rng.uniform(0.3, 4.0, spec[0]))[::-1],
                               rng.uniform(-2.0, 2.0, spec[0])]) for _ in range(6)]
        for spec in specs
    }
    for i in (0, 1, 2, 0, 5, 3, 1, 4, 0):
        for spec in specs:
            y, out, ref = states[spec][i], outs[spec], np.empty(2 * spec[0])
            kernels[spec](y, out)
            _kernels.field_kernel(*spec)(y, ref)
            npt.assert_array_equal(_bits(out), _bits(ref))


def test_field_kernel_is_straight_line_code_of_at_most_15_calls():
    # every numpy call of an evaluation is a call in the field's own body,
    # which has no branch or loop
    calls = {"CALL", "CALL_FUNCTION", "CALL_METHOD", "CALL_FUNCTION_KW", "CALL_KW",
             "CALL_FUNCTION_EX"}
    field = _kernels.field_kernel(4, 0.7, 0.4)
    ops = [ins.opname for ins in dis.get_instructions(field)]
    assert not [op for op in ops if "JUMP" in op or op == "FOR_ITER"]
    assert sum(op in calls for op in ops) <= 15


def test_field_kernel_allocates_no_per_call_arrays():
    # the peak over 1000 evaluations is that over 10, and below one compact
    # table: no evaluation leaves an array behind or makes a table-sized one
    n = 16
    y, out = spread_point(n, 1).as_vector(), np.empty(2 * n)
    field = _kernels.field_kernel(n, 0.7, 0.4)
    field(y, out)

    def evaluations(count):
        def run():
            for _ in range(count):
                field(y, out)
        return run

    few, many = traced_peak(evaluations(10)), traced_peak(evaluations(1000))
    # the loop's own integers past 256 are allocated, one at a time
    assert many - few <= 256
    assert many < 8 * n * (2 * n - 1)


def test_rk_flow_peak_does_not_grow_with_the_evaluation_count(monkeypatch):
    # one sample time, a short and a long sweep: the long one evaluates the
    # field ten times as often, on the same buffers
    p, g, times = point(4, 1), Coupling(0.7, 0.4), (0.01, 4.0)
    rk_flow(p, g, [times[0]])
    short, long = (traced_peak(lambda: rk_flow(p, g, [t])) for t in times)
    calls = count_field_calls(monkeypatch)
    rk_flow(p, g, [times[0]])
    few = len(calls)
    rk_flow(p, g, [times[1]])
    assert len(calls) - few >= 10 * few
    assert long - short <= 256


def test_amplitude_table_is_built_once_per_flow(monkeypatch):
    # one kernel serves both sweeps of the flow; it fetches the table once
    kernels, evaluations = [], []
    kernel = _kernels.field_kernel

    def counted(*args):
        kernels.append(args)
        field = kernel(*args)
        return lambda y, out: evaluations.append(1) or field(y, out)

    monkeypatch.setattr(_kernels, "field_kernel", counted)
    _kernels._amplitudes.cache_clear()
    rk_flow(point(3, 1), Coupling(0.7, 0.4), [1.0, 2.0, -1.0])
    info = _kernels._amplitudes.cache_info()
    assert len(evaluations) > 100 and kernels == [(3, 0.7, 0.4)]
    assert info.misses == 1
    assert not _kernels._amplitudes(3, 0.7, 0.4).flags.writeable
