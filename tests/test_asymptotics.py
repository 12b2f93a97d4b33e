import csv

import numpy as np
import numpy.testing as npt
import pytest

from vandiejen import asymptotics
from vandiejen.asymptotics import (
    AsymptoticsError,
    FlowSpec,
    alpha_coeffs,
    exponential_summary,
    fit_grid,
    flow_eigenvalues,
    linear_summary,
    sample_spec,
)

from vandiejen.checks import BATTERIES
from vandiejen.cli import EXIT_PASS, main
from vandiejen.phase_space import PhaseSpaceError

from conftest import det_cofactor, record_returns

D4 = np.array([3.0, 1.0, -1.0, -3.0])


# -- loop-form reference: one candidate at a time, one det per minor -----------


def _reference_p_coeffs(m):
    pi = np.array([np.linalg.det(m[:j, :j]) for j in range(1, len(m) + 1)])
    if np.abs(pi).min() == 0:
        return None
    mj = pi / np.concatenate([[1.0], pi[:-1]])
    out = np.empty(len(m) - 1, dtype=complex)
    for j in range(1, len(m)):
        idx = list(range(j - 1)) + [j]
        out[j - 1] = complex(np.linalg.det(m[np.ix_(idx, idx)])) / pi[j - 1] - mj[j] / mj[j - 1]
    return out


def _reference_factors(size, seed, min_gap=1.5, gap_spread=0.5, off_scale=0.2):
    """(L, D, U, d) of the spec of one seed, drawn number by number in the
    order sample_spec documents and assembled entry by entry."""
    n = size
    rng = np.random.default_rng(seed)
    slots = np.linspace(0.0, gap_spread, n - 1)[np.argsort(rng.random(n - 1), kind="stable")]
    gaps = min_gap + slots + 0.1 * gap_spread / max(n - 2, 1) * rng.uniform(-1, 1, n - 1)
    d = np.concatenate([[0.0], -np.cumsum(gaps)])
    d = d - d.mean()
    re, im = rng.uniform(-1, 1, n + 2 * n * n), rng.uniform(-1, 1, n + 2 * n * n)
    noise = off_scale * (re + 1j * im)
    moduli = off_scale * rng.uniform(1 / np.sqrt(2), 1.0, 2 * (n - 1))
    phases = rng.uniform(0.0, 2 * np.pi, 2 * (n - 1))
    lower, upper = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b + 1:
                lower[a, b] = moduli[b] * np.exp(1j * phases[b])
                upper[b, a] = moduli[n - 1 + b] * np.exp(1j * phases[n - 1 + b])
            elif a > b + 1:
                lower[a, b] = noise[n + a * n + b]
                upper[b, a] = noise[n + n * n + b * n + a]
    return lower, 1.0 + noise[:n], upper, d.astype(complex)


def _reference_sample_spec(size, seed):
    """(m, d) of the spec of one seed: M = L diag(D) U as a plain product."""
    lower, diag, upper, d = _reference_factors(size, seed)
    return lower @ np.diag(diag) @ upper, d


def _reference_alpha(m, d):
    """alpha_j as one scalar sum per j, over k in order."""
    diff = d[:, None] - d[None, :]
    n = len(d)
    return np.array(
        [sum(m[j, k] * m[k, j] / diff[j, k] for k in range(n) if k != j) for j in range(n)]
    )


def _coeffs(m):
    """(m_j, p_j) of M, as an exponential spec holds them, from the factors
    M = L diag(D) U: m_j = D_j and p_j = L_{j+1,j} U_{j,j+1}."""
    m = np.asarray(m, dtype=complex)
    return FlowSpec(m, -np.arange(m.shape[-1], dtype=float), kind="exponential").coeffs


def _m_coeffs(m):
    """Leading-coefficient ratios m_j = pi_j / pi_{j-1} of the leading principal
    minors, read as the pivots D_j of the factors."""
    return _coeffs(m)[0]


def test_minor_ratios_diagonal():
    npt.assert_allclose(_m_coeffs(np.diag([2.0, 3.0, 5.0])), [2, 3, 5])


def test_minor_ratios_triangular_ignores_off_diagonal():
    m = np.array([[2.0, 7.0], [0.0, 3.0]])
    npt.assert_allclose(_m_coeffs(m), [2, 3])


def test_minor_ratios_product_is_determinant():
    rng = np.random.default_rng(4)
    m = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    det = det_cofactor(m)
    assert abs(np.prod(_m_coeffs(m)) - det) <= 1e-10 * abs(det)


def test_p_coeffs_triangular_vanish():
    rng = np.random.default_rng(6)
    m = np.triu(rng.normal(size=(4, 4))) + 3 * np.eye(4)
    assert np.abs(_coeffs(m)[1]).max() <= 1e-12


def test_p_first_coefficient_two_by_two():
    m = np.array([[2.0, 0.5], [0.7, 3.0]])
    # p_1 = M_12 M_21 / M_11^2
    assert _coeffs(m)[1][0] == pytest.approx(0.5 * 0.7 / 4.0, rel=1e-12)


def test_alpha_coeffs_diagonal_vanish():
    npt.assert_allclose(alpha_coeffs(np.diag([1.0, 2.0]), [1.0, 0.0]), 0.0)


def test_alpha_coeffs_two_by_two_antisymmetric():
    m = np.array([[1.0, 0.4], [0.9, 2.0]])
    a = alpha_coeffs(m, [2.0, -1.0])
    assert a[0] == pytest.approx(-a[1], rel=1e-12)
    assert a[0] == pytest.approx(0.4 * 0.9 / 3.0, rel=1e-12)


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_alpha_coeffs_equal_the_scalar_sums(size):
    # bit for bit: the linear rows fit their orders to residuals built on alpha
    for seed in range(1, 13):
        spec = sample_spec(size, seed=seed, kind="linear")
        assert np.array_equal(alpha_coeffs(spec.m, spec.d), _reference_alpha(spec.m, spec.d))


def test_alpha_coeffs_reversed_sum_oracle():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = alpha_coeffs(m, D4)
    for j in range(4):
        ref = sum(m[j, k] * m[k, j] / (D4[j] - D4[k]) for k in reversed(range(4)) if k != j)
        assert a[j] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_gamma_coeffs_are_the_limit_of_a_high_precision_eigensolve(size):
    # t^2 r_j(t) = gamma_j + delta_j / t + O(1/t^2), r_j the residual after
    # the alpha term, from a 40-digit eigensolve of M + tD; 2 f(2t) - f(t)
    # cancels delta_j and leaves O(1/t^2)
    mpmath = pytest.importorskip("mpmath")
    spec = sample_spec(size, seed=size, kind="linear")
    alpha, gamma = alpha_coeffs(spec.m, spec.d), asymptotics.gamma_coeffs(spec.m, spec.d)
    diag = np.diagonal(spec.m)

    def t2r(t):
        with mpmath.workdps(40):
            a = mpmath.matrix(spec.m.tolist()) + mpmath.diag([t * mpmath.mpc(x) for x in spec.d])
            lams = mpmath.eig(a, left=False, right=False)
            out = []
            for j in range(size):
                pred = mpmath.mpc(diag[j]) + t * mpmath.mpc(spec.d[j])
                lam = min(lams, key=lambda z: abs(z - pred))
                out.append(complex(t * t * (lam - pred) - t * alpha[j]))
        return np.array(out)

    t = 1e4
    limit = 2 * t2r(2 * t) - t2r(t)
    assert np.abs(limit - gamma).max() <= 1e-9
    # the rest is within the Cauchy tail of t2_bounded, at a time near the
    # edge of its range and at a late one
    radius, constant = asymptotics.cauchy_bound(spec)
    for t in (1.5 / radius.min(), t):
        assert np.all(t * np.abs(t2r(t) - gamma) <= constant / (1 - 1 / (t * radius)))


def test_flow_eigenvalues_diagonal_exact_both_kinds():
    m = np.diag([2.0, 3.0])
    d = np.array([1.0, -1.0])
    w = flow_eigenvalues(FlowSpec(m=m, d=d, kind="exponential"), 2.0)
    npt.assert_allclose(w, [2 * np.e ** 2, 3 * np.e ** -2], rtol=1e-12)
    w = flow_eigenvalues(FlowSpec(m=m, d=d, kind="linear"), 5.0)
    npt.assert_allclose(sorted(w.real, reverse=True), [7, -2], atol=1e-12)


def test_flow_eigenvalues_two_by_two_quadratic_oracle():
    m = np.array([[1.0, 0.3], [0.2, 1.0]], dtype=complex)
    d = np.array([0.5, -0.5])
    t = 4.0
    a = m * np.exp(t * d)[None, :]
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4 * det)
    expect = sorted([(tr + disc) / 2, (tr - disc) / 2], key=abs, reverse=True)
    w = flow_eigenvalues(FlowSpec(m=m, d=d, kind="exponential"), t)
    npt.assert_allclose(w, expect, rtol=1e-12)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_exponential_theorem_report(size):
    spec = sample_spec(size, seed=size)
    row = exponential_summary(spec, np.arange(6.0, 12.1, 1.0))
    assert row["passed"], row
    assert row["R"] >= 1.0


# The acceptance test samples seeds 0-19 at sizes 2-5.  Over seeds 0-399 at
# sizes 3, 4 and 5 the least-squares p recovery fails no spec (largest error
# 7.7e-6 on the CLI grid 4..10); the decay verdict on the late grid 6..12 fails
# one, at size 5 (ROADMAP Defects).
@pytest.mark.parametrize("size, seed", [(3, 35), (4, 24)])
def test_asymptotics_row_where_the_recovery_error_shows_passes(size, seed, tmp_path):
    # the two-point recovery of the rejection sampler's specs of these seeds
    # read 1.106e-3 and 1.587e-3
    out = tmp_path / "out.csv"
    argv = ["asymptotics", "--n", str(size), "--seed", str(seed), "--points", "1"]
    code = main([*argv, "--out", str(out)])
    (row,) = csv.DictReader(out.read_text().splitlines())
    (recovery,) = BATTERIES["asymptotics-exponential"].checks
    assert code == EXIT_PASS and recovery.holds({recovery.column: float(row[recovery.column])})


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="decay verdict of a size-5 spec on the late grid (ROADMAP Defects)",
)
def test_exponential_theorem_where_the_late_grid_decay_shows_passes():
    # the smallest fitted order reads 2.67 against 1.8 R = 2.72, in the last
    # component, whose second-order terms decay at 3.5 or faster
    spec, grid = sample_spec(5, seed=303), np.arange(6.0, 12.1, 1.0)
    row = exponential_summary(spec, grid)
    rho = asymptotics._relative_remainders(spec, spec.coeffs[0], grid)
    shrinks = np.all(np.abs(rho[-1]) <= np.abs(rho[0]) + asymptotics.FIT_CLAMP)
    decays = not row["min_fitted_order"] < 1.8 * row["R"]
    if not shrinks or decays != row["passed"]:
        pytest.fail(f"expected the decay verdict alone to decide the row: {row}")
    assert decays


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_two_point_p_recovery(size):
    # the smallest grid the fit takes, the former recovery times 8 and 10:
    # two times, so the model p_j + a eps_j
    spec, grid = sample_spec(size, seed=10 + size), np.array([8.0, 10.0])
    mj, pj = spec.coeffs
    rho = asymptotics._relative_remainders(spec, mj, grid)
    eps_, noise = asymptotics._eps(spec, grid), asymptotics._noise_level(rho)
    recovered = asymptotics._p_least_squares(rho, eps_, noise)
    assert np.abs(recovered / pj - 1).max() <= 1e-3


@pytest.mark.parametrize("size", [2, 5, 8])
def test_p_recovery_on_the_default_grid_is_far_inside_its_bound(size):
    # the neglected third-order terms at t = 4, about eps_j(4)^2 ~ 1e-5
    # relative, and the eigensolver's noise: far below the bound of 1e-3
    row = exponential_summary(sample_spec(size, seed=range(1, 13)), np.arange(4.0, 10.5, 1.0))
    assert row["p_recovery_rel_err"].max() <= 1e-4


@pytest.mark.parametrize("size", [2, 3, 4])
def test_linear_theorem_report(size, monkeypatch):
    spec = sample_spec(size, seed=20 + size, kind="linear")
    grid = np.array([10.0, 15.0, 20.0, 30.0, 40.0])
    orders = record_returns(monkeypatch, asymptotics, "_decay_orders")
    row = linear_summary(spec, grid)
    assert row["passed"], row
    # dropping the alpha/t term degrades the decay order from ~2 to ~1, in
    # every component
    with_alpha, without_alpha = orders
    assert np.nanmax(np.abs(with_alpha - 2.0)) <= 0.3
    assert np.nanmax(np.abs(without_alpha - 1.0)) <= 0.3


def _reference_decay_orders(t_grid, r, log_t=False, clamp=asymptotics.FIT_CLAMP):
    """Minus the np.polyfit slope of ln|r| over the usable times, one (spec, j) column at a time."""
    orders = np.full(r.shape[:-2] + r.shape[-1:], np.nan)
    clamp = np.broadcast_to(clamp, r.shape)
    for i in np.ndindex(orders.shape):
        column = r[i[:-1]][:, i[-1]]
        usable = np.abs(column) > clamp[i[:-1]][:, i[-1]]
        if usable.sum() >= 2:
            x = np.log(t_grid[usable]) if log_t else t_grid[usable]
            orders[i] = -np.polyfit(x, np.log(np.abs(column[usable])), 1)[0]
    return orders


@pytest.mark.parametrize("kind, grid, fits", [
    ("exponential", np.arange(4.0, 10.5, 1.0), [{"clamp"}]),
    ("exponential", np.arange(6.0, 12.1, 1.0), [{"clamp"}]),
    ("linear", np.arange(4.0, 10.5, 1.0), [{"log_t", "clamp"}] * 2),
    ("linear", np.array([10.0, 15.0, 20.0, 30.0, 40.0]), [{"log_t", "clamp"}] * 2),
])
def test_stacked_decay_orders_equal_the_per_column_fit(kind, grid, fits, monkeypatch):
    # the residual stacks the theorem checks fit, both kinds, recorded as they
    # go in with their per-time noise clamps
    stacks, fit = [], asymptotics._decay_orders
    monkeypatch.setattr(asymptotics, "_decay_orders",
                        lambda t, r, **kw: stacks.append((t, r, kw)) or fit(t, r, **kw))
    summary = exponential_summary if kind == "exponential" else linear_summary
    summary(sample_spec(4, seed=range(1, 13), kind=kind), grid)
    assert [set(kw) for _, _, kw in stacks] == fits
    for t, r, kw in stacks:
        assert np.shape(kw["clamp"]) == r.shape[:-1] + (1,)
        # a column with no usable time and one with a single usable time
        r = r.copy()
        r[0, :, 0] = 0.0
        r[1, 1:, 2] = 0.0
        orders = fit(t, r, **kw)
        assert np.isnan(orders[0, 0]) and np.isnan(orders[1, 2])
        assert np.isnan(orders).sum() < orders.size
        npt.assert_allclose(orders, _reference_decay_orders(t, r, **kw), rtol=1e-12)


@pytest.mark.parametrize("grid", [
    np.arange(4.0, 10.5, 1.0), np.array([10.0, 15.0, 20.0, 30.0, 40.0]),
    np.array([1.0, 1.5, 2.0]), np.array([3e3, 1e3, 2e3]), np.array([1e5, 2e5]),
])
def test_t2_bounded_verdict_equals_the_unscaled_rule(grid, monkeypatch):
    # t |t^2 r_j - gamma_j| against the Cauchy tail and the rounding
    # allowance, unscaled; r the residuals with the alpha term and their
    # rounding level, fitted first
    fits, fit = [], asymptotics._decay_orders
    monkeypatch.setattr(asymptotics, "_decay_orders",
                        lambda t, r, **kw: fits.append((r, kw["clamp"])) or fit(t, r, **kw))
    bounded = record_returns(monkeypatch, asymptotics, "_t2_bounded")
    for size in (2, 4, 6):
        spec = sample_spec(size, seed=range(1, 13), kind="linear")
        row = linear_summary(spec, grid)
        resid, level = fits[-2]
        t = grid[:, None]
        radius, constant = asymptotics.cauchy_bound(spec)
        inside = t * radius[:, None, :] > 1
        with np.errstate(divide="ignore"):
            tail = np.where(inside, constant[:, None, :] / (1 - 1 / (t * radius[:, None, :])),
                            np.inf)
        gamma = asymptotics.gamma_coeffs(spec.m, spec.d)
        deviation = t * np.abs(t ** 2 * resid - gamma[:, None, :])
        rule = np.all(~inside | (deviation <= tail + t ** 3 * level), axis=(-2, -1))
        assert np.array_equal(bounded[-1], rule)
        assert not np.any(row["passed"] & ~rule)


def test_sample_spec_deterministic():
    a = sample_spec(4, seed=3)
    b = sample_spec(4, seed=3)
    npt.assert_array_equal(a.m, b.m)
    npt.assert_array_equal(a.d, b.d)


def test_sample_spec_gaps_pairwise_distinct():
    spec = sample_spec(5, seed=9)
    mu = spec.mu
    diffs = np.abs(mu[:, None] - mu[None, :])[~np.eye(4, dtype=bool)]
    assert diffs.min() > 1e-3


@pytest.mark.parametrize("size", range(2, 10))
def test_sample_spec_equals_one_candidate_at_a_time(size):
    # seeds 1-12 at n = 2..8 hold every spec the benchmark's survey catalogue
    # draws; at n = 9, seeds 9, 33, 34 and 40 ran out of the former rejection
    # sampler's attempts
    for seed in range(1, 41 if size == 9 else 13):
        m, d = _reference_sample_spec(size, seed)
        for kind in ("exponential", "linear"):
            spec = sample_spec(size, seed=seed, kind=kind)
            npt.assert_allclose(spec.m, m, rtol=0, atol=1e-15)
            assert np.array_equal(spec.d, d) and spec.kind == kind
        npt.assert_allclose(_coeffs(m)[1], _reference_p_coeffs(m), rtol=1e-12)


@pytest.mark.parametrize("size", range(2, 17))
def test_p_coeffs_of_a_spec_are_its_factor_pairs(size):
    # p_j = L_{j+1,j} U_{j,j+1} by Cauchy-Binet, at least OFF_SCALE^2 / 2
    seeds = range(1, 201)
    p = sample_spec(size, seed=seeds).coeffs[1]
    floor = 0.5 * asymptotics.SPEC_OFF_SCALE ** 2
    j = np.arange(size - 1)
    for k, seed in enumerate(seeds):
        lower, _, upper, _ = _reference_factors(size, seed)
        pair = lower[j + 1, j] * upper[j, j + 1]
        npt.assert_allclose(p[k], pair, rtol=1e-12)
        assert np.abs(pair).min() >= floor * (1 - 1e-15)


# contiguous, and scattered with a repeat and a three-word seed; the last
# stack holds seeds that ran out of the former rejection sampler's attempts
# at size 9, and now draw as any other
SPEC_STACKS = [range(1, 13), [40, 3, 3, 9, 10**23], [8, 33, 34, 2]]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("seeds", SPEC_STACKS, ids=["contiguous", "scattered", "runs-out"])
@pytest.mark.parametrize("size", range(2, 10))
def test_stacked_sample_spec_equals_one_seed_at_a_time(size, seeds):
    # bit for bit
    for kind in ("exponential", "linear"):
        spec = sample_spec(size, seeds, kind)
        assert spec.m.shape == (len(seeds), size, size) and spec.kind == kind
        for k, seed in enumerate(seeds):
            alone = sample_spec(size, seed, kind)
            assert np.array_equal(_bits(spec.m[k]), _bits(alone.m))
            assert np.array_equal(_bits(spec.d[k]), _bits(alone.d))


@pytest.mark.parametrize("size", [2, 5, 8])
def test_one_seed_spec_is_row_0_of_its_stack_of_one(size):
    one, stack = sample_spec(size, 17), sample_spec(size, [17])
    assert one.m.shape == (size, size) and stack.m.shape == (1, size, size)
    assert np.array_equal(_bits(one.m), _bits(stack.m[0]))
    assert np.array_equal(_bits(one.d), _bits(stack.d[0]))


def test_exponential_spec_rejects_a_zero_leading_minor():
    # the p coefficients divide by the leading minors, so no exponential spec
    # holds a zero one
    good = np.eye(3) + 0.2 * np.arange(9).reshape(3, 3) / 9
    zero_first = good.copy()
    zero_first[0, 0] = 0.0
    zero_second = good.copy()
    zero_second[1] = zero_second[0]  # pi_1 != 0, pi_2 = pi_3 = 0
    zero_last = good.copy()
    zero_last[2] = zero_last[0]  # only det M = 0
    d = [1.0, 0.0, -1.0]
    FlowSpec(m=good, d=d, kind="exponential")
    for bad in (zero_first, zero_second, zero_last):
        with pytest.raises(AsymptoticsError, match="leading principal minor"):
            FlowSpec(m=bad, d=d, kind="exponential")
    with pytest.raises(AsymptoticsError, match="leading principal minor"):
        FlowSpec(m=np.stack([good, zero_second]), d=[d, d], kind="exponential")


def test_sample_spec_rejects_an_empty_seed_list():
    # the seeding rule of phase_space.seeded_uniforms, shared with sample
    with pytest.raises(PhaseSpaceError, match="^a stack of specs needs at least one seed$"):
        sample_spec(3, seed=[])


@pytest.mark.parametrize("seed", [-1, [3, -1], range(-2, 2)])
def test_sample_spec_rejects_a_negative_seed(seed):
    with pytest.raises(PhaseSpaceError, match="^a seed must be non-negative, got -[12]$"):
        sample_spec(3, seed=seed)


def test_perturbation_sums_reject_repeated_diagonal_values():
    m = np.arange(9.0).reshape(3, 3)
    for coeffs in (alpha_coeffs, asymptotics.gamma_coeffs):
        with pytest.raises(AsymptoticsError, match="^repeated diagonal values$"):
            coeffs(m, [1.0, 1.0, -1.0])


@pytest.mark.parametrize("size", [-1, 0, 1])
def test_sample_spec_rejects_size_below_two(size):
    # a bad input value, not a numerical failure
    with pytest.raises(PhaseSpaceError, match=f"^a flow spec needs size >= 2, got {size}$"):
        sample_spec(size, seed=1)


def test_sample_spec_rejects_more_seeds_than_numpy_can_allocate():
    # the allocation fails at once: no seed is drawn
    with pytest.raises(PhaseSpaceError, match="^1000000000000000 specs are too many to allocate$"):
        sample_spec(3, range(10**15))


def test_every_entry_point_rejects_a_spec_of_size_one():
    # a single diagonal value has no gap R and no perturbation sum
    grid = [4.0, 5.0, 6.0]
    entry_points = [(exponential_summary, "exponential"), (linear_summary, "linear")]
    for run, kind in entry_points:
        with pytest.raises(PhaseSpaceError, match="^a flow spec needs size >= 2, got 1$"):
            run(FlowSpec(m=[[2.0]], d=[1.0], kind=kind), grid)
    with pytest.raises(PhaseSpaceError, match="^a flow spec needs size >= 2, got 1$"):
        alpha_coeffs([[2.0]], [1.0])


@pytest.mark.parametrize("grid", [[5.0], [5.0, 5.0], []])
def test_grid_without_two_distinct_times_is_rejected(grid):
    message = ("the time grid needs at least two distinct times" if grid
               else "a time grid needs at least one time")
    exp, lin = sample_spec(3, seed=7), sample_spec(3, seed=7, kind="linear")
    for kind in ("exponential", "linear"):
        with pytest.raises(PhaseSpaceError, match=f"^{message}$"):
            fit_grid(grid, kind)
    with pytest.raises(PhaseSpaceError, match=f"^{message}$"):
        exponential_summary(exp, grid)
    with pytest.raises(PhaseSpaceError, match=f"^{message}$"):
        linear_summary(lin, grid)


@pytest.mark.parametrize("grid", [[4.0, np.inf], [4.0, np.nan], [-np.inf, 4.0, 5.0]])
def test_grid_with_a_non_finite_time_is_rejected(grid):
    # the rule of phase_space.time_grid, naming the first non-finite time;
    # RuntimeWarnings are errors here
    shown = next(str(t) for t in grid if not np.isfinite(t))
    exp, lin = sample_spec(3, seed=7), sample_spec(3, seed=7, kind="linear")
    for kind in ("exponential", "linear"):
        with pytest.raises(PhaseSpaceError, match=f"^non-finite time {shown}$"):
            fit_grid(grid, kind)
    with pytest.raises(PhaseSpaceError, match=f"^non-finite time {shown}$"):
        exponential_summary(exp, grid)
    with pytest.raises(PhaseSpaceError, match=f"^non-finite time {shown}$"):
        linear_summary(lin, grid)


@pytest.mark.parametrize("grid", [[30.0, 31.0], np.arange(40.0, 45.5, 1.0)])
def test_grid_too_late_to_fit_a_decay_order_is_rejected(grid, monkeypatch):
    # every remainder sits below the fit floor, so no order can be fitted: the
    # row has no smallest order and no measurable recovery and does not pass;
    # RuntimeWarnings are errors here, so an all-nan reduction would fail too
    spec = sample_spec(3, seed=1)
    orders = record_returns(monkeypatch, asymptotics, "_decay_orders")
    row = exponential_summary(spec, grid)
    assert np.isnan(orders[-1]).all()
    assert np.isnan(row["min_fitted_order"]) and not row["passed"]
    assert np.isnan(row["p_recovery_rel_err"])


def test_error_paths():
    with pytest.raises(AsymptoticsError):
        FlowSpec(m=np.eye(2), d=[1.0, 1.0], kind="exponential")
    with pytest.raises(AsymptoticsError):
        FlowSpec(m=np.eye(2), d=[1.0, -1.0], kind="spiral")
    with pytest.raises(AsymptoticsError):
        # vanishing leading principal minor
        FlowSpec(m=np.array([[0.0, 1.0], [1.0, 0.0]]), d=[1.0, -1.0], kind="exponential")
    spec = sample_spec(3, seed=7)
    with pytest.raises(AsymptoticsError):
        flow_eigenvalues(spec, 1e9)
    with pytest.raises(AsymptoticsError, match="not of linear kind"):
        linear_summary(spec, [10.0, 20.0])
    lin = sample_spec(3, seed=7, kind="linear")
    with pytest.raises(AsymptoticsError, match="not of exponential kind"):
        exponential_summary(lin, [10.0, 20.0])
    with pytest.raises(PhaseSpaceError, match="^linear-kind grids must be strictly positive$"):
        linear_summary(lin, [-1.0, 10.0])


@pytest.mark.parametrize("t", [1e308, -1e308, [4.0, 1e308]])
def test_flow_eigenvalues_past_the_double_range_raise_without_warnings(t):
    # RuntimeWarnings are errors here: neither the exponential kind's cap
    # test nor the linear kind's M + tD may overflow in passing
    with pytest.raises(AsymptoticsError, match="flow exponent exceeds overflow cap"):
        flow_eigenvalues(sample_spec(3, seed=1), t)
    with pytest.raises(AsymptoticsError, match=r"M \+ tD is not finite at t=-?1e\+308"):
        flow_eigenvalues(sample_spec(3, seed=1, kind="linear"), t)


@pytest.mark.parametrize("kind", ["exponential", "linear"])
@pytest.mark.parametrize("t, shown", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"),
                                      ([4.0, np.inf, np.nan], "inf")])
def test_flow_eigenvalues_reject_a_non_finite_time_without_warnings(kind, t, shown):
    with pytest.raises(PhaseSpaceError, match=f"^non-finite time {shown}$"):
        flow_eigenvalues(sample_spec(3, seed=1, kind=kind), t)


def test_ambiguous_ordering_rejected_at_tiny_time():
    # eigenvalues 1 +- i have equal modulus at t = 0; a tiny time cannot
    # separate them, so the descending-modulus labeling is rejected
    spec = FlowSpec(
        m=np.array([[1.0, 1.0], [-1.0, 1.0]]), d=np.array([0.1, -0.1]), kind="exponential"
    )
    with pytest.raises(AsymptoticsError):
        flow_eigenvalues(spec, 1e-9)


def test_ambiguous_matching_without_alpha_is_rejected():
    # at t = 1 each alpha-corrected prediction has its own nearest eigenvalue,
    # but two of the uncorrected ones share one; the one spectrum per time
    # still checks both assignments
    spec = FlowSpec(
        m=np.array([[0.5, -0.9, -1.8], [-1.9, 1.3, 1.7], [0.4, 0.9, 0.2]]),
        d=np.array([1.0, 0.0, -1.0]), kind="linear",
    )
    grid = np.array([1.0, 2.0])
    lams = flow_eigenvalues(spec, grid)
    asymptotics._linear_residuals(spec, grid, lams, alpha_coeffs(spec.m, spec.d))
    with pytest.raises(AsymptoticsError, match="ambiguous eigenvalue matching at t=1.0"):
        linear_summary(spec, grid)


# -- a stack of specs: one eigensolve, the numbers of each spec alone ----------


def _stack(specs):
    return FlowSpec(np.stack([s.m for s in specs]), np.stack([s.d for s in specs]), specs[0].kind)


@pytest.mark.parametrize("kind", ["exponential", "linear"])
@pytest.mark.parametrize("size", [4, 6, 8])
def test_stacked_rows_equal_the_rows_of_each_spec_alone(kind, size):
    # seeds 1-12 at n = 4, 6, 8 are the specs the benchmark's survey catalogue draws
    summary = asymptotics.exponential_summary if kind == "exponential" else asymptotics.linear_summary
    grid = np.arange(4.0, 10.5, 1.0)
    specs = [sample_spec(size, seed=seed, kind=kind) for seed in range(1, 13)]
    stacked = summary(_stack(specs), grid)
    for k, spec in enumerate(specs):
        alone = summary(spec, grid)
        assert list(alone) == list(stacked)
        for column, values in stacked.items():
            assert values[k] == alone[column], (k, column)


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_flow_eigenvalues_over_times_equal_the_per_time_calls(kind):
    times = np.array([0.5, 4.0, 8.0, 10.0, 12.0])
    specs = [sample_spec(5, seed=seed, kind=kind) for seed in (1, 2, 3)]
    stacked = flow_eigenvalues(_stack(specs), times)
    assert stacked.shape == (3, 5, 5)
    for k, spec in enumerate(specs):
        over_times = flow_eigenvalues(spec, times)
        for i, t in enumerate(times):
            assert np.array_equal(over_times[i], flow_eigenvalues(spec, t))
            assert np.array_equal(stacked[k, i], over_times[i])


def test_recovery_and_alpha_of_a_stack_equal_those_of_each_spec():
    specs = [sample_spec(6, seed=seed) for seed in range(1, 6)]
    stack, grid = _stack(specs), np.arange(6.0, 12.1, 1.0)
    recovered = asymptotics.exponential_summary(stack, grid)["p_recovery_rel_err"]
    alpha = alpha_coeffs(stack.m, stack.d)
    for k, spec in enumerate(specs):
        assert recovered[k] == asymptotics.exponential_summary(spec, grid)["p_recovery_rel_err"]
        assert np.array_equal(alpha[k], alpha_coeffs(spec.m, spec.d))


def test_a_stack_raises_the_error_of_its_first_failing_spec():
    good = FlowSpec(m=np.diag([2.0, 1.0]), d=np.array([0.1, -0.1]), kind="exponential")
    bad = FlowSpec(m=np.array([[1.0, 1.0], [-1.0, 1.0]]), d=np.array([0.1, -0.1]), kind="exponential")
    with pytest.raises(AsymptoticsError) as alone:
        flow_eigenvalues(bad, 1e-9)
    with pytest.raises(AsymptoticsError) as stacked:
        flow_eigenvalues(_stack([good, bad, bad]), [1.0, 1e-9])
    assert str(stacked.value) == str(alone.value)
    # the linear matching: the same message as the ambiguous spec alone
    ambiguous = FlowSpec(
        m=np.array([[0.5, -0.9, -1.8], [-1.9, 1.3, 1.7], [0.4, 0.9, 0.2]]),
        d=np.array([1.0, 0.0, -1.0]), kind="linear",
    )
    fine = FlowSpec(m=np.eye(3), d=np.array([1.0, 0.0, -1.0]), kind="linear")
    with pytest.raises(AsymptoticsError, match="ambiguous eigenvalue matching at t=1.0"):
        linear_summary(_stack([fine, ambiguous]), [1.0, 2.0])


def test_flow_spec_stack_checks_every_spec():
    m = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(AsymptoticsError, match="leading principal minor"):
        FlowSpec(m=m, d=[[1.0, -1.0], [1.0, -1.0]], kind="exponential")
    with pytest.raises(AsymptoticsError, match="strictly descending"):
        FlowSpec(m=m, d=[[1.0, -1.0], [1.0, 1.0]], kind="linear")
    with pytest.raises(AsymptoticsError, match="square"):
        FlowSpec(m=m, d=[1.0, -1.0], kind="linear")


@pytest.mark.parametrize("kind", ["exponential", "linear"])
@pytest.mark.parametrize(
    "where, value", [("m", np.inf), ("m", np.nan), ("d", np.nan), ("d", -np.inf)], ids=str
)
def test_flow_spec_rejects_a_non_finite_entry(kind, where, value):
    # an inf in M reached the eigensolver's LinalgError, and a nan in d passed
    # the descending check, since no comparison with nan holds
    spec = sample_spec(3, seed=1, kind=kind)
    m, d = spec.m.copy(), spec.d.copy()
    if where == "m":
        m[1, 2] = value
    else:
        d[1] = value
    for args in ((m, d), (np.stack([spec.m, m]), np.stack([spec.d, d]))):
        with pytest.raises(AsymptoticsError, match="^M and d must be finite$"):
            FlowSpec(*args, kind=kind)


@pytest.mark.parametrize(
    "m",
    [
        # det of the leading 2 x 2 block is 1e600
        np.array([[1e300, 1.0, 0.0], [1.0, 1e300, 0.0], [0.0, 0.0, 1.0]]),
        # |M_11| = 1.5 sqrt(2) 1e308 is past the double range
        np.diag([1.5e308 * (1 + 1j), 1.0, 1.0]),
    ],
    ids=["det", "modulus"],
)
def test_exponential_spec_past_the_double_range_is_rejected_without_warnings(m):
    # RuntimeWarnings are errors here; the linear kind takes no minors, and
    # such a spec stays valid there
    d = [1.0, 0.0, -1.0]
    message = r"^\|M\| or its leading principal minors overflow$"
    with pytest.raises(AsymptoticsError, match=message):
        FlowSpec(m, d, kind="exponential")
    FlowSpec(m, d, kind="linear")
