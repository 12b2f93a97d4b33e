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
    flow_eigenvalues,
    p_coeffs,
    sample_spec,
    verify_theorem_exponential,
    verify_theorem_linear,
)

from vandiejen.checks import BATTERIES
from vandiejen.cli import EXIT_PASS, main
from vandiejen.linalg import principal_minors

from conftest import det_cofactor

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


def _reference_sample_spec(size, seed, min_gap=1.5, gap_spread=0.5, off_scale=0.2):
    """(m, d) of the first accepted candidate, drawing and testing one attempt at a time."""
    for attempt in range(200):
        rng = np.random.default_rng(seed * 1009 + attempt)
        if size == 2:
            gaps = np.array([min_gap + gap_spread * rng.uniform()])
        else:
            slots = np.linspace(0.0, gap_spread, size - 1)
            jitter = 0.1 * gap_spread / (size - 2)
            gaps = min_gap + rng.permutation(slots) + jitter * rng.uniform(-1, 1, size - 1)
        d = np.concatenate([[0.0], -np.cumsum(gaps)])
        d = d - d.mean()
        m = np.eye(size) + off_scale * (
            rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
        )
        p = _reference_p_coeffs(m)
        if p is not None and np.abs(p).min() >= 0.5 * off_scale ** 2:
            return m, d.astype(complex)
    raise AsymptoticsError("could not realize a well-conditioned spec")


def _reference_alpha(m, d):
    """alpha_j as one scalar sum per j, over k in order."""
    diff = d[:, None] - d[None, :]
    n = len(d)
    return np.array(
        [sum(m[j, k] * m[k, j] / diff[j, k] for k in range(n) if k != j) for j in range(n)]
    )


def _m_coeffs(m):
    """Leading-coefficient ratios m_j = pi_j / pi_{j-1}, from the leading principal minors."""
    return asymptotics._minor_ratios(principal_minors(m)[0])


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
    assert np.abs(p_coeffs(m)).max() <= 1e-12


def test_p_first_coefficient_two_by_two():
    m = np.array([[2.0, 0.5], [0.7, 3.0]])
    # p_1 = M_12 M_21 / M_11^2
    assert p_coeffs(m)[0] == pytest.approx(0.5 * 0.7 / 4.0, rel=1e-12)


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
    report = verify_theorem_exponential(spec, np.arange(6.0, 12.1, 1.0))
    assert report.passed, report.verdicts
    assert report.gap >= 1.0


# The acceptance test samples seeds 0-19 at sizes 2-5.  Over seeds 0-399 the
# recovery bound fails 29, 15 and 14 specs at sizes 3, 4 and 5, and the decay
# verdict on its grid 6..12 fails 3 at size 4 and 11 at size 5 (ROADMAP Defects).
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="two-point p recovery past its 1e-3 bound (ROADMAP item 7)",
)
@pytest.mark.parametrize("size, seed", [(3, 35), (4, 24)])
def test_asymptotics_row_where_the_recovery_error_shows_passes(size, seed, tmp_path):
    # p_recovery_rel_err reads 1.106e-3 at size 3 and 1.587e-3 at size 4; a
    # failing theorem verdict is a failure of its own, not this known defect
    out = tmp_path / "out.csv"
    argv = ["asymptotics", "--n", str(size), "--seed", str(seed), "--points", "1"]
    code = main([*argv, "--out", str(out)])
    (row,) = csv.DictReader(out.read_text().splitlines())
    summary = exponential_summary(sample_spec(size, seed=seed), np.arange(4.0, 10.5, 1.0))
    if not summary["passed"]:
        pytest.fail("the theorem verdict fails, expected the recovery bound alone")
    (recovery,) = BATTERIES["asymptotics-exponential"].checks
    assert code == EXIT_PASS and recovery.holds({recovery.column: float(row[recovery.column])})


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="decay verdict of a size-5 spec on the late grid (ROADMAP item 7)",
)
def test_exponential_theorem_where_the_late_grid_decay_shows_passes():
    # the smallest fitted order reads 2.54 against 1.8 R = 2.70
    report = verify_theorem_exponential(sample_spec(5, seed=20), np.arange(6.0, 12.1, 1.0))
    failing = [name for name, ok in report.verdicts.items() if not ok]
    if failing not in ([], ["post_subtraction_decay"]):
        pytest.fail(f"failing verdicts {failing}, expected post_subtraction_decay alone")
    assert not failing


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_two_point_p_recovery(size):
    spec = sample_spec(size, seed=10 + size)
    row = asymptotics.exponential_summary(spec, np.arange(6.0, 12.1, 1.0))
    assert row["p_recovery_rel_err"] <= 1e-3


@pytest.mark.parametrize("size", [2, 3, 4])
def test_linear_theorem_report(size):
    spec = sample_spec(size, seed=20 + size, kind="linear")
    grid = np.array([10.0, 15.0, 20.0, 30.0, 40.0])
    report = verify_theorem_linear(spec, grid)
    assert report.passed, report.verdicts
    # dropping the alpha/t term degrades the decay order from ~2 to ~1
    assert np.nanmax(np.abs(report.fitted_orders - 2.0)) <= 0.3
    assert np.nanmax(np.abs(report.orders_without_alpha - 1.0)) <= 0.3


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
    # draws; at n = 9 seeds 9, 33, 34 and 40 exhaust every attempt
    for seed in range(1, 41 if size == 9 else 13):
        try:
            m, d = _reference_sample_spec(size, seed)
        except AsymptoticsError as exc:
            with pytest.raises(AsymptoticsError) as got:
                sample_spec(size, seed=seed)
            assert str(got.value) == str(exc)
            continue
        for kind in ("exponential", "linear"):
            spec = sample_spec(size, seed=seed, kind=kind)
            assert np.array_equal(spec.m, m) and np.array_equal(spec.d, d)
            assert spec.kind == kind
        assert np.array_equal(p_coeffs(m), _reference_p_coeffs(m))


# contiguous, and scattered with a repeat and a three-word seed; at size 9
# seeds 9, 33, 34 and 40 run out, and each stack holds one of them
SPEC_STACKS = [range(1, 13), [40, 3, 3, 9, 10**23], [8, 33, 34, 2]]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("seeds", SPEC_STACKS, ids=["contiguous", "scattered", "runs-out"])
@pytest.mark.parametrize("size", range(2, 10))
def test_stacked_sample_spec_equals_one_seed_at_a_time(size, seeds):
    # bit for bit; where a seed runs out, the oracle's error of the first such seed
    expected = []
    for seed in seeds:
        try:
            expected.append(_reference_sample_spec(size, seed))
        except AsymptoticsError as exc:
            with pytest.raises(AsymptoticsError) as got:
                sample_spec(size, seeds)
            assert str(got.value) == str(exc)
            return
    for kind in ("exponential", "linear"):
        spec = sample_spec(size, seeds, kind)
        assert spec.m.shape == (len(seeds), size, size) and spec.kind == kind
        for k, (m, d) in enumerate(expected):
            assert np.array_equal(_bits(spec.m[k]), _bits(m))
            assert np.array_equal(_bits(spec.d[k]), _bits(d))


@pytest.mark.parametrize("size", [2, 5, 8])
def test_one_seed_spec_is_row_0_of_its_stack_of_one(size):
    one, stack = sample_spec(size, 17), sample_spec(size, [17])
    assert one.m.shape == (size, size) and stack.m.shape == (1, size, size)
    assert np.array_equal(_bits(one.m), _bits(stack.m[0]))
    assert np.array_equal(_bits(one.d), _bits(stack.d[0]))


def test_zero_leading_minor_is_skipped_in_a_stack():
    good = np.eye(3) + 0.2 * np.arange(9).reshape(3, 3) / 9
    zero_first = good.copy()
    zero_first[0, 0] = 0.0
    zero_second = good.copy()
    zero_second[1] = zero_second[0]  # pi_1 != 0, pi_2 = pi_3 = 0
    zero_last = good.copy()
    zero_last[2] = zero_last[0]  # only det M = 0, and every p_j stays finite
    stack = np.stack([zero_first, good, zero_second, zero_last])
    # pytest turns a RuntimeWarning into an error, so the mask must raise none
    mask = asymptotics._accepted(stack, 0.0)
    assert mask.tolist() == [False, True, False, False]
    for bad in (zero_first, zero_second, zero_last):
        with pytest.raises(AsymptoticsError):
            p_coeffs(bad)


@pytest.mark.parametrize("size", [-1, 0, 1])
def test_sample_spec_rejects_size_below_two(size):
    with pytest.raises(AsymptoticsError):
        sample_spec(size, seed=1)


def test_every_entry_point_rejects_a_spec_of_size_one():
    # a single diagonal value has no gap R and no perturbation sum
    grid = [4.0, 5.0, 6.0]
    entry_points = [
        (asymptotics.exponential_summary, "exponential"),
        (verify_theorem_exponential, "exponential"),
        (asymptotics.linear_summary, "linear"),
        (verify_theorem_linear, "linear"),
    ]
    for run, kind in entry_points:
        with pytest.raises(AsymptoticsError, match="size >= 2"):
            run(FlowSpec(m=[[2.0]], d=[1.0], kind=kind), grid)
    with pytest.raises(AsymptoticsError, match="size >= 2"):
        alpha_coeffs([[2.0]], [1.0])


@pytest.mark.parametrize("grid", [[5.0], [5.0, 5.0], []])
def test_grid_without_two_distinct_times_is_rejected(grid):
    exp, lin = sample_spec(3, seed=7), sample_spec(3, seed=7, kind="linear")
    with pytest.raises(AsymptoticsError):
        verify_theorem_exponential(exp, grid)
    with pytest.raises(AsymptoticsError):
        verify_theorem_linear(lin, grid)


@pytest.mark.parametrize("grid", [[30.0, 31.0], np.arange(40.0, 45.5, 1.0)])
def test_grid_too_late_to_fit_a_decay_order_is_rejected(grid):
    # every remainder sits below the fit floor, so no order can be fitted;
    # RuntimeWarnings are errors here, so an all-nan reduction would fail too
    spec = sample_spec(3, seed=1)
    assert np.isnan(verify_theorem_exponential(spec, grid).fitted_orders).all()
    with pytest.raises(AsymptoticsError, match="fit floor"):
        asymptotics.exponential_summary(spec, grid)


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
    with pytest.raises(AsymptoticsError):
        verify_theorem_linear(spec, [10.0, 20.0])
    lin = sample_spec(3, seed=7, kind="linear")
    with pytest.raises(AsymptoticsError):
        verify_theorem_linear(lin, [-1.0, 10.0])


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
        verify_theorem_linear(spec, grid)


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
        verify_theorem_linear(_stack([fine, ambiguous]), [1.0, 2.0])


def test_flow_spec_stack_checks_every_spec():
    m = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(AsymptoticsError, match="leading principal minor"):
        FlowSpec(m=m, d=[[1.0, -1.0], [1.0, -1.0]], kind="exponential")
    with pytest.raises(AsymptoticsError, match="strictly descending"):
        FlowSpec(m=m, d=[[1.0, -1.0], [1.0, 1.0]], kind="linear")
    with pytest.raises(AsymptoticsError, match="square"):
        FlowSpec(m=m, d=[1.0, -1.0], kind="linear")
