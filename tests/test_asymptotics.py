import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.asymptotics import (
    AsymptoticsError,
    FlowSpec,
    alpha_coeffs,
    flow_eigenvalues,
    m_coeffs,
    p_coeffs,
    recover_p_two_point,
    sample_spec,
    verify_theorem_exponential,
    verify_theorem_linear,
)

from conftest import det_cofactor

D4 = np.array([3.0, 1.0, -1.0, -3.0])


def test_m_coeffs_diagonal():
    npt.assert_allclose(m_coeffs(np.diag([2.0, 3.0, 5.0])), [2, 3, 5])


def test_m_coeffs_triangular_ignores_off_diagonal():
    m = np.array([[2.0, 7.0], [0.0, 3.0]])
    npt.assert_allclose(m_coeffs(m), [2, 3])


def test_m_coeffs_product_is_determinant():
    rng = np.random.default_rng(4)
    m = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    det = det_cofactor(m)
    assert abs(np.prod(m_coeffs(m)) - det) <= 1e-10 * abs(det)


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


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_two_point_p_recovery(size):
    spec = sample_spec(size, seed=10 + size)
    p_ref = p_coeffs(spec.m)
    p_rec = recover_p_two_point(spec)
    rel = np.abs(p_rec - p_ref) / np.abs(p_ref)
    assert rel.max() <= 1e-3


@pytest.mark.parametrize("size", [2, 3, 4])
def test_linear_theorem_report(size):
    spec = sample_spec(size, seed=20 + size, kind="linear")
    grid = np.array([10.0, 15.0, 20.0, 30.0, 40.0])
    with_alpha = verify_theorem_linear(spec, grid, include_alpha=True)
    assert with_alpha.passed, with_alpha.verdicts
    without = verify_theorem_linear(spec, grid, include_alpha=False)
    # dropping the alpha/t term degrades the decay order from ~2 to ~1
    assert np.nanmax(np.abs(with_alpha.fitted_orders - 2.0)) <= 0.3
    assert np.nanmax(np.abs(without.fitted_orders - 1.0)) <= 0.3


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
