import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.linalg import (
    LinalgError,
    general_eig,
    hermitian_eig,
    ldu,
)

from conftest import det_cofactor, hyperbolic_cauchy_det, hyperbolic_cauchy_matrix


def test_hermitian_eig_identity():
    w, v = hermitian_eig(np.eye(2))
    npt.assert_allclose(w, [1.0, 1.0])
    npt.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-14)


def test_hermitian_eig_diagonal_sorted_ascending():
    w, _ = hermitian_eig(np.diag([np.e ** 2, np.e ** -2]))
    npt.assert_allclose(w, [np.e ** -2, np.e ** 2])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a + a.conj().T
    w, v = hermitian_eig(a)
    rebuilt = v @ np.diag(w) @ v.conj().T
    assert np.abs(rebuilt - a).max() <= 1e-12 * np.abs(a).max()
    assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-12


def test_hermitian_eig_rejects_asymmetric():
    with pytest.raises(LinalgError):
        hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(LinalgError):
        hermitian_eig(np.ones((2, 3)))


def test_hermitian_eig_rejects_non_finite():
    with pytest.raises(LinalgError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_general_eig_diagonal():
    npt.assert_allclose(general_eig(np.diag([3.0, 2.0, 1.0])), [3, 2, 1])


def test_general_eig_sorted_by_descending_modulus():
    w = general_eig(np.diag([-1.0, 3.0, 2.0]))
    npt.assert_allclose(w, [3, 2, -1])


def test_general_eig_product_matches_determinant():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w = general_eig(a)
    det = det_cofactor(a)
    assert abs(np.prod(w) - det) <= 1e-8 * abs(det)


def test_general_eig_of_a_stack_equals_each_matrix_alone():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    w = general_eig(stack)
    for p, m in enumerate(stack):
        npt.assert_array_equal(w[p], general_eig(m))


def _bordered_minors(lower, pivots, upper):
    """det M(1..k-1, k+1), the minors on the indices 1..k-1 and k+1 for
    k = 1..N-1, from the factors M = L diag(D) U: by Cauchy-Binet,
    D_1 ... D_{k-1} (D_k L_{k+1,k} U_{k,k+1} + D_{k+1})."""
    k = np.arange(len(pivots) - 1)
    before = np.concatenate([[1.0], np.cumprod(pivots)[:-2]])
    return before * (pivots[k] * lower[k + 1, k] * upper[k, k + 1] + pivots[k + 1])


def test_leading_principal_minors_diagonal():
    d = np.array([2.0, 3.0, 5.0])
    lower, pivots, upper = ldu(np.diag(d))
    npt.assert_array_equal(pivots, d)
    npt.assert_array_equal(lower, np.eye(3))
    npt.assert_array_equal(upper, np.eye(3))


def test_leading_principal_minors_2x2():
    lower, pivots, upper = ldu(np.array([[1.0, 2.0], [3.0, 4.0]]))
    npt.assert_allclose(np.cumprod(pivots), [1, -2])  # det M[:1, :1] and det M
    npt.assert_allclose(lower, [[1, 0], [3, 1]])
    npt.assert_allclose(upper, [[1, 2], [0, 1]])


def test_leading_principal_minors_vs_cofactor_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    pi = np.cumprod(ldu(m)[1])
    for j in range(1, 6):
        ref = det_cofactor(m[:j, :j])
        assert abs(pi[j - 1] - ref) <= 1e-10 * max(abs(ref), 1.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_ldu_rebuilds_the_matrix(n):
    rng = np.random.default_rng(200 + n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
    lower, pivots, upper = ldu(m)
    npt.assert_array_equal(np.triu(lower, 1), 0)
    npt.assert_array_equal(np.tril(upper, -1), 0)
    npt.assert_array_equal(np.diagonal(lower), 1)
    npt.assert_array_equal(np.diagonal(upper), 1)
    assert np.abs(lower @ np.diag(pivots) @ upper - m).max() <= 1e-13 * np.abs(m).max()


@pytest.mark.parametrize("n", range(1, 17))
def test_ldu_of_a_stack_equals_each_matrix_alone(n):
    # bit for bit, also with a second stack axis
    rng = np.random.default_rng(100 + n)
    stack = rng.normal(size=(7, n, n)) + 1j * rng.normal(size=(7, n, n))
    factors = ldu(stack)
    assert [f.shape for f in factors] == [(7, n, n), (7, n), (7, n, n)]
    for p, m in enumerate(stack):
        for stacked, alone in zip(factors, ldu(m)):
            assert np.array_equal(stacked[p], alone)
    for stacked, nested in zip(factors, ldu(stack.reshape(7, 1, n, n))):
        assert np.array_equal(stacked, nested[:, 0])


def test_principal_minors_bordered_vs_cofactor_oracle():
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for k, value in enumerate(_bordered_minors(*ldu(m)), start=1):
            s = list(range(k - 1)) + [k]
            ref = det_cofactor(m[np.ix_(s, s)])
            assert abs(value - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_principal_minors_small_cases():
    factors = ldu(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]]))
    npt.assert_allclose(np.cumprod(factors[1]), [1, -2, -10])
    npt.assert_allclose(_bordered_minors(*factors), [4, 5])  # det M[1, 1], det M[{0, 2}, {0, 2}]
    lower, pivots, upper = ldu([[7.0]])
    assert lower.shape == upper.shape == (1, 1) and lower[0, 0] == upper[0, 0] == 1
    npt.assert_array_equal(pivots, [7])


def test_ldu_rejects_bad_input():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 0, 0)), [[np.inf]]):
        with pytest.raises(LinalgError):
            ldu(bad)


@pytest.mark.filterwarnings("error")
def test_ldu_zero_pivot_is_quiet_and_shows_in_the_pivots():
    _, pivots, _ = ldu(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert pivots[0] == 0 and not np.isfinite(pivots[1:]).all()


def test_cauchy_det_single_entry():
    alpha, xi, eta = 0.7, [0.4], [0.1]
    direct = np.sinh(1j * alpha) / np.sinh(1j * alpha + xi[0] - eta[0])
    assert hyperbolic_cauchy_det(alpha, xi, eta) == pytest.approx(direct)


def test_cauchy_det_repeated_row_vanishes():
    assert abs(hyperbolic_cauchy_det(0.7, [0.5, 0.5], [0.1, 0.9])) <= 1e-14


def test_cauchy_det_matches_direct_determinant():
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        xi = rng.uniform(-5, 5, m)
        eta = rng.uniform(-5, 5, m)
        mat = hyperbolic_cauchy_matrix(0.7, xi, eta)
        ref = det_cofactor(mat)
        val = hyperbolic_cauchy_det(0.7, xi, eta)
        assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-30)


def test_cauchy_det_rejects_zero_angle():
    with pytest.raises(LinalgError):
        hyperbolic_cauchy_det(0.0, [0.5], [0.1])


def test_cauchy_det_rejects_mismatched_lengths():
    with pytest.raises(LinalgError):
        hyperbolic_cauchy_det(0.7, [0.5, 0.2], [0.1])
