import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.linalg import (
    LinalgError,
    general_eig,
    hermitian_eig,
    principal_minors,
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


def test_leading_principal_minors_diagonal():
    d = np.array([2.0, 3.0, 5.0])
    npt.assert_allclose(principal_minors(np.diag(d))[0], np.cumprod(d))


def test_leading_principal_minors_2x2():
    npt.assert_allclose(principal_minors(np.array([[1.0, 2.0], [3.0, 4.0]]))[0], [1, -2])


def test_leading_principal_minors_vs_cofactor_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    pi = principal_minors(m)[0]
    for j in range(1, 6):
        ref = det_cofactor(m[:j, :j])
        assert abs(pi[j - 1] - ref) <= 1e-10 * max(abs(ref), 1.0)


def _minor_sets(n):
    """The index sets of principal_minors: leading 0..k-1, bordered 0..k-2 and k."""
    leading = [list(range(k)) for k in range(1, n + 1)]
    bordered = [list(range(k - 1)) + [k] for k in range(1, n)]
    return leading, bordered


@pytest.mark.parametrize("n", range(1, 11))
def test_principal_minors_bitwise_equal_to_one_det_per_submatrix(n):
    rng = np.random.default_rng(100 + n)
    stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    leading_sets, bordered_sets = _minor_sets(n)
    pi_stack, bordered_stack = principal_minors(stack)
    assert pi_stack.shape == (5, n) and bordered_stack.shape == (5, n - 1)
    for p, m in enumerate(stack):
        pi, bordered = principal_minors(m)
        assert np.array_equal(pi, pi_stack[p]) and np.array_equal(bordered, bordered_stack[p])
        for got, sets in ((pi, leading_sets), (bordered, bordered_sets)):
            for value, s in zip(got, sets):
                assert value == np.linalg.det(m[np.ix_(s, s)])


def test_principal_minors_bordered_vs_cofactor_oracle():
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, bordered = principal_minors(m)
        for value, s in zip(bordered, _minor_sets(n)[1]):
            ref = det_cofactor(m[np.ix_(s, s)])
            assert abs(value - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_principal_minors_small_cases():
    pi, bordered = principal_minors(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]]))
    npt.assert_allclose(pi, [1, -2, -10])
    npt.assert_allclose(bordered, [4, 5])  # det M[1, 1] and det M[{0, 2}, {0, 2}]
    pi, bordered = principal_minors([[7.0]])
    npt.assert_allclose(pi, [7])
    assert bordered.shape == (0,)


def test_principal_minors_rejects_bad_input():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 0, 0)), [[np.inf]]):
        with pytest.raises(LinalgError):
            principal_minors(bad)


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
