import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.duality import (
    DualityError,
    diagonalizer,
    dual_angles,
    dual_frame,
    dual_lax,
    dual_u_closed_form,
    dual_z_closed_form,
    duality_map,
    minor_identity_residuals,
)
from vandiejen.lax import conjugation_matrix, lax_matrix
from vandiejen.phase_space import PhasePoint

from conftest import point


def test_dual_angles_single_particle_closed_form(g):
    # 2x2 matrix with det 1 and trace 2H: eigenvalues e^{+-2 theta},
    # so theta = arccosh(H) / 2.
    p = point(1, seed=3)
    b = lax_matrix(p, g)
    theta = dual_angles(b)
    assert theta[0] == pytest.approx(0.5 * np.arccosh(b.energy), rel=1e-12)


def test_dual_angles_descending_positive(g):
    th = dual_angles(lax_matrix(point(4, seed=5), g))
    assert (np.diff(th) < 0).all() and th[-1] > 0


def test_conjugation_intertwines_inverse(g):
    b = lax_matrix(point(3, seed=8), g)
    lhs = b.c @ b.matrix @ b.c
    rhs = np.linalg.inv(b.matrix)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonalizer_structure(n, g):
    b = lax_matrix(point(n, seed=10 + n), g)
    theta, y = diagonalizer(b)
    eye = np.eye(2 * n)
    assert np.abs(y.conj().T @ y - eye).max() <= 1e-12
    assert np.abs(y.conj().T @ b.c @ y - b.c).max() <= 1e-12
    rebuilt = y @ np.diag(np.exp(2 * np.concatenate([theta, -theta]))) @ y.conj().T
    assert np.abs(rebuilt - b.matrix).max() <= 1e-11 * np.abs(b.matrix).max()


def test_diagonalizer_invariant_under_basis_rephasing(g):
    from vandiejen.linalg import hermitian_eig

    b = lax_matrix(point(3, seed=14), g)
    _, y_ref = diagonalizer(b)
    v = hermitian_eig(b.matrix).basis[:, ::-1][:, :3]
    phases = np.exp(1j * np.array([0.3, -1.1, 2.4]))
    _, y_alt = diagonalizer(b, basis=v * phases[None, :])
    assert np.abs(y_alt - y_ref).max() <= 1e-9


def test_dual_f_positivity_and_modulus(g):
    frame = dual_frame(point(3, seed=17), g)
    n = frame.n
    assert np.abs(frame.f_hat[:n].imag).max() <= 1e-12
    assert (frame.f_hat[:n].real > 0).all()
    # |F_hat_c|^2 = e^{lambda_hat_c} u_hat_c
    expect = np.exp(frame.lambda_hat) * frame.u_hat
    npt.assert_allclose(np.abs(frame.f_hat[:n]) ** 2, expect, rtol=1e-12)


def test_dual_z_matches_closed_form(g):
    frame = dual_frame(point(3, seed=19), g)
    for c in range(3):
        ref = dual_z_closed_form(frame.theta_hat, g.hat(), c)
        assert abs(frame.z_hat[c] - ref) <= 1e-9 * abs(ref)
    npt.assert_allclose(np.abs(frame.z_hat), frame.u_hat, rtol=1e-10)


def test_rejected_sign_branch_fails_closed_form(g):
    # The +sinh(i(2mu-nu) + 2th)/sinh(2th) branch satisfies the minor
    # constraints below but is not the value actually realized by F_hat.
    frame = dual_frame(point(2, seed=21), g)
    gh = g.hat()
    th = frame.theta_hat
    for c in range(2):
        bad = np.sinh(1j * (2 * gh.mu - gh.nu) + 2 * th[c]) / np.sinh(2 * th[c])
        for d in range(2):
            if d == c:
                continue
            for s in (th[c] - th[d], th[c] + th[d]):
                bad *= np.sinh(1j * gh.mu + s) / np.sinh(s)
        assert abs(frame.z_hat[c] - bad) > 1e-3


def test_minor_identities(g):
    for n in (1, 2, 3):
        lin, quad = minor_identity_residuals(dual_frame(point(n, seed=23 + n), g))
        assert lin <= 1e-9
        assert quad <= 1e-8


def test_spectral_invariant_sum(g):
    # sum Re z_hat equals sum Re z (both equal a trace function of L)
    frame = dual_frame(point(3, seed=28), g)
    lhs = np.sum(frame.z_hat.real)
    rhs = np.sum(frame.bundle.z.real)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(abs(rhs), 1.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_lax_three_routes_agree(n, g):
    l_hat, entrywise, pushforward = dual_lax(point(n, seed=31 + n), g)
    scale = np.abs(l_hat).max()
    assert np.abs(l_hat - entrywise).max() <= 1e-9 * scale
    assert np.abs(l_hat - pushforward).max() <= 1e-8 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_duality_is_involution(n, g):
    p = point(n, seed=40 + n)
    q = duality_map(p, g)
    back = duality_map(q, g.hat())
    assert np.abs(back.xi - p.xi).max() <= 1e-7
    assert np.abs(back.eta - p.eta).max() <= 1e-7


def test_image_is_valid_phase_point(g):
    from vandiejen.phase_space import validate

    assert validate(duality_map(point(4, seed=50), g)) == []


def test_dual_u_exceeds_one(g):
    frame = dual_frame(point(3, seed=52), g)
    assert (dual_u_closed_form(frame.theta_hat, g.hat()) > 1.0).all()


def test_two_particle_oracle_via_quadratic_formula(g):
    # independent eigenvalue route for n=1: 2x2 characteristic polynomial
    p = PhasePoint(xi=[0.8], eta=[0.3])
    b = lax_matrix(p, g)
    tr = np.trace(b.matrix).real
    w_plus = (tr + np.sqrt(tr * tr - 4.0)) / 2.0
    theta = dual_angles(b)
    assert theta[0] == pytest.approx(0.5 * np.log(w_plus), rel=1e-12)


def test_closed_form_rejects_bad_angles(g):
    with pytest.raises(DualityError):
        dual_z_closed_form([0.2, 0.5], g.hat(), 0)
    with pytest.raises(DualityError):
        dual_z_closed_form([0.5, -0.2], g.hat(), 0)


def test_degenerate_spectrum_rejected(g):
    import dataclasses

    b = lax_matrix(point(2, seed=57), g)
    flat = dataclasses.replace(b, matrix=np.eye(4))
    with pytest.raises(DualityError):
        dual_angles(flat)
