import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.duality import (
    DualityError,
    _dual_lax_routes,
    _phase_fix,
    dual_frame,
    minor_identity_residuals,
)
from vandiejen.lax import conjugation_matrix, lax_matrix
from vandiejen.phase_space import PhasePoint, PhaseSpaceError

from conftest import point


def diagonalizer(b):
    """(theta_hat, y_hat, f_hat) of the frame at one bundle's point."""
    frame = dual_frame(b.point, b.coupling)
    return frame.theta_hat, frame.y_hat, frame.f_hat


def test_dual_angles_single_particle_closed_form(g):
    # 2x2 matrix with det 1 and trace 2H: eigenvalues e^{+-2 theta},
    # so theta = arccosh(H) / 2.
    p = point(1, seed=3)
    b = lax_matrix(p, g)
    theta = diagonalizer(b)[0]
    assert theta[0] == pytest.approx(0.5 * np.arccosh(b.energy), rel=1e-12)


def test_dual_angles_descending_positive(g):
    th = diagonalizer(lax_matrix(point(4, seed=5), g))[0]
    assert (np.diff(th) < 0).all() and th[-1] > 0


def test_conjugation_intertwines_inverse(g):
    b = lax_matrix(point(3, seed=8), g)
    lhs = b.c @ b.matrix @ b.c
    rhs = np.linalg.inv(b.matrix)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonalizer_structure(n, g):
    b = lax_matrix(point(n, seed=10 + n), g)
    theta, y, _ = diagonalizer(b)
    eye = np.eye(2 * n)
    assert np.abs(y.conj().T @ y - eye).max() <= 1e-12
    assert np.abs(y.conj().T @ b.c @ y - b.c).max() <= 1e-12
    rebuilt = y @ np.diag(np.exp(2 * np.concatenate([theta, -theta]))) @ y.conj().T
    assert np.abs(rebuilt - b.matrix).max() <= 1e-11 * np.abs(b.matrix).max()


def test_diagonalizer_invariant_under_basis_rephasing(g):
    from vandiejen.linalg import hermitian_eig

    b = lax_matrix(point(3, seed=14), g)
    theta, y_ref, _ = diagonalizer(b)
    v = hermitian_eig(b.matrix).basis[:, ::-1][:, :3]
    phases = np.exp(1j * np.array([0.3, -1.1, 2.4]))
    v = v * phases[None, :]
    y_alt, _ = _phase_fix(b.lam, b.f, theta, np.concatenate([v, b.c @ v], axis=-1))
    assert np.abs(y_alt - y_ref).max() <= 1e-9


def test_dual_f_positivity_and_modulus(g):
    frame = dual_frame(point(3, seed=17), g)
    n = frame.n
    assert np.abs(frame.f_hat[:n].imag).max() <= 1e-12
    assert (frame.f_hat[:n].real > 0).all()
    # |F_hat_c|^2 = e^{lambda_hat_c} u_hat_c
    expect = np.exp(frame.lambda_hat) * frame.u_hat
    npt.assert_allclose(np.abs(frame.f_hat[:n]) ** 2, expect, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_hat_is_the_transformed_vector_of_the_fixed_basis(n, g):
    # the phase fix twists the unfixed product; it must equal
    # e^{-Theta_hat} y_hat^{-1} e^{Lam} F formed with the fixed basis
    frame = dual_frame(point(n, seed=60 + n), g)
    b = frame.bundle
    direct = np.exp(-frame.big_theta) * (frame.y_hat.conj().T @ (np.exp(b.lam) * b.f))
    assert np.abs(frame.f_hat - direct).max() <= 1e-12 * np.abs(direct).max()
    npt.assert_array_equal(frame.f_hat[:n].imag, 0.0)


def test_dual_z_matches_closed_form(g):
    # the closed form is the Lax coefficient z at the dual point, flipped coupling
    frame = dual_frame(point(3, seed=19), g)
    closed = lax_matrix(frame.image, g.hat()).z
    for c in range(3):
        ref = closed[c]
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
    frame = dual_frame(point(n, seed=31 + n), g)
    l_hat, entrywise, pushforward = _dual_lax_routes(frame, lax_matrix(frame.image, g.hat()))
    scale = np.abs(l_hat).max()
    assert np.abs(l_hat - entrywise).max() <= 1e-9 * scale
    assert np.abs(l_hat - pushforward).max() <= 1e-8 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_duality_is_involution(n, g):
    p = point(n, seed=40 + n)
    q = dual_frame(p, g).image
    back = dual_frame(q, g.hat()).image
    assert np.abs(back.xi - p.xi).max() <= 1e-7
    assert np.abs(back.eta - p.eta).max() <= 1e-7


def test_image_is_valid_phase_point(g):
    from vandiejen.phase_space import require_valid

    require_valid(dual_frame(point(4, seed=50), g).image)


def test_dual_u_exceeds_one(g):
    frame = dual_frame(point(3, seed=52), g)
    assert (lax_matrix(frame.image, g.hat()).u > 1.0).all()


def test_two_particle_oracle_via_quadratic_formula(g):
    # independent eigenvalue route for n=1: 2x2 characteristic polynomial
    p = PhasePoint(xi=[0.8], eta=[0.3])
    b = lax_matrix(p, g)
    tr = np.trace(b.matrix).real
    w_plus = (tr + np.sqrt(tr * tr - 4.0)) / 2.0
    theta = diagonalizer(b)[0]
    assert theta[0] == pytest.approx(0.5 * np.log(w_plus), rel=1e-12)


def test_closed_form_rejects_bad_angles(g):
    # the closed form is read at a dual point, which must be ordered and positive
    for angles in ([0.2, 0.5], [0.5, -0.2]):
        with pytest.raises(PhaseSpaceError):
            lax_matrix(PhasePoint(xi=angles, eta=[0.0, 0.0]), g.hat())


def test_degenerate_spectrum_rejected(g, monkeypatch):
    import dataclasses

    from vandiejen import duality

    b = lax_matrix(point(2, seed=57), g)
    flat = dataclasses.replace(b, matrix=np.eye(4))
    monkeypatch.setattr(duality, "lax_matrix", lambda p, g: flat)
    with pytest.raises(DualityError):
        diagonalizer(flat)
