import numpy as np
import numpy.testing as npt
import pytest
from mpmath import mp

from vandiejen.lax import (
    LaxError,
    commutation_residual,
    conjugation_matrix,
    lax_matrix,
)
from vandiejen.phase_space import Coupling, PhasePoint, PhaseSpaceError

from conftest import point, trace_power_observable


def mp_z(xi, mu, nu, a):
    """Extended-precision oracle for the z coefficient (50 digits)."""
    with mp.workdps(50):
        val = -mp.sinh(1j * mp.mpf(nu) + 2 * mp.mpf(xi[a])) / mp.sinh(2 * mp.mpf(xi[a]))
        for c in range(len(xi)):
            if c == a:
                continue
            for s in (mp.mpf(xi[a]) - mp.mpf(xi[c]), mp.mpf(xi[a]) + mp.mpf(xi[c])):
                val *= mp.sinh(1j * mp.mpf(mu) + s) / mp.sinh(s)
        return complex(val)


def test_z_single_particle_forced_value():
    # at nu = pi/2: sinh(i pi/2 + x) = i cosh(x), so z = -i coth(2 lambda)
    g = Coupling(0.7, np.pi / 2)
    z = lax_matrix(PhasePoint(xi=[0.5], eta=[0.0]), g).z[0]
    assert z == pytest.approx(-1j / np.tanh(1.0), abs=1e-14)


def test_u_is_modulus_of_z(g):
    b = lax_matrix(point(3, seed=2), g)
    for a in range(3):
        assert abs(b.z[a]) == pytest.approx(b.u[a], abs=1e-12)


def test_u_single_particle_forced_value():
    g = Coupling(0.7, np.pi / 2)
    u = lax_matrix(PhasePoint(xi=[0.5], eta=[0.0]), g).u[0]
    assert u == pytest.approx(1.0 / np.tanh(1.0), abs=1e-14)


def test_u_tends_to_one_far_away(g):
    u = lax_matrix(PhasePoint(xi=[20.0], eta=[0.0]), g).u[0]
    assert abs(u - 1.0) < 1e-30


def test_z_matches_extended_precision_oracle(g):
    p = point(2, seed=9)
    z = lax_matrix(p, g).z
    for a in range(2):
        ref = mp_z(p.xi, g.mu, g.nu, a)
        assert abs(z[a] - ref) <= 1e-13 * abs(ref)


def test_f_vector_recovers_z(g):
    b = lax_matrix(point(3, seed=4), g)
    for a in range(3):
        assert b.f[a] * np.conj(b.f[3 + a]) == pytest.approx(b.z[a], abs=1e-12)


def test_f_vector_modulus(g):
    p = point(2, seed=6)
    b = lax_matrix(p, g)
    for a in range(2):
        expect = np.exp(p.eta[a]) * b.u[a]
        assert abs(b.f[a]) ** 2 == pytest.approx(expect, rel=1e-13)


def test_f_vector_single_particle_oracle():
    g = Coupling(0.7, 0.4)
    p = PhasePoint(xi=[0.8], eta=[0.3])
    with mp.workdps(50):
        z = -mp.sinh(1j * mp.mpf("0.4") + mp.mpf("1.6")) / mp.sinh(mp.mpf("1.6"))
        u = abs(z)
        top = mp.e ** mp.mpf("0.15") * mp.sqrt(u)
        bot = mp.e ** mp.mpf("-0.15") * mp.conj(z) / mp.sqrt(u)
    f = lax_matrix(p, g).f
    assert f[0] == pytest.approx(complex(top), abs=1e-14)
    assert f[1] == pytest.approx(complex(bot), abs=1e-14)


def test_conjugation_matrix_squares_to_identity():
    c = conjugation_matrix(3)
    npt.assert_array_equal(c @ c, np.eye(6))


def test_single_particle_diagonal_entries(g):
    p = PhasePoint(xi=[0.8], eta=[0.3])
    b = lax_matrix(p, g)
    u = b.u[0]
    assert b.matrix[0, 0] == pytest.approx(np.exp(0.3) * u, abs=1e-13)
    assert b.matrix[1, 1] == pytest.approx(np.exp(-0.3) * u, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bundle_invariants(n, g):
    p = point(n, seed=n)
    b = lax_matrix(p, g)
    m = b.matrix
    scale = np.abs(m).max()
    assert np.abs(m - m.conj().T).max() <= 1e-12 * scale
    w = np.linalg.eigvalsh(m)
    assert w.min() > 0
    assert abs(np.linalg.det(m) - 1.0) <= 1e-8
    assert np.abs(w * w[::-1] - 1.0).max() <= 1e-8
    assert (b.u > 1.0).all()


def test_trace_is_twice_energy(g):
    p = point(3, seed=12)
    b = lax_matrix(p, g)
    expect = 2 * np.sum(np.cosh(p.eta) * b.u)
    assert np.trace(b.matrix).real == pytest.approx(expect, rel=1e-12)
    assert trace_power_observable(b, 1) == pytest.approx(2 * b.energy, rel=1e-12)


def test_trace_power_matches_spectrum(g):
    p = point(2, seed=15)
    b = lax_matrix(p, g)
    w = np.linalg.eigvalsh(b.matrix)
    for k in (2, 3):
        assert trace_power_observable(b, k) == pytest.approx(np.sum(w ** k), rel=1e-8)


def test_commutation_residual_on_shell(g):
    for n in (1, 2, 3):
        b = lax_matrix(point(n, seed=20 + n), g)
        assert commutation_residual(b) <= 1e-11 * np.abs(b.matrix).max()


def test_commutation_residual_off_shell(g):
    import dataclasses

    b = lax_matrix(point(2, seed=25), g)
    perturbed = b.matrix.copy()
    perturbed[0, 1] += 1e-3
    bad = dataclasses.replace(b, matrix=perturbed)
    assert commutation_residual(bad) >= 1e-4


def test_rejects_base_class_violation():
    with pytest.raises(PhaseSpaceError):
        lax_matrix(point(2, seed=1), Coupling(0.0, 0.4))


def test_rejects_coordinate_overflow(g):
    with pytest.raises(LaxError):
        lax_matrix(PhasePoint(xi=[301.0], eta=[0.0]), g)


def test_rejects_bad_index(g):
    with pytest.raises(LaxError):
        trace_power_observable(lax_matrix(point(1, seed=1), g), 0)
