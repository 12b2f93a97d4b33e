import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.phase_space import (
    Coupling,
    PhasePoint,
    PhaseSpaceError,
    sample,
    validate,
)


def test_validate_ordered_point():
    assert validate(PhasePoint(xi=[1.0, 0.5], eta=[0.0, 0.0])) == []


def test_validate_reversed_order():
    bad = validate(PhasePoint(xi=[0.5, 1.0], eta=[0.0, 0.0]))
    assert len(bad) == 1 and bad[0].kind == "order" and bad[0].index == 0


def test_validate_positivity_margin():
    bad = validate(PhasePoint(xi=[1e-9], eta=[0.0]))
    assert len(bad) == 1 and bad[0].kind == "positivity"


def test_point_rejects_non_finite():
    with pytest.raises(PhaseSpaceError):
        PhasePoint(xi=[np.inf], eta=[0.0])


def test_point_rejects_length_mismatch():
    with pytest.raises(PhaseSpaceError):
        PhasePoint(xi=[1.0, 0.5], eta=[0.0])


def test_vector_round_trip():
    p = PhasePoint(xi=[1.2, 0.4], eta=[-0.3, 0.8])
    q = PhasePoint.from_vector(p.as_vector())
    npt.assert_array_equal(p.xi, q.xi)
    npt.assert_array_equal(p.eta, q.eta)


def test_coupling_classes():
    assert Coupling(0.7, 0.4).is_strongly_regular()
    assert not Coupling(0.0, 0.4).in_base_class()
    # sin(2 mu - nu) = 0 here: base class but not regular
    g = Coupling(0.7, 1.4)
    assert g.in_base_class() and not g.is_regular()
    # cos(mu - nu) = 0: regular but not strongly regular
    g = Coupling(0.7, 0.7 - np.pi / 2)
    assert g.is_regular() and not g.is_strongly_regular()


def test_require_regular_raises():
    with pytest.raises(PhaseSpaceError):
        Coupling(0.7, 1.4).require_regular()


def test_hat_is_exact_involution():
    g = Coupling(0.7, 0.4)
    h = g.hat()
    assert (h.mu, h.nu) == (-0.7, -0.4)
    back = h.hat()
    assert back.mu == g.mu and back.nu == g.nu


def test_hat_preserves_regularity():
    g = Coupling(0.7, 0.4)
    assert g.hat().is_regular()


def test_sample_deterministic():
    a = sample(2, seed=1)
    b = sample(2, seed=1)
    npt.assert_array_equal(a.as_vector(), b.as_vector())


def test_sample_is_valid():
    for n in (1, 2, 3, 5):
        assert validate(sample(n, seed=7)) == []


def test_sample_respects_bounds():
    p = sample(1, seed=0, xi_range=(0.2, 2.0), eta_range=(-1.0, 1.0))
    assert 0.2 <= p.xi[0] <= 2.0
    assert -1.0 <= p.eta[0] <= 1.0


def test_sample_rejects_infeasible_bounds():
    with pytest.raises(PhaseSpaceError):
        sample(5, seed=0, xi_range=(0.3, 0.6), xi_gap=0.2)
