import numpy as np
import numpy.testing as npt
import pytest

from vandiejen.phase_space import (
    DEFAULT_ETA_RANGE,
    DEFAULT_XI_GAP,
    DEFAULT_XI_RANGE,
    Coupling,
    PhasePoint,
    PhaseSpaceError,
    require_valid,
    sample,
)


def _reference_sample(n, seed):
    """(xi, eta) of the first accepted attempt, drawing and testing one attempt at a time."""
    lo, hi = DEFAULT_XI_RANGE
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        xi = np.sort(rng.uniform(lo, hi, size=n))[::-1]
        if n == 1 or np.min(-np.diff(xi)) >= DEFAULT_XI_GAP:
            return xi, rng.uniform(*DEFAULT_ETA_RANGE, size=n)
    raise PhaseSpaceError("could not realize the requested minimal gap")


def test_validate_ordered_point():
    require_valid(PhasePoint(xi=[1.0, 0.5], eta=[0.0, 0.0]))


def test_validate_reversed_order():
    with pytest.raises(PhaseSpaceError) as exc:
        require_valid(PhasePoint(xi=[0.5, 1.0], eta=[0.0, 0.0]))
    assert str(exc.value) == "xi[0] - xi[1] = -5.000e-01 below gap"


def test_validate_positivity_margin():
    with pytest.raises(PhaseSpaceError) as exc:
        require_valid(PhasePoint(xi=[1e-9], eta=[0.0]))
    assert str(exc.value) == "xi[0] = 1.000e-09 below gap"


def test_require_valid_names_every_violation_of_the_first_invalid_point():
    stack = PhasePoint(
        xi=[[2.0, 1.0, 0.5], [1.0, 1.0, 1e-9], [0.1, 0.2, 0.3]], eta=np.zeros((3, 3))
    )
    with pytest.raises(PhaseSpaceError) as exc:
        require_valid(stack)
    assert str(exc.value) == "xi[0] - xi[1] = 0.000e+00 below gap; xi[2] = 1.000e-09 below gap"


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
    assert Coupling(0.7, 0.4).is_regular()
    assert not Coupling(0.0, 0.4).in_base_class()
    # a non-finite coupling is outside, with no sin evaluated (it would warn)
    assert not Coupling(np.inf, 0.4).in_base_class()
    assert not Coupling(0.7, -np.inf).is_regular()
    # sin(2 mu - nu) = 0 here: base class but not regular
    g = Coupling(0.7, 1.4)
    assert g.in_base_class() and not g.is_regular()


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
        require_valid(sample(n, seed=7), gap=DEFAULT_XI_GAP)


def test_sample_respects_bounds():
    for n in (1, 3):
        p = sample(n, seed=0)
        assert np.all((DEFAULT_XI_RANGE[0] <= p.xi) & (p.xi <= DEFAULT_XI_RANGE[1]))
        assert np.all((DEFAULT_ETA_RANGE[0] <= p.eta) & (p.eta <= DEFAULT_ETA_RANGE[1]))


def test_sample_rejects_infeasible_bounds():
    # 12 steps of DEFAULT_XI_GAP fill the box DEFAULT_XI_RANGE; 13 do not fit
    with pytest.raises(PhaseSpaceError, match="infeasible position bounds"):
        sample(14, seed=0)


@pytest.mark.parametrize("n", range(1, 13))
def test_sample_equals_one_attempt_at_a_time(n):
    # bit for bit, and the same error where every attempt fails (most seeds at n = 9, all above)
    for seed in range(200):
        try:
            xi, eta = _reference_sample(n, seed)
        except PhaseSpaceError as exc:
            with pytest.raises(PhaseSpaceError) as got:
                sample(n, seed)
            assert str(got.value) == str(exc)
            continue
        p = sample(n, seed)
        assert np.array_equal(p.xi.view(np.uint64), xi.view(np.uint64))
        assert np.array_equal(p.eta.view(np.uint64), eta.view(np.uint64))


# contiguous, scattered with a repeat and a three-word seed, and every seed of
# the one-at-a-time test above
SEED_STACKS = [range(0, 12), [40, 3, 3, 9, 10**23], range(0, 200)]


@pytest.mark.parametrize("seeds", SEED_STACKS, ids=["contiguous", "scattered", "all"])
@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_sample_equals_one_seed_at_a_time(n, seeds):
    # bit for bit; where a seed runs out, the oracle's error of the first such seed
    expected = []
    for seed in seeds:
        try:
            expected.append(_reference_sample(n, seed))
        except PhaseSpaceError as exc:
            with pytest.raises(PhaseSpaceError) as got:
                sample(n, seeds)
            assert str(got.value) == str(exc)
            return
    p = sample(n, seeds)
    assert p.xi.shape == (len(seeds), n)
    for k, (xi, eta) in enumerate(expected):
        assert np.array_equal(p.xi[k].view(np.uint64), xi.view(np.uint64))
        assert np.array_equal(p.eta[k].view(np.uint64), eta.view(np.uint64))


@pytest.mark.parametrize("n", [1, 4, 6])
def test_one_seed_is_row_0_of_its_stack_of_one(n):
    one, stack = sample(n, 17), sample(n, [17])
    assert one.xi.shape == (n,) and stack.xi.shape == (1, n)
    assert np.array_equal(one.as_vector().view(np.uint64), stack.as_vector()[0].view(np.uint64))
