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
    raise_first,
    require_valid,
    sample,
)

from conftest import rejection_sample


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


@pytest.mark.parametrize("bad, first", [
    (np.array(True), ()),
    (np.array([False, False, True, True]), (2,)),
    (np.array([[False, False, False], [False, True, False], [True, False, False]]), (1, 1)),
    (np.array([[False, True], [True, False]]), (0, 1)),
])
def test_raise_first_names_the_first_failing_unit_in_c_order(bad, first):
    with pytest.raises(PhaseSpaceError) as exc:
        raise_first(bad, PhaseSpaceError, lambda i: f"unit {tuple(map(int, i))}")
    assert str(exc.value) == f"unit {first}"


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_raise_first_passes_when_no_unit_fails(shape):
    raise_first(np.zeros(shape, dtype=bool), PhaseSpaceError, lambda i: pytest.fail("no unit fails"))


def test_require_valid_names_the_first_invalid_point_of_a_two_axis_stack():
    xi = np.tile([2.0, 1.0, 0.5], (2, 2, 1))
    xi[1, 0] = [1.0, 2.0, 0.5]
    xi[1, 1] = [2.0, 1.0, -1.0]
    with pytest.raises(PhaseSpaceError) as exc:
        require_valid(PhasePoint(xi=xi, eta=np.zeros(xi.shape)))
    assert str(exc.value) == "xi[0] - xi[1] = -1.000e+00 below gap"


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
    # 11 steps of DEFAULT_XI_GAP fill the box DEFAULT_XI_RANGE; 12 do not fit
    lo, hi = DEFAULT_XI_RANGE
    with pytest.raises(PhaseSpaceError) as exc:
        sample(13, seed=0)
    assert str(exc.value) == f"infeasible position bounds ({lo}, {hi}) for n=13, gap={DEFAULT_XI_GAP}"


@pytest.mark.parametrize("seeds", [[], range(5, 5)], ids=["list", "range"])
def test_sample_rejects_an_empty_seed_list(seeds):
    with pytest.raises(PhaseSpaceError) as exc:
        sample(2, seeds)
    assert str(exc.value) == "a stack of points needs at least one seed"


@pytest.mark.parametrize("seeds", [-1, [4, -3], range(-1, 3)])
def test_sample_rejects_a_negative_seed(seeds):
    # the library's own error, not numpy's untyped ValueError
    with pytest.raises(PhaseSpaceError, match="^a seed must be non-negative, got -[13]$"):
        sample(2, seeds)


def _one_attempt(n, seed):
    """(xi, eta) of the constructive rule drawn with rng.uniform from a fresh
    default_rng(seed): sorted positions in a box of side slack, shifted up by
    the minimum gaps."""
    lo, hi = DEFAULT_XI_RANGE
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0.0, hi - lo - (n - 1) * DEFAULT_XI_GAP, size=n))[::-1]
    xi = lo + y + DEFAULT_XI_GAP * np.arange(n - 1, -1, -1)
    return xi, rng.uniform(*DEFAULT_ETA_RANGE, size=n)


@pytest.mark.parametrize("n", range(1, 13))
def test_sample_equals_one_attempt_at_a_time(n):
    # every point is one attempt, bit for bit, at every feasible n
    for seed in range(200):
        xi, eta = _one_attempt(n, seed)
        p = sample(n, seed)
        assert np.array_equal(p.xi.view(np.uint64), xi.view(np.uint64))
        assert np.array_equal(p.eta.view(np.uint64), eta.view(np.uint64))


# contiguous, scattered with a repeat and a three-word seed, and every seed of
# the one-attempt test above
SEED_STACKS = [range(0, 12), [40, 3, 3, 9, 10**23], range(0, 200)]


@pytest.mark.parametrize("seeds", SEED_STACKS, ids=["contiguous", "scattered", "all"])
@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_sample_equals_one_seed_at_a_time(n, seeds):
    # bit for bit
    p = sample(n, seeds)
    assert p.xi.shape == (len(seeds), n)
    for k, seed in enumerate(seeds):
        alone = sample(n, seed).as_vector()
        assert np.array_equal(p.as_vector()[k].view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("n", [1, 4, 6])
def test_one_seed_is_row_0_of_its_stack_of_one(n):
    one, stack = sample(n, 17), sample(n, [17])
    assert one.xi.shape == (n,) and stack.xi.shape == (1, n)
    assert np.array_equal(one.as_vector().view(np.uint64), stack.as_vector()[0].view(np.uint64))


def _ks_distance(a, b):
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return np.abs(
        np.searchsorted(a, at, side="right") / len(a) - np.searchsorted(b, at, side="right") / len(b)
    ).max()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sample_has_the_law_of_drawing_boxes_until_one_clears_the_gaps(n):
    # each coordinate of 2000 points against 2000 rejection draws from other
    # seeds, two-sample KS at level alpha = 1e-3 each: the asymptotic critical
    # distance is c sqrt(2 / 2000), c = sqrt(-ln(alpha / 2) / 2) = 1.949
    size, alpha = 2000, 1e-3
    p = sample(n, range(size, 2 * size))
    ref = np.array([np.concatenate(rejection_sample(n, seed)) for seed in range(size)])
    critical = np.sqrt(-np.log(alpha / 2) / 2) * np.sqrt(2 / size)
    for column in range(2 * n):
        assert _ks_distance(p.as_vector()[:, column], ref[:, column]) < critical, column


@pytest.mark.parametrize("n", range(2, 13))
def test_sample_steps_clear_the_gap(n):
    # at every n the box holds, n = 9..12 included, where the rejection
    # sampler ran out of its 1000 attempts for most seeds.  xi_a - xi_{a+1} is
    # slack (s_a - s_{a+1}) + DEFAULT_XI_GAP before rounding; each position
    # takes four roundings of half an ulp of hi at most, so a step may fall
    # short of the gap by 4 ulps of hi (at n = 12, where the slack is 0, steps
    # read 0.625 ulps short)
    lo, hi = DEFAULT_XI_RANGE
    p = sample(n, range(1, 501))
    steps = -np.diff(p.xi, axis=-1)
    assert steps.min() >= DEFAULT_XI_GAP - 4 * np.spacing(hi)
    assert p.xi.min() >= lo and p.xi.max() <= hi
