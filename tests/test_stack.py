"""Points as one stack: each point of a stacked pass, a battery's sampled
points or the bracket stencil, gets bit-for-bit the numbers of that point
alone, and a check that fails at some point of the stack raises its typed
error, for the first such point in stack order at the earliest stage that
fails; a failing flow of the bracket stencil is the battery's error instead,
that of its first failing stencil point."""
import csv
import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from vandiejen import Coupling, PhasePoint, asymptotics, brackets, cli, duality, dynamics
from vandiejen.checks import BATTERIES
from vandiejen.cli import EXIT_FAIL, main
from vandiejen.duality import DualityError, _spectrum, dual_frame
from vandiejen.dynamics import DynamicsError, _flow_units, projection_flow
from vandiejen.lax import energy, lax_matrix
from vandiejen.linalg import hermitian_eig
from vandiejen.phase_space import PhaseSpaceError

from conftest import flow_states, point

COUPLINGS = [Coupling(0.7, 0.4), Coupling(1.3, 0.2), Coupling(2.0, 1.0)]
STEP = brackets.DEFAULT_STEP


def stencil(p, step=STEP):
    """The central-difference stencil of p in evaluation order: +step, then
    -step, on each coordinate in turn."""
    x0 = p.as_vector()
    out = []
    for k in range(len(x0)):
        for sign in (1.0, -1.0):
            x = x0.copy()
            x[k] += sign * step
            out.append(x)
    return np.array(out)


def joint_map_oracle(q, g):
    """(spectral image, time-1 flow) at one point, through the public per-point routes."""
    return np.concatenate([dual_frame(q, g).image.as_vector(), projection_flow(q, g, 1.0).as_vector()])


def spectral_map_oracle(q, g):
    """The spectral image alone at one point."""
    return dual_frame(q, g).image.as_vector()


def jacobian_oracle(p, g, step=STEP, oracle=joint_map_oracle):
    """A map's central-difference Jacobian, one point at a time: by default
    the joint map's."""
    x0 = p.as_vector()
    cols = []
    for k in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        fp = oracle(PhasePoint.from_vector(xp), g)
        fm = oracle(PhasePoint.from_vector(xm), g)
        cols.append((fp - fm) / (2.0 * step))
    return np.array(cols).T


def stacked_jacobian(p, g, step=STEP):
    return brackets._map_jacobian(lambda x: brackets._spectral_and_flow(x, g)[0], p, step)


def test_map_jacobian_evaluates_the_stencil_in_order():
    p = point(2, seed=3)
    seen = []
    brackets._map_jacobian(lambda x: seen.append(x) or np.zeros((len(x), 1)), p, STEP)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], stencil(p))


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_stacked_jacobian_equals_the_pointwise_oracle(n, seed, g):
    p = point(n, seed=seed)
    try:
        expected = jacobian_oracle(p, g)
    except DynamicsError as exc:
        # n = 8 at the larger couplings: the time-1 flow passes the exponent cap
        # at some stencil point.  Its flow is nan, the spectral block stays, and
        # the battery names the oracle's error, after the point's index.
        got, spectral = stacked_jacobian(p, g), jacobian_oracle(p, g, oracle=spectral_map_oracle)
        np.testing.assert_array_equal(got[: 2 * n], spectral)
        assert np.isnan(got[2 * n :]).any()
        assert brackets.symplectic_residuals(p, g)["error"] == f"point 0: {exc}"
        return
    np.testing.assert_array_equal(stacked_jacobian(p, g), expected)


def test_stacked_jacobian_equals_the_oracle_where_the_row_fails():
    # brackets --n 3 --seed 2529 fails its angle_angle check from truncation
    p, g = point(3, seed=2529), Coupling(0.7, 0.4)
    np.testing.assert_array_equal(stacked_jacobian(p, g), jacobian_oracle(p, g))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_stacked_frames_and_flow_steps_equal_each_point_alone(n):
    g = Coupling(0.7, 0.4)
    x = np.concatenate([stencil(point(n, seed=2), 1e-3), stencil(point(n, seed=5), 1e-3)])
    frame = dual_frame(PhasePoint.from_vector(x.reshape(2, -1, 2 * n)), g)
    for t in (1.0, -0.7):
        xi_t, eta_t, failed, _ = _flow_units(frame.bundle, frame.theta_hat, frame.basis, t)
        assert failed.shape == (len(x),) and not failed.any()
        flowed = np.concatenate([xi_t, eta_t], axis=-1).reshape(len(x), 2 * n)
        for i, row in enumerate(x):
            alone = projection_flow(PhasePoint.from_vector(row), g, t)
            np.testing.assert_array_equal(flowed[i], alone.as_vector())
    for i, row in enumerate(x):
        fr = dual_frame(PhasePoint.from_vector(row), g)
        for name in ("theta_hat", "y_hat", "f_hat", "z_hat", "u_hat", "lambda_hat"):
            got = getattr(frame, name)
            want = getattr(fr, name)
            np.testing.assert_array_equal(got.reshape((len(x),) + want.shape)[i], want)
        b = frame.bundle
        np.testing.assert_array_equal(b.matrix.reshape(len(x), 2 * n, 2 * n)[i], fr.bundle.matrix)
        assert b.energy.reshape(-1)[i] == fr.bundle.energy


def stack_of(points):
    return PhasePoint(xi=np.stack([p.xi for p in points]), eta=np.stack([p.eta for p in points]))


def test_projection_flow_of_a_stack_equals_each_point_alone():
    # n = 6 at (1.3, 0.2): seeds 1 and 3 both flow to t = 1, and at t = 4
    # seed 3 alone passes the exponent range cap, which the stack raises
    g, points = Coupling(1.3, 0.2), [point(6, seed=1), point(6, seed=3)]
    flowed = projection_flow(stack_of(points), g, 1.0)
    assert flowed.xi.shape == (2, 6)
    for q, row in zip(points, flowed.as_vector()):
        np.testing.assert_array_equal(row, projection_flow(q, g, 1.0).as_vector())
    projection_flow(points[0], g, 4.0)
    message = "flow exponent range 751.5 exceeds the double range cap at t=4.0"
    for p in (points[1], stack_of(points)):
        with pytest.raises(DynamicsError, match=f"^{re.escape(message)}$"):
            projection_flow(p, g, 4.0)


@pytest.mark.parametrize("g", COUPLINGS, ids=str)
@pytest.mark.parametrize(
    "name, seeds, n",
    # n = 8 and 12 cross numpy's 8-wide pairwise summation block
    [(name, 20, n) for name in ("lax-check", "duality", "scatter") for n in (1, 2, 3, 4, 6, 8, 12)]
    + [("brackets", 3, n) for n in (1, 2, 3, 4, 6)],
)
def test_stacked_battery_rows_equal_each_point_alone(name, seeds, n, g):
    residuals = BATTERIES[name].residuals
    points = [point(n, seed=seed) for seed in range(1, seeds + 1)]
    columns = residuals(stack_of(points), g)
    # the battery's one error line, not a column: None where no flow fails
    assert columns.pop("error", None) is None
    for i, p in enumerate(points):
        alone = residuals(p, g)
        assert alone.pop("error", None) is None
        assert {c: v[i] for c, v in columns.items()} == alone


def _spectral_gaps_at(p, g):
    """The smallest relative spectral gap at p, as the angle check forms it."""
    w, _ = hermitian_eig(lax_matrix(p, g).matrix)
    return ((w[1:] - w[:-1]) / np.abs(w[1:])).min()


def _spectral_gaps(p, g):
    """Each stencil point's smallest relative spectral gap."""
    return np.array([_spectral_gaps_at(PhasePoint.from_vector(row), g) for row in stencil(p)])


def _exponent_ranges(p, g):
    """Each stencil point's flow exponent range at t = 1."""
    out = []
    for row in stencil(p):
        b = lax_matrix(PhasePoint.from_vector(row), g)
        beta, _ = hermitian_eig(b.matrix - b.c @ b.matrix @ b.c)
        out.append(np.ptp(b.lam) + 0.5 * np.ptp(beta))
    return np.array(out)


def _between_lowest(values):
    """A threshold that only the points holding the smallest value fall below."""
    low = np.unique(values)
    return 0.5 * (low[0] + low[1]), np.flatnonzero(values == low[0])


P_FAIL, G_FAIL = point(3, seed=4), Coupling(0.7, 0.4)


def test_first_failing_stencil_point_raises_the_typed_error(monkeypatch):
    gaps = _spectral_gaps(P_FAIL, G_FAIL)
    tol, failing = _between_lowest(gaps)
    assert failing[0] > 0  # the failure sits partway through the stack
    monkeypatch.setattr(duality, "SPECTRAL_GAP_TOL", tol)
    with pytest.raises(DualityError, match=f"smallest relative gap {gaps[failing[0]]:.3e}$"):
        brackets.symplectic_residuals(P_FAIL, G_FAIL)

    # a failing time-1 flow is the battery's error, and the row's flow_symplectic is nan
    ranges = _exponent_ranges(P_FAIL, G_FAIL)
    cap, failing = _between_lowest(-ranges)
    assert failing[0] > 0
    monkeypatch.setattr(duality, "SPECTRAL_GAP_TOL", 1e-7)
    monkeypatch.setattr(dynamics, "EXPONENT_RANGE_CAP", -cap)
    columns = brackets.symplectic_residuals(P_FAIL, G_FAIL)
    # the failing stencil point lies past the first, and its point is point 0
    assert re.search("flow exponent range .* at t=1.0$", columns["error"])
    assert columns["error"].startswith(f"point 0: flow exponent range {ranges[failing[0]]:.4g} ")
    assert np.isnan(columns["flow_symplectic"])


def test_the_earliest_failing_stage_wins(monkeypatch):
    # a flow failure at one stencil point and a spectral failure at a later
    # one: the spectral stage runs first, so its error is raised
    gaps, ranges = _spectral_gaps(P_FAIL, G_FAIL), _exponent_ranges(P_FAIL, G_FAIL)
    tol, gap_failing = _between_lowest(gaps)
    cap, range_failing = _between_lowest(-ranges)
    assert range_failing[0] < gap_failing[0]
    monkeypatch.setattr(duality, "SPECTRAL_GAP_TOL", tol)
    monkeypatch.setattr(dynamics, "EXPONENT_RANGE_CAP", -cap)
    with pytest.raises(DualityError):
        brackets.symplectic_residuals(P_FAIL, G_FAIL)


def test_the_first_failing_flow_unit_wins_over_a_later_units_earlier_check(monkeypatch):
    # unit 0 fails the last check, the collision, and unit 1 the first, the
    # range cap: a report and a raise both name unit 0's collision, the first
    # failing unit's first check.  Lam = (x, x, -x, -x) makes e^{2 Lam} a
    # double eigenvalue, which t = 1e-13 splits by far less than the gap
    # tolerance.
    bundle = lax_matrix(point(2, seed=3), G_FAIL)
    x = bundle.lam[0]
    twin = dataclasses.replace(bundle, lam=np.array([x, x, -x, -x]))
    spectrum, t = _spectrum(bundle), np.array([1e-13, 1e6])
    _, _, failed, reason = _flow_units(twin, *spectrum, t)
    assert failed.tolist() == [True, True]
    assert reason(0).startswith("eigenvalue collision along the flow: relative gap ")
    assert re.fullmatch(r"flow exponent range .* at t=1000000\.0", reason(1))
    # projection_flow raises the first failing unit's reason, here the twin's
    flow_units, p = dynamics._flow_units, point(2, seed=3)
    monkeypatch.setattr(dynamics, "_flow_units", lambda *_: flow_units(twin, *spectrum, t))
    with pytest.raises(DynamicsError, match=f"^{re.escape(reason(0))}$"):
        projection_flow(p, G_FAIL, 1.0)
    monkeypatch.setattr(dynamics, "_flow_units", lambda *_: flow_units(twin, *spectrum, t[::-1]))
    with pytest.raises(DynamicsError, match=f"^{re.escape(reason(1))}$"):
        projection_flow(p, G_FAIL, 1.0)


def test_stencil_failure_ends_the_command_in_one_error_line(monkeypatch, tmp_path, capsys):
    tol, _ = _between_lowest(_spectral_gaps(P_FAIL, G_FAIL))
    monkeypatch.setattr(duality, "SPECTRAL_GAP_TOL", tol)
    out = tmp_path / "out.csv"
    argv = ["brackets", "--n", "3", "--seed", "4", "--points", "1", "--out", str(out)]
    assert main(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate spectrum") and err.count("\n") == 1
    assert not out.exists()


def test_a_failing_stencil_flow_is_named_by_its_point(tmp_path, capsys):
    # seeds 4 and 5 at n = 8, (1.3, 0.2): only point 1's stencil flow passes
    # the exponent range cap, so the report keeps both rows and its one error
    # line names point 1, the point of the first failing stencil unit
    out = tmp_path / "out.csv"
    argv = ["brackets", "--n", "8", "--mu", "1.3", "--nu", "0.2", "--seed", "4",
            "--points", "2", "--out", str(out)]
    assert main(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: point 1: flow exponent range 1039 exceeds the double range cap at t=1.0\n"
    )
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["point"], row["passed"]) for row in rows] == [("0", "True"), ("1", "False")]


def test_battery_names_the_first_failing_point_of_its_stack(monkeypatch, tmp_path, capsys):
    # of the five points at seeds 10..14, only point 3 falls below this gap
    # tolerance: the command ends in one error line with that point's gap
    gaps = np.array([_spectral_gaps_at(point(3, seed=10 + k), G_FAIL) for k in range(5)])
    tol, failing = _between_lowest(gaps)
    assert list(failing) == [3]
    monkeypatch.setattr(duality, "SPECTRAL_GAP_TOL", tol)
    out = tmp_path / "out.csv"
    argv = ["duality", "--n", "3", "--seed", "10", "--points", "5", "--out", str(out)]
    assert main(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err == f"error: degenerate spectrum: smallest relative gap {gaps[3]:.3e}\n"
    assert not out.exists()


def test_a_later_unit_without_an_upper_half_spectrum_is_named(monkeypatch):
    # L = diag(w) with ascending w = (1/4, 1/2, 2, 4), (1/4, 0.8, 0.9, 4) and
    # (1/4, 0.4, 0.5, 4): a pairing tolerance of 1 lets the last two through,
    # and their upper halves hold 0.9 and 0.5, below 1.  The first of them is named.
    monkeypatch.setattr(duality, "PAIRING_TOL", 1.0)
    spectra = [[4.0, 2.0, 0.5, 0.25], [4.0, 0.9, 0.8, 0.25], [4.0, 0.5, 0.4, 0.25]]
    matrix = np.stack([np.diag(w) for w in spectra]).astype(complex)
    bundle = SimpleNamespace(n=2, c=np.eye(4)[::-1], matrix=matrix)
    message = f"upper half-spectrum not above 1: smallest angle {0.5 * np.log(0.9):.3e}"
    with pytest.raises(DualityError, match="^" + re.escape(message) + "$"):
        _spectrum(bundle)


def test_a_later_unit_with_a_vanishing_transformed_component_is_named(monkeypatch):
    # of the five points at seeds 6..10, only point 2 has a component of F_hat
    # below this tolerance, in its second half, which the positivity-normalizing
    # check before it does not read
    points = [point(3, seed=6 + k) for k in range(5)]
    frames = [dual_frame(p, G_FAIL) for p in points]
    moduli = np.array([np.abs(fr.f_hat).min() for fr in frames])
    tol, failing = _between_lowest(moduli)
    assert list(failing) == [2]
    assert min(np.abs(fr.f_hat[:3]).min() for fr in frames) > tol
    monkeypatch.setattr(duality, "PHASE_MODULUS_TOL", tol)
    message = f"vanishing component of the transformed vector: modulus {moduli[2]:.3e}"
    with pytest.raises(DualityError, match="^" + re.escape(message) + "$"):
        dual_frame(stack_of(points), G_FAIL)


# of the five points at seeds 10..14, point 3 alone has both the largest
# pairing residual and the smallest positivity-normalizing component
NAMED = stack_of([point(3, seed=10 + k) for k in range(5)])


def test_a_later_unit_failing_reciprocal_pairing_is_named(monkeypatch):
    w, _ = hermitian_eig(lax_matrix(NAMED, G_FAIL).matrix)
    worst = np.abs(w * w[..., ::-1] - 1.0).max(axis=-1)
    tol, failing = _between_lowest(-worst)
    assert list(failing) == [3]
    monkeypatch.setattr(duality, "PAIRING_TOL", -tol)
    message = f"spectrum fails reciprocal pairing: max residual {worst[3]:.3e}"
    with pytest.raises(DualityError, match="^" + re.escape(message) + "$"):
        dual_frame(NAMED, G_FAIL)


def test_a_later_unit_with_a_weak_positivity_normalizing_component_is_named(monkeypatch):
    # the first n components of F_hat are the moduli the phase fix divides by
    moduli = dual_frame(NAMED, G_FAIL).f_hat[:, :3].real.min(axis=-1)
    tol, failing = _between_lowest(moduli)
    assert list(failing) == [3]
    monkeypatch.setattr(duality, "PHASE_MODULUS_TOL", tol)
    message = (
        f"positivity-normalizing component has modulus {moduli[3]:.3e}; phase fix breaks down"
    )
    with pytest.raises(DualityError, match="^" + re.escape(message) + "$"):
        dual_frame(NAMED, G_FAIL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poisson_brackets_over_a_stack_equal_each_point_alone(n):
    g = Coupling(0.7, 0.4)
    points = [point(n, seed=s) for s in (2, 5, 9)]

    def phi(q):
        image = duality.dual_frame(q, g).image.as_vector()
        return np.concatenate([image, energy(q, g)[:, None]], axis=-1)

    stacked = brackets.poisson_brackets(phi, stack_of(points))
    assert stacked.shape == (3, 2 * n + 1, 2 * n + 1)
    for k, p in enumerate(points):
        np.testing.assert_array_equal(stacked[k], brackets.poisson_brackets(phi, p))


@pytest.mark.parametrize(
    "call",
    [
        lambda p, g: dynamics.rk_flow(p, g, [1.0]),
        lambda p, g: dynamics.vector_field(p, g),
        lambda p, g: dynamics.flow_residuals([1.0], p, g, "projection"),
    ],
    ids=["rk_flow", "vector_field", "flow_residuals"],
)
def test_single_point_routines_reject_a_stack(call):
    stack = stack_of([point(2, seed=1), point(2, seed=2)])
    with pytest.raises(PhaseSpaceError, match=r"expected one phase point, got a stack of shape"):
        call(stack, G_FAIL)


def _count_eigensolves(monkeypatch) -> list:
    """Record each np.linalg.eigh call from now on; the list grows by one per call."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_a_bracket_row_takes_one_eigensolve_for_its_whole_stack(monkeypatch):
    # the spectral block and the flow block read the one spectrum of L
    stack = stack_of([point(2, seed=s) for s in (1, 2, 3)])
    calls = _count_eigensolves(monkeypatch)
    brackets.symplectic_residuals(stack, G_FAIL)
    assert calls == [(3 * 4 * 2, 4, 4)]


def test_projection_outcomes_take_one_eigensolve_for_the_grid(monkeypatch):
    # the projection route's outcome at every time of a flow report
    calls = _count_eigensolves(monkeypatch)
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: svds.append(a.shape) or svd(a))
    grid = np.linspace(-2.0, 2.0, 9)
    columns = dynamics.flow_residuals(grid, point(3, seed=2), G_FAIL, "projection")
    assert columns["passed"].all() and len(columns["t"]) == 9 and len(calls) == 1
    assert svds == [(8, 6, 6)]  # every time but t = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [[0, 1, 1, -0.5, 0.5], np.arange(-1.0, 1.25, 0.5)], ids=str)
def test_projection_outcomes_equal_projection_flow_at_each_time(grid, n):
    # mixed signs, a repeated time and t = 0 in one stacked step
    p = point(n, seed=7)
    columns = dynamics.flow_residuals(grid, p, G_FAIL, "projection")
    for t, got in zip(grid, flow_states(columns, n)):
        want = p if t == 0 else projection_flow(p, G_FAIL, t)
        np.testing.assert_array_equal(got, want.as_vector())


def test_duality_identities_take_the_frames_at_p_and_at_the_dual_point(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    duality.identity_residuals(stack_of([point(3, seed=s) for s in (1, 2)]), G_FAIL)
    assert len(calls) == 2


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the (args, kwargs) of each call of owner.name from now on."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append((a, k)) or fn(*a, **k))
    return calls


def _battery_argv(battery: str) -> list:
    """The subcommand and option that run a battery of BATTERIES."""
    for command, option in (("asymptotics", "--kind"), ("flow", "--method")):
        if battery.startswith(command + "-"):
            return [command, option, battery.removeprefix(command + "-")]
    return [battery]


@pytest.mark.parametrize("battery", list(BATTERIES))
def test_a_battery_samples_its_stack_in_one_sampler_call(battery, monkeypatch, tmp_path):
    points = _count_calls(monkeypatch, cli, "sample")
    specs = _count_calls(monkeypatch, asymptotics, "sample_spec")
    unit = BATTERIES[battery].unit
    # a flow battery's units are its times: it samples its one point for --seed
    extra = ["--t", "0:1:4"] if unit == "t" else ["--points", "5"]
    argv = [*_battery_argv(battery), "--n", "3", "--seed", "4", *extra]
    main([*argv, "--out", str(tmp_path / "out.csv")])
    calls = specs if unit == "spec" else points
    assert len(points) + len(specs) == 1
    seeds = [4] if unit == "t" else [range(4, 9)]
    assert [k["seed"] for _, k in calls] == seeds


def test_specs_draw_one_default_rng_each_and_no_minors(monkeypatch):
    size, seeds = 8, range(1, 13)
    built = {name: _count_calls(monkeypatch, np.random, name)
             for name in ("default_rng", "SeedSequence", "PCG64")}
    factored = _count_calls(monkeypatch, asymptotics, "ldu")
    asymptotics.sample_spec(size, seeds, kind="linear")
    # spec s from default_rng(s) alone, built from its factors: no minor is taken
    assert [a[0] for a, _ in built["default_rng"]] == list(seeds)
    assert built["SeedSequence"] == built["PCG64"] == factored == []


def test_an_exponential_stack_and_its_summary_take_one_ldu(monkeypatch):
    # the spec factors M once, at construction, and the summary reads m_j and
    # p_j off those factors
    factored = _count_calls(monkeypatch, asymptotics, "ldu")
    spec = asymptotics.sample_spec(8, range(1, 13))
    asymptotics.exponential_summary(spec, np.arange(4.0, 10.5, 1.0))
    assert len(factored) == 1 and factored[0][0][0].shape == (12, 8, 8)
