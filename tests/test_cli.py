import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vandiejen
from vandiejen import cli
from vandiejen.checks import BATTERIES, Battery, Check
from vandiejen.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main


def run(argv):
    return main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["lax-check", "--n", "2", "--points", "3"],
        ["duality", "--n", "2", "--points", "2"],
        ["duality", "--n", "6", "--mu", "2.0", "--nu", "1.0", "--points", "20"],
        ["flow", "--n", "2", "--t", "0:1:3"],
        ["scatter", "--n", "2", "--points", "2"],
        ["brackets", "--n", "1", "--points", "2"],
        ["brackets", "--n", "4", "--points", "5"],
        ["asymptotics", "--n", "3", "--points", "2", "--t", "6:1:12"],
        ["asymptotics", "--n", "3", "--points", "1", "--kind", "linear", "--t", "10,15,20,30,40"],
    ],
)
def test_subcommands_pass(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_PASS


def test_bad_coupling_is_usage_error(tmp_path):
    assert run(["lax-check", "--mu", "0.0", "--points", "1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "nu, missed", [("0.0", "base"), ("1.4", "regular")],  # sin(nu) = 0; sin(2 mu - nu) = 0
)
@pytest.mark.parametrize("command", ["lax-check", "flow"])
def test_bad_coupling_names_the_class_it_misses(command, nu, missed, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run([command, "--mu", "0.7", "--nu", nu, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: coupling (mu=0.7, nu={nu}) outside the {missed} class\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["lax-check", "duality", "scatter", "brackets", "asymptotics"])
def test_a_stack_of_points_reports_the_rows_of_each_point_alone(command, tmp_path):
    # one residual call on seven units against seven calls on one unit each
    def rows(seed, points):
        out = tmp_path / "out.csv"
        coupling = [] if command == "asymptotics" else ["--mu", "1.3", "--nu", "0.2"]
        argv = [command, "--n", "3", *coupling, "--seed", str(seed)]
        run([*argv, "--points", str(points), "--out", str(out)])
        rows = csv.DictReader(out.read_text().splitlines())
        return [{k: v for k, v in r.items() if k not in ("point", "spec")} for r in rows]

    stacked = rows(1, 7)
    assert stacked == [rows(seed, 1)[0] for seed in range(1, 8)]


def test_bad_grid_is_usage_error():
    assert run(["flow", "--t", "nonsense"]) == EXIT_USAGE


@pytest.mark.parametrize("spec, times", [
    # the benchmark's and the README's grids keep their values bit for bit
    ("0:0.25:2", [0.25 * k for k in range(9)]),
    ("4:1:10", [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
    ("0:0.5:5", [0.5 * k for k in range(11)]),
    ("0:0.5:2", [0.0, 0.5, 1.0, 1.5, 2.0]),
    ("0:0.1:0.3", [0.0, 0.1, 0.2, 0.30000000000000004]),
    # from a stop of 16384 on, an absolute slack of 1e-12 is below half an ulp
    ("0:4096:16384", [0.0, 4096.0, 8192.0, 12288.0, 16384.0]),
    ("0:10000:20000", [0.0, 10000.0, 20000.0]),
    ("2e4:1:2e4", [2e4]),
    ("5:1:5", [5.0]),
    ("0:1:0", [0.0]),
    # a slack relative to the larger end: the old absolute one was ten steps here
    ("0:1e-13:5e-13", [1e-13 * k for k in range(6)]),
])
def test_a_grid_reaches_its_stop_at_every_magnitude(spec, times, tmp_path):
    grid = cli._parse_grid(spec)
    assert grid.tobytes() == np.array(times).tobytes()
    out = tmp_path / "flow.csv"
    run(["flow", "--n", "2", "--method", "runge-kutta", "--t", spec, "--out", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [float(row["t"]) for row in rows] == times


def test_numerical_failure_is_reported_without_traceback(tmp_path, capsys):
    # t = 1e6 puts the flow's exponent range far past what double precision holds
    argv = ["flow", "--n", "2", "--method", "projection", "--t", "0,1e6"]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("n", ["1", "0"])
def test_asymptotics_size_below_two_is_usage_error(n, tmp_path, capsys):
    assert run(["asymptotics", "--n", n, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_asymptotics_single_time_is_usage_error(kind, tmp_path, capsys):
    # no decay order can be fitted from one time, which argv alone shows
    out = tmp_path / "out.csv"
    assert run(["asymptotics", "--n", "3", "--kind", kind, "--t", "5", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["flow", "--n", "2", "--t", "inf"],
    ["flow", "--n", "2", "--t", "0,inf,nan", "--method", "projection"],
    ["asymptotics", "--n", "3", "--t", "4,inf"],
    ["asymptotics", "--n", "3", "--kind", "linear", "--t", "inf,4"],
])
def test_a_non_finite_time_is_the_same_usage_line_for_every_command(argv, tmp_path, capsys):
    # the one time rule, phase_space.time_grid, names the first non-finite time
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: non-finite time inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--t", "0,1e-200"],
    ["--n", "3", "--t", "0,1e-300"],
    ["--n", "3", "--t", "0:1e-300:1e-299"],
    ["--n", "8", "--t", "0,1e-300"],
])
def test_times_whose_spread_underflows_fit_no_order_without_warnings(argv, tmp_path, capsys):
    # the squared deviations of the times from their mean underflow to 0, so
    # no decay order is fitted (no 0 / 0): each row fails, with nothing on
    # stderr; RuntimeWarnings are errors here
    out = tmp_path / "out.csv"
    assert run(["asymptotics", *argv, "--out", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5 and all(row["passed"] == "False" for row in rows)
    assert all(row["min_fitted_order"] == "nan" for row in rows)


def test_subnormal_linear_times_fail_to_match_without_warnings(tmp_path, capsys):
    # alpha / t overflows at t = 1e-320: no prediction is near an eigenvalue,
    # as at t = 1e-300, where it does not overflow; RuntimeWarnings are errors here
    for t in ("1e-320,2e-320", "1e-300,2e-300"):
        out = tmp_path / "out.csv"
        assert run(["asymptotics", "--n", "3", "--kind", "linear", "--t", t,
                    "--out", str(out)]) == EXIT_FAIL
        first = t.split(",")[0]
        assert capsys.readouterr().err == f"error: ambiguous eigenvalue matching at t={first}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "step",
    # a negative number in exponent notation is the flag's value, not an option
    [["--step=0"], ["--step=-1e-5"], ["--step", "-1e-5"], ["--step=nan"], ["--step=inf"]],
    ids=" ".join,
)
def test_brackets_step_that_is_not_finite_and_positive_is_usage_error(step, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["brackets", "--n", "2", "--points", "1", *step, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_asymptotics_grid_too_late_to_fit_is_reported_failure(tmp_path, capsys):
    # every remainder is below the fit floor at t = 30, 31, and spec 1's from
    # t = 8 on: such a row has no fitted order and fails beside the others;
    # RuntimeWarnings are errors here
    out = tmp_path / "out.csv"
    for grid, passed in [("30,31", ["False", "False"]), ("8:1:14", ["True", "False"])]:
        argv = ["asymptotics", "--n", "3", "--t", grid, "--points", "2", "--out", str(out)]
        assert run(argv) == EXIT_FAIL
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["passed"] for row in rows] == passed
        assert [row["min_fitted_order"] == "nan" for row in rows] == [p == "False" for p in passed]


def test_asymptotics_grid_too_late_to_fit_has_no_measurable_recovery(tmp_path, capsys):
    # no order is fitted at t = 30, 31: the p recovery reads off noise there,
    # so it is nan beside the order, and the row fails
    out = tmp_path / "out.csv"
    argv = ["asymptotics", "--n", "3", "--t", "30,31", "--points", "2", "--out", str(out)]
    assert run(argv) == EXIT_FAIL
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert row["min_fitted_order"] == row["p_recovery_rel_err"] == "nan"
        assert row["passed"] == "False"


def test_flow_exponent_range_past_the_cap_is_one_short_error_line(tmp_path, capsys):
    argv = ["flow", "--n", "2", "--t", "1e300", "--method", "projection"]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 120
    assert re.search("flow exponent range .* exceeds the double range cap at t=", err)


@pytest.mark.parametrize("argv, message", [
    (["flow", "--n", "2", "--t", "1e308", "--method", "projection"], "flow exponent range inf"),
    (["asymptotics", "--n", "3", "--t", "4,1e308"], "flow exponent exceeds overflow cap"),
    (["asymptotics", "--n", "3", "--kind", "linear", "--t", "1e307,1e308"],
     "flow matrix M + tD is not finite at t=1e+308"),
], ids=["flow", "exponential", "linear"])
def test_a_time_past_the_double_range_is_one_error_line(argv, message, tmp_path, capsys):
    # RuntimeWarnings are errors here
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_asymptotics_linear_grid_past_the_square_overflow_is_reported(tmp_path, capsys):
    # t^2 overflows from t = 1.3e154; RuntimeWarnings are errors here
    out = tmp_path / "out.csv"
    argv = ["asymptotics", "--n", "3", "--kind", "linear", "--t", "1e200,1e201", "--points", "2"]
    assert run([*argv, "--out", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["passed"] for row in rows] == ["False", "False"]


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["duality", "--n", "2", "--points", "3", "--out", str(out)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_json_format_parses(tmp_path):
    out = tmp_path / "out.json"
    assert run(["lax-check", "--points", "2", "--format", "json", "--out", str(out)]) == EXIT_PASS
    rows = json.loads(out.read_text())
    assert len(rows) == 2 and all(r["passed"] for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["lax-check"], ["duality"], ["scatter"], ["brackets"],
        ["asymptotics", "--kind", "exponential"], ["asymptotics", "--kind", "linear"],
    ],
)
def test_json_rows_carry_the_seed_of_their_unit(argv, tmp_path):
    out = tmp_path / "out.json"
    run([*argv, "--n", "3", "--points", "3", "--seed", "4", "--format", "json", "--out", str(out)])
    rows = json.loads(out.read_text())
    assert [row["seed"] for row in rows] == [4, 5, 6]


# the projection step fails from t = 3.5 on
LATE_FLOW = ["flow", "--n", "7", "--mu", "1.3", "--nu", "0.2"]
LATE_PASSED = [True] * 7 + [False] * 4


@pytest.mark.parametrize("argv, want", [
    pytest.param([*LATE_FLOW, "--method", "projection"], LATE_PASSED, id="projection"),
    pytest.param([*LATE_FLOW, "--method", "runge-kutta"], [True] * 11, id="runge-kutta"),
    pytest.param([*LATE_FLOW, "--method", "both"], LATE_PASSED, id="both"),
    pytest.param(["lax-check", "--n", "3", "--points", "4"], [True] * 4, id="lax-check"),
    pytest.param(["duality", "--n", "3", "--points", "4"], [True] * 4, id="duality"),
    pytest.param(["scatter", "--n", "3", "--points", "4"], [True] * 4, id="scatter"),
    # of seeds 2528..2530, 2529 fails its angle_angle check from truncation
    pytest.param(
        ["brackets", "--n", "3", "--seed", "2528", "--points", "3"], [True, False, True],
        id="brackets",
    ),
    # spec 1's remainders fall below the fit floor from t = 8 on
    pytest.param(
        ["asymptotics", "--n", "3", "--t", "8:1:14", "--points", "2"], [True, False],
        id="asymptotics",
    ),
])
def test_flow_json_passed_agrees_with_the_exit_code(argv, want, tmp_path, capsys):
    # every command's CSV and JSON reports carry the same per-row `passed`,
    # and the exit code is 1 exactly when some row fails
    codes, passed = {}, {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        codes[fmt] = run([*argv, "--format", fmt, "--out", str(out)])
        text = out.read_text()
        rows = json.loads(text) if fmt == "json" else csv.DictReader(text.splitlines())
        passed[fmt] = [{"True": True, "False": False}.get(r["passed"], r["passed"]) for r in rows]
    capsys.readouterr()
    assert passed["csv"] == passed["json"]
    assert codes["csv"] == codes["json"] == (EXIT_PASS if all(passed["json"]) else EXIT_FAIL)
    assert passed["json"] == want


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_report_is_strict_with_non_finite_values_as_null(tmp_path, capsys):
    # the projection step fails from t = 3.5 on: those rows hold inf and nan
    out = tmp_path / "flow.json"
    argv = ["flow", "--n", "7", "--mu", "1.3", "--nu", "0.2", "--format", "json"]
    assert run([*argv, "--out", str(out)]) == EXIT_FAIL
    capsys.readouterr()
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    gaps = [row["propagator_gap"] for row in rows]
    assert gaps[:7] == [g for g in gaps[:7] if isinstance(g, float)]
    assert gaps[7:] == [None] * 4
    csv_out = tmp_path / "flow.csv"
    assert run([*argv[:-2], "--out", str(csv_out)]) == EXIT_FAIL
    assert csv_out.read_text().count(",inf,False\n") == 4


def test_main_in_one_process_matches_fresh_calls(tmp_path, capsys):
    # the parser is built once per process; one call's flags never reach the next
    calls = [
        ["duality", "--points", "2"],
        ["duality", "--n", "3", "--points", "2", "--mu", "1.3", "--nu", "0.2"],
        ["duality", "--points", "2"],
        ["lax-check", "--points", "1", "--format", "json"],
    ]

    def report(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        out = tmp_path / "out.txt"
        code = run([*argv, "--out", str(out)])
        return code, out.read_text()

    in_process = [report(argv, fresh=False) for argv in calls]
    fresh = [report(argv, fresh=True) for argv in calls]
    assert in_process == fresh
    assert in_process[0] == in_process[2] != in_process[1]
    assert capsys.readouterr().err == ""


def test_flow_csv_has_expected_header(tmp_path):
    out = tmp_path / "flow.csv"
    assert run(["flow", "--n", "2", "--t", "0,1", "--out", str(out)]) == EXIT_PASS
    header = out.read_text().splitlines()[0].split(",")
    assert header == [
        "t", "lambda_1", "lambda_2", "theta_1", "theta_2", "energy", "propagator_gap", "passed",
    ]


# the rows of this battery pass and fail side by side: a stencil point of
# point 0 passes the flow's exponent range cap, so its flow_symplectic is nan
MIXED_ROWS = ["brackets", "--n", "8", "--mu", "1.3", "--nu", "0.2", "--seed", "3", "--points", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        MIXED_ROWS,
        ["lax-check", "--n", "3", "--points", "4"],
        ["scatter", "--n", "3", "--points", "4"],
        ["brackets", "--n", "2", "--points", "2"],
    ],
)
def test_passed_is_each_rows_own_verdict(argv, tmp_path):
    out = tmp_path / "out.csv"
    code = run(argv + ["--out", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == int(argv[-1])
    if argv == MIXED_ROWS:
        assert [row["passed"] for row in rows] == ["False", "True"]
    for row in rows:
        own = all(
            float(row[c.column]) > c.bound if c.lower else float(row[c.column]) <= c.bound
            for c in BATTERIES[argv[0]].checks
        )
        assert row["passed"] == str(own), row
    assert code == (EXIT_FAIL if any(r["passed"] == "False" for r in rows) else EXIT_PASS)


@pytest.mark.parametrize("seed, failing", [(3, 0), (4, 1)])
def test_a_brackets_error_line_names_its_point(seed, failing, tmp_path, capsys):
    # the error names the point column of the row whose stencil's time-1 flow
    # failed first: seed 3 (point 0) fails the exponent range cap, as does
    # seed 5 (point 1 of the stack from seed 4) alone
    out = tmp_path / "out.csv"
    argv = [*MIXED_ROWS[:-4], "--seed", str(seed), "--points", "2", "--out", str(out)]
    assert run(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    pattern = rf"error: point {failing}: flow exponent range \S+ exceeds the double range cap at t=1.0\n"
    assert re.fullmatch(pattern, err), err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[failing]["point"] == str(failing) and rows[failing]["flow_symplectic"] == "nan"


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--points", "0"],
        ["duality", "--points", "-2"],
        ["lax-check", "--points", "0"],
        ["scatter", "--points", "0"],
        ["brackets", "--n", "2", "--points", "0"],
        ["asymptotics", "--n", "3", "--points", "0"],
        # removed options (--tol-scale; --config below) are options no parser takes
        ["lax-check", "--points", "1", "--tol-scale", "nan"],
        ["lax-check", "--points", "1", "--tol-scale", "inf"],
        ["lax-check", "--points", "1", "--tol-scale", "0"],
        ["flow", "--n", "2", "--t", "0,1", "--tol-scale", "-1"],
        # options the subcommand does not take: a parse error, which exits
        ["lax-check", "--points", "1", "--pointz", "3"],
        ["flow", "--n", "2", "--t", "0,1", "--points", "7"],
        # a time grid with no time, or with a non-finite one
        ["flow", "--n", "2", "--t", "5:1:0"],
        ["flow", "--n", "2", "--t", "inf"],
        ["flow", "--n", "2", "--t", "0,nan"],
        # a step that is not positive
        ["flow", "--n", "2", "--t", "0:0:1"],
        ["flow", "--n", "2", "--t", "0:-1:1"],
        # 10^15 times, about 8 PB, which numpy cannot allocate
        ["flow", "--n", "2", "--t", "0:1e-12:1e3"],
        # 10^15 seeds, about 8 PB, which numpy cannot allocate
        ["lax-check", "--points", "1000000000000000"],
        ["brackets", "--points", "1000000000000000"],
        ["asymptotics", "--n", "3", "--points", "1000000000000000"],
        ["asymptotics", "--n", "3", "--t", "5:1:0"],
        ["asymptotics", "--n", "3", "--kind", "linear", "--t", "4,nan"],
        ["asymptotics", "--n", "3", "--t", "4,-inf"],
        # a negative seed, which numpy's generators reject
        ["lax-check", "--points", "1", "--seed", "-1"],
        ["asymptotics", "--n", "3", "--points", "1", "--seed", "-3"],
        ["flow", "--n", "2", "--t", "0,1", "--seed", "-2"],
        # a non-finite coupling is outside the base class, without a sin warning
        ["lax-check", "--points", "1", "--mu", "inf"],
        ["flow", "--n", "2", "--t", "0,1", "--nu=-inf"],
        # an asymptotics grid from which no decay order can be fitted (one time: below)
        ["asymptotics", "--n", "3", "--t", "5,5"],
        ["asymptotics", "--n", "3", "--kind", "linear", "--t", "0,5"],
        ["--config", "x", "lax-check", "--points", "1"],
        # asymptotics takes no coupling
        ["asymptotics", "--n", "3", "--mu", "0.7"],
        ["asymptotics", "--mu", "99", "--nu", "nan"],
    ],
)
def test_bad_option_value_is_one_line_usage_error(argv, tmp_path, capsys):
    # an empty report would be a pass with nothing checked
    out = tmp_path / "out.csv"
    try:
        code = run(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_negative_exponent_value_after_a_flag_is_read_as_a_number(tmp_path):
    # a negative number in exponent notation, and a time grid that starts below 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for flag, value in [("--mu", "-1e-1"), ("--t", "-1:0.5:1")]:
        base = ["flow", "--n", "2", "--t", "0,1"]
        assert run([*base, flag, value, "--out", str(a)]) == EXIT_PASS
        assert run([*base, f"{flag}={value}", "--out", str(b)]) == EXIT_PASS
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_is_one_line_usage_error(target, tmp_path, capsys):
    out = tmp_path / target
    assert run(["lax-check", "--points", "1", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out: ") and err.count("\n") == 1


def test_flow_takes_no_points_option():
    with pytest.raises(SystemExit) as exc:
        run(["flow", "--n", "2", "--t", "0,1", "--points", "7"])
    assert exc.value.code == EXIT_USAGE


def test_flow_keeps_its_report_when_the_projection_step_fails(tmp_path, capsys):
    # the flow exponent range passes the cap from t = 3.5 on; the RK leg runs on
    base = ["flow", "--n", "7", "--mu", "1.3", "--nu", "0.2"]
    late = ["3.5", "4", "4.5", "5"]
    reports = {}
    for method, grid, want in [
        ("both", "0:0.5:5", EXIT_FAIL),
        ("projection", "0:0.5:5", EXIT_FAIL),
        ("runge-kutta", "0:0.5:5", EXIT_PASS),
        ("projection", "0:0.5:3", EXIT_PASS),
    ]:
        out = tmp_path / f"{method}-{grid}.csv"
        assert run(base + ["--method", method, "--t", grid, "--out", str(out)]) == want
        err = capsys.readouterr().err
        if want == EXIT_FAIL:
            assert err.count("\n") == 1
            assert err.startswith(f"error: projection step failed at t={','.join(late)}: ")
        else:
            assert err == ""
        reports[method, grid] = out.read_text().splitlines()
    both, proj = reports["both", "0:0.5:5"], reports["projection", "0:0.5:5"]
    rk = reports["runge-kutta", "0:0.5:5"]
    assert len(both) == len(proj) == 12
    # the rows before the failure and the header are those of a grid that stops short
    assert proj[:8] == reports["projection", "0:0.5:3"]
    for line_both, line_proj, line_rk in zip(both[8:], proj[8:], rk[8:]):
        t, *values = line_proj.split(",")
        assert t in late and values == ["nan"] * 15 + ["False"]
        assert line_both == f"{line_rk.removesuffix(',True')},inf,False"
    assert all(line.endswith(",True") for line in [*both[1:8], *proj[1:8], *rk[1:]])
    assert all(float(line.split(",")[-2]) < 1e-6 for line in both[1:8])


# -- the writer, on a battery stub ---------------------------------------------

EXTREMES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 1e-9]


def _per_row_report(header, rows, fmt):
    """A report rendered row by row: the csv module over format(float(x), ".17g")
    with bools as is, or one dict per row with null for a non-finite float."""
    if fmt == "json":
        strict = [{k: None if isinstance(v, float) and not np.isfinite(v) else v
                   for k, v in row.items()} for row in rows]
        return json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, bool) else format(float(v), ".17g")
                         for v in (row[k] for k in header)])
    return buf.getvalue()


def _stub(monkeypatch, columns, unit):
    checks = (Check("upper", 1e-8), Check("lower", 0.0, lower=True))
    monkeypatch.setitem(BATTERIES, "stub", Battery(lambda *_: dict(columns), checks, unit))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_renders_the_column_table_as_the_per_row_report(fmt, monkeypatch, tmp_path):
    # sampled units: integer unit column and seeds, past 64 bits in the seed
    # the last two rows hold every check; the battery's own verdict fails the last
    columns = {
        "upper": np.array(EXTREMES + [0.0, 0.0]),
        "lower": np.array(EXTREMES[::-1] + [1.0, 1.0]),
        "passed": np.arange(len(EXTREMES) + 2) != len(EXTREMES) + 1,
    }
    size = len(columns["upper"])
    _stub(monkeypatch, columns, "point")
    seed = 10**22
    out = tmp_path / f"out.{fmt}"
    args = cli.build_parser().parse_args(
        ["lax-check", "--points", str(size), "--seed", str(seed), "--format", fmt, "--out", str(out)])
    code = cli._run_battery(args, "stub")
    passed = [
        bool(columns["passed"][i] and u <= 1e-8 and v > 0.0)
        for i, (u, v) in enumerate(zip(columns["upper"], columns["lower"]))
    ]
    rows = [
        {"point": i, "seed": seed + i, "upper": float(u), "lower": float(v), "passed": p}
        for i, (u, v, p) in enumerate(zip(columns["upper"], columns["lower"], passed))
    ]
    assert out.read_text() == _per_row_report(["point", "upper", "lower", "passed"], rows, fmt)
    assert code == EXIT_FAIL
    # nan fails its upper bound (row 0) and its lower bound (row 6)
    assert passed == [False, False, True, False, False, False, False, True, False]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_keeps_a_float_unit_column_of_the_battery(fmt, monkeypatch, tmp_path):
    # a unit column the battery gives (flow's times): floats, and no seed
    times = np.array([-0.0, 0.5, 1e300])
    columns = {"t": times, "upper": np.zeros(3), "lower": np.array([1.0, 5e-324, 2.0])}
    _stub(monkeypatch, columns, "t")
    out = tmp_path / f"out.{fmt}"
    args = cli.build_parser().parse_args(["flow", "--format", fmt, "--out", str(out)])
    assert cli._run_battery(args, "stub") == EXIT_PASS
    rows = [{"t": float(t), "upper": 0.0, "lower": float(v), "passed": True}
            for t, v in zip(times, columns["lower"])]
    assert out.read_text() == _per_row_report(["t", "upper", "lower", "passed"], rows, fmt)


def test_a_nan_column_fails_both_an_upper_and_a_lower_check():
    view = {"x": np.array([np.nan, 0.5, 2.0])}
    assert Check("x", 1.0).holds(view).tolist() == [False, True, False]
    assert Check("x", 1.0, lower=True).holds(view).tolist() == [False, False, True]


@pytest.mark.parametrize("argv, message", [
    (["lax-check", "--n", "0"], "n must be >= 1"),
    (["lax-check", "--seed", "-1"], "a seed must be non-negative, got -1"),
    (["asymptotics", "--n", "3", "--points", "0"], "a stack of specs needs at least one seed"),
    (["brackets", "--n", "2", "--points", "1", "--step", "0.5"],
     "point within 5.0e+00 of a phase-space constraint; "
     "central stencils would leave the valid region"),
])
def test_a_library_input_error_is_the_usage_error_line(argv, message, tmp_path, capsys):
    # the rule lives in the library routine that reads the value; main reports it
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_asymptotics_takes_no_coupling_options(capsys):
    helps = {}
    for command in ("asymptotics", "lax-check"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        helps[command] = capsys.readouterr().out
    assert "--mu" not in helps["asymptotics"] and "--nu" not in helps["asymptotics"]
    assert "--mu" in helps["lax-check"] and "--nu" in helps["lax-check"]


def test_the_module_entry_point_exits_with_mains_code(capsys):
    # python -m vandiejen.cli in a fresh interpreter: sys.exit(main()) passes on
    # the exit code, with the report and the error line that main writes in process
    argv = [*LATE_FLOW, "--method", "projection"]
    src = str(Path(vandiejen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vandiejen.cli", *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert run(argv) == proc.returncode == EXIT_FAIL
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert proc.stderr.startswith("error: projection step failed") and proc.stderr.count("\n") == 1
