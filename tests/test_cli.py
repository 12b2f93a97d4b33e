import csv
import json

import pytest

from vandiejen.checks import BATTERIES
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


def test_bad_grid_is_usage_error():
    assert run(["flow", "--t", "nonsense"]) == EXIT_USAGE


def test_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), "lax-check"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("config", [{"fn": 3}, {"pointz": 3}, {"command": "flow"}])
def test_config_key_that_is_no_option_is_usage_error(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), "lax-check", "--points", "1"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: bad config")


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
def test_asymptotics_single_time_is_reported_failure(kind, tmp_path, capsys):
    # no decay order can be fitted from one time; RuntimeWarnings are errors here
    out = tmp_path / "out.csv"
    assert run(["asymptotics", "--n", "3", "--kind", kind, "--t", "5", "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
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
    # every remainder is below the fit floor at t = 30, 31; RuntimeWarnings are errors here
    out = tmp_path / "out.csv"
    argv = ["asymptotics", "--n", "3", "--t", "30,31", "--points", "2", "--out", str(out)]
    assert run(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


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


def test_config_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "points": 2, "format": "json"}))
    out = tmp_path / "out.json"
    assert run(["--config", str(cfg), "lax-check", "--out", str(out)]) == EXIT_PASS
    assert len(json.loads(out.read_text())) == 2
    # an explicit flag beats the config value, in either spelling
    for flag in (["--points", "1"], ["--points=1"]):
        assert run(["--config", str(cfg), "lax-check", *flag, "--out", str(out)]) == EXIT_PASS
        assert len(json.loads(out.read_text())) == 1


def test_flow_csv_has_expected_header(tmp_path):
    out = tmp_path / "flow.csv"
    assert run(["flow", "--n", "2", "--t", "0,1", "--out", str(out)]) == EXIT_PASS
    header = out.read_text().splitlines()[0].split(",")
    assert header == [
        "t", "lambda_1", "lambda_2", "theta_1", "theta_2", "energy", "propagator_gap",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # rows of this battery pass and fail side by side (re_z_sum against 1e-10)
        ["duality", "--n", "6", "--mu", "2.0", "--nu", "1.0", "--points", "20"],
        ["lax-check", "--n", "3", "--points", "4"],
        ["scatter", "--n", "3", "--points", "4"],
        ["brackets", "--n", "2", "--points", "2"],
    ],
)
def test_passed_is_each_rows_own_verdict(argv, tmp_path):
    out = tmp_path / "out.csv"
    code = run(argv + ["--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == int(argv[-1])
    for row in rows:
        own = all(
            float(row[c.column]) > c.bound if c.lower else float(row[c.column]) <= c.bound
            for c in BATTERIES[argv[0]].checks
        )
        assert row["passed"] == str(own), row
    assert code == (EXIT_FAIL if any(r["passed"] == "False" for r in rows) else EXIT_PASS)


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--points", "0"],
        ["duality", "--points", "-2"],
        ["lax-check", "--points", "0"],
        ["scatter", "--points", "0"],
        ["brackets", "--n", "2", "--points", "0"],
        ["asymptotics", "--n", "3", "--points", "0"],
        ["lax-check", "--points", "1", "--tol-scale", "nan"],
        ["lax-check", "--points", "1", "--tol-scale", "inf"],
        ["lax-check", "--points", "1", "--tol-scale", "0"],
        ["flow", "--n", "2", "--t", "0,1", "--tol-scale", "-1"],
    ],
)
def test_bad_option_value_is_one_line_usage_error(argv, tmp_path, capsys):
    # an empty report would be a pass with nothing checked
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_negative_exponent_value_after_a_flag_is_read_as_a_number(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["flow", "--n", "2", "--mu", "-1e-1", "--t", "0,1", "--out", str(a)]) == EXIT_PASS
    assert run(["flow", "--n", "2", "--mu=-1e-1", "--t", "0,1", "--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_flow_takes_no_points_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["flow", "--n", "2", "--t", "0,1", "--points", "7"])
    assert exc.value.code == EXIT_USAGE
    # a config key `points` stays valid: the other subcommands take it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 7}))
    out = tmp_path / "out.csv"
    assert run(["--config", str(cfg), "flow", "--n", "2", "--t", "0,1", "--out", str(out)]) == EXIT_PASS
