"""What a command imports: each compiles and runs only the modules its battery
needs, which the cold start of every command pays when no bytecode is cached.
The module sets are read in fresh interpreters."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vandiejen
from vandiejen import dynamics, lax
from vandiejen.checks import BATTERIES

SRC = str(Path(vandiejen.__file__).resolve().parents[1])

# what `import vandiejen.cli` loads: the parser, the check table and the sampler
CLI = {"vandiejen", "vandiejen.cli", "vandiejen.checks", "vandiejen.phase_space"}
POINT = {"vandiejen.lax", "vandiejen._kernels"}
FRAME = POINT | {"vandiejen.duality", "vandiejen.linalg"}
FLOW = FRAME | {"vandiejen.dynamics"}


def _loaded_after(code: str) -> set:
    """The names of the modules loaded in a fresh interpreter that has run code."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(proc.stdout.split())


def _ours(modules: set) -> set:
    return {m for m in modules if m.split(".")[0] == "vandiejen"}


def test_importing_the_cli_loads_the_parser_the_check_table_and_the_sampler_alone():
    loaded = _loaded_after("import vandiejen.cli")
    assert _ours(loaded) == CLI
    assert not {"numpy.random", "json"} & loaded


# per command: its arguments, and the modules it loads beyond those of the CLI
COMMANDS = {
    "lax-check": (["--points", "1"], POINT),
    "duality": (["--points", "1"], FRAME),
    "scatter": (["--points", "1"], FRAME | {"vandiejen.scattering"}),
    "brackets": (["--points", "1"], FLOW | {"vandiejen.brackets"}),
    "flow": (["--t", "0,1"], FLOW),
    "asymptotics": (["--n", "3", "--points", "1"], {"vandiejen.asymptotics", "vandiejen.linalg"}),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_loads_only_the_modules_its_battery_runs(command):
    extra, loaded = COMMANDS[command]
    argv = [command, *extra, "--out", os.devnull]
    code = f"from vandiejen.cli import main\nassert main({argv!r}) == 0"
    assert _ours(_loaded_after(code)) == CLI | loaded


def test_every_exported_name_is_its_defining_modules_object():
    for name in vandiejen.__all__:
        obj = getattr(vandiejen, name)
        assert obj.__module__.startswith("vandiejen.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert vandiejen.sample is vandiejen.phase_space.sample


def test_the_lazy_namespace_lists_and_star_imports_its_names():
    assert set(vandiejen.__all__) <= set(dir(vandiejen))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        vandiejen.no_such_name
    namespace = {}
    exec("from vandiejen import *", namespace)
    assert {name: namespace[name] for name in vandiejen.__all__} == {
        name: getattr(vandiejen, name) for name in vandiejen.__all__
    }


def test_a_battery_calls_the_function_its_module_holds_at_the_call(monkeypatch):
    calls = []
    monkeypatch.setattr(lax, "structure_residuals", lambda *a, **k: calls.append((a, k)) or {})
    monkeypatch.setattr(dynamics, "flow_residuals", lambda *a, **k: calls.append((a, k)) or {})
    assert BATTERIES["lax-check"].residuals("points", "g") == {}
    assert BATTERIES["flow-projection"].residuals("times", "point", "g") == {}
    assert calls == [(("points", "g"), {}), (("times", "point", "g"), {"method": "projection"})]
