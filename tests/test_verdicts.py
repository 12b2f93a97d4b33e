"""The verdicts of the benchmark catalogue's 102 ops, pinned in data/verdicts.json:
each op's exit code, report row count, per-row `passed` flags and stderr text.
Residual values are not pinned, as they depend on BLAS; the verdicts do not.

A change that moves a verdict on purpose rewrites the file from its own argv
lists, with `PYTHONPATH=src python tests/test_verdicts.py`, and names each
moved verdict in CHANGES.md.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from vandiejen.cli import main

VERDICTS = Path(__file__).parent / "data" / "verdicts.json"


def verdict(argv, out: Path) -> dict:
    """The record of one op, run in process with its JSON report written to out."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json", "--out", str(out)])
    rows = json.loads(out.read_text()) if out.exists() else []
    return {
        "argv": list(argv), "exit": code, "rows": len(rows),
        "passed": [row["passed"] for row in rows], "stderr": err.getvalue(),
    }


RECORDS = json.loads(VERDICTS.read_text())


def test_the_file_holds_the_whole_catalogue():
    assert len(RECORDS) == 102


@pytest.mark.parametrize("want", RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_catalogue_op_keeps_its_verdict(want, tmp_path):
    assert verdict(want["argv"], tmp_path / "report.json") == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = [verdict(record["argv"], Path(tmp) / "report.json") for record in RECORDS]
    VERDICTS.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
