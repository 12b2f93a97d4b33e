"""Smoke test of the benchmark: every workload at a tiny size, timed and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 with a correct result whose metrics are exactly
the ones BENCHMARK.json names, each with its unit; that the traced run reports
its overhead (traced minus untraced wall time); and that the benchmark exits
non-zero without a result where the library sources are missing.  Exits 1 on
the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], *args], cwd=root, capture_output=True, text=True, timeout=300,
    )


def check(condition: bool, message: str):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
            check(result["correct"] and result["failed"] == 0, f"{label} not correct: {proc.stdout}")
            check(result["attempted"] >= 1, f"{label} attempted nothing")
            expected = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{label} metrics differ: {set(got) ^ set(expected)}")
            if trace:
                check(result["metrics"]["trace.overhead_s"]["value"] != 0, f"{label} overhead")
            print(f"ok  {label}: {len(got)} metrics")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0, "bare copy without sources exited 0")
        check('"correct"' not in proc.stdout, "bare copy printed a result")
        print("ok  bare copy without sources fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
