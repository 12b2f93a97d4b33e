"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json RUNS times for ``run_seconds``
each, with a different ``--seed`` each time (runs of different workloads
interleave, so slow drift of the machine spreads over all of them).  For every
end-to-end metric and workload it prints each set's median and quartiles, the
spread (q3 - q1) / median, and whether
  - the spread is within the metric's bound ("ok") and below a third of it
    ("steady"), and
  - the two sets' medians differ by no more than the bound, as a share of the
    first set's median, in either direction ("agree").
It exits 1 if any run failed or any check above (except "steady") does not
hold.  Raw results go to .perfbench/steady-<time>.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10  # runs per workload in each of the two sets


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: ([], []) for w in workloads}
    bad_runs = 0
    for s in range(2):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                if not res.get("correct"):
                    bad_runs += 1
                    print(f"run failed: {w} seed {seed}: {res}", file=sys.stderr)
                    continue
                results[w][s].append(res["metrics"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed} done", file=sys.stderr, flush=True)

    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    all_ok = bad_runs == 0
    header = f"{'workload':11s} {'metric':12s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>5s}  verdict"
    print(header)
    for w in workloads:
        for m in bench["end_to_end"]:
            medians = []
            for s, runs in enumerate(results[w]):
                values = [r[m["name"]]["value"] for r in runs]
                if len(values) < 2:
                    all_ok = False
                    continue
                med, q1, q3, spread = summary(values)
                medians.append(med)
                ok = spread <= m["bound"]
                verdict = ("steady" if spread < m["bound"] / 3 else "ok") if ok else "SPREAD"
                all_ok &= ok
                print(f"{w:11s} {m['name']:12s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {m['bound']:5.2f}  {verdict}")
            if len(medians) == 2:
                first, second = medians
                change = (second - first) / first
                agree = abs(change) <= m["bound"]
                all_ok &= agree
                print(f"{w:11s} {m['name']:12s} set 2 vs 1: {change:+.3f} "
                      f"-> {'agree' if agree else 'DISAGREE'}")
    print(f"raw results: {out.relative_to(ROOT)}; failed runs: {bad_runs}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
