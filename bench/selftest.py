"""Reduced-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload for one second and two rounds, traced and untraced,
and checks each result line against ``BENCHMARK.json``: the exact keys,
every declared metric with its unit, no failed operation, non-zero
end-to-end values, and named layer spans (not the ``cli`` root's own
time) covering at least 90% of the traced wall time, with no wrapped
name missing.  Last, it checks that the
benchmark refuses to run, without printing a result, in a copy that
holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace),
                           "--min-rounds", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def problems(proc: subprocess.CompletedProcess, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"correct={result['correct']} failed={result['failed']} "
                   f"attempted={result['attempted']}: {proc.stderr[-300:]}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        out.append(f"metric names differ: {sorted(set(metrics) ^ names)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            out.append(f"{m['name']}: {got}")
        if not trace and got["value"] <= 0:
            out.append(f"{m['name']} is not positive: {got['value']}")
    if trace:
        if metrics["trace.coverage"]["value"] < 0.9:
            out.append(f"spans cover {metrics['trace.coverage']['value']:.3f} "
                       f"of the traced wall time")
        if metrics["trace.missing_spans"]["value"]:
            out.append("wrapped names are missing")
    return out


def refuses_without_source() -> list[str]:
    """The benchmark alone, without the program, must exit non-zero and
    print no result."""
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(BENCH / "reference.json", bare / "bench")
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without the program: exit {proc.returncode}"]
    return []


def main() -> int:
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = problems(run(ROOT, workload, trace), trace)
            status = "ok" if not found else "FAIL " + "; ".join(found)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failed |= bool(found)
    found = refuses_without_source()
    print(f"without the program: {'ok' if not found else 'FAIL ' + found[0]}")
    failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
