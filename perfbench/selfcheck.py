"""Fast self-check of the harness: every workload on tiny inputs.

    python3 perfbench/run.py --self-check

Runs every workload run.py offers (those of BENCHMARK.json and
protocol-threads) untraced and traced with `--size tiny`, and checks that
each run exits 0, reports correct outputs and prints exactly the metrics
BENCHMARK.json names, with their units. Then it checks that the
benchmark fails, without a result, in a directory holding only
BENCHMARK.json and the benchmark's files. Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _check_run(workload, trace, expected) -> list:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = _result(proc.stdout)
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not a result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"wrong units {sorted(k for k in got if k in expected and got[k] != expected[k])}"
        )
    if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    return problems


def _check_bare_directory(spec) -> list:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _result(proc.stdout) is not None:
        return ["benchmark did not fail in a directory without the program"]
    return []


def self_check(workloads) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            found = _check_run(workload, trace, expected[trace])
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}", flush=True)
            problems += found
    found = _check_bare_directory(spec)
    print(f"{'FAIL' if found else 'ok  '} fails without the program", flush=True)
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0
