#!/usr/bin/env python3
"""Time one `run_simulation` of qsdesign, stage by stage.

Run from the repository root:

    python3 benchmarks/bench_pipeline.py --repeats 7 --label after
    python3 benchmarks/bench_pipeline.py --repeats 7 --label before --root ../other-checkout

Two workloads, both at seed 101 and one BLAS thread:

- perfbench: the inputs of the perfbench `protocol` workload: 60 training
  and 16 test subjects, degree 8, a 30-point dense design, 321
  candidates, budgets 5/10/15/20;
- unit: the protocol unit of the roadmap: 200 training and 100 test
  subjects, degree 8, a 90-point dense design, 321 candidates, budgets
  5/10/15/20/45.

The stages are timed from outside the package, by wrapping the functions
that `qsdesign.runner` calls: cohort generation, ESR designs, GCV fits,
greedy designs, observations, conditional fits and peak detection; `other`
is the CPU time of the run outside them (prior moments, Funk-Radon
transforms, errors and metrics). Every workload runs one untimed warm-up
repeat first. The script appends one row per workload to
BENCH_pipeline.json next to this directory: the median and the min CPU
seconds per stage and in total, the sha256 of `metrics.csv`, nproc, the
Python, numpy and scipy versions, and the git commit of the checkout whose
`src/` was timed (`--root`).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "BENCH_pipeline.json"
SEED = 101
WORKLOADS = {
    "perfbench": dict(
        degree=8, train_subjects=60, test_subjects=16, dense_design_size=30,
        candidate_count=321, budgets=(5, 10, 15, 20), peak_grid_size=4096,
    ),
    "unit": dict(
        degree=8, train_subjects=200, test_subjects=100, dense_design_size=90,
        candidate_count=321, budgets=(5, 10, 15, 20, 45), peak_grid_size=4096,
    ),
}
# stage name -> the name `qsdesign.runner` calls it by
STAGES = {
    "cohort": "generate_cohort",
    "esr": "esr_design",
    "gcv": "gcv_select_batch",
    "greedy": "greedy_design",
    "observe": "observe",
    "conditional_fit": "conditional_fit",
    "peaks": "find_peaks_batch",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per workload (default 7)")
    parser.add_argument("--label", required=True, help="name of the rows, e.g. before or after")
    parser.add_argument("--root", type=Path, default=HERE.parent, help="checkout whose src/ is timed")
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all", help="workload to time (default all)"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def git_commit(root: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def install_timers(runner, spent: dict):
    """Wrap each stage function in `runner`'s namespace so that its CPU time
    adds to spent[stage]. Stages do not nest: none calls another."""

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.process_time() - t0

        return wrapper

    for stage, name in STAGES.items():
        setattr(runner, name, timed(stage, getattr(runner, name)))


def run_once(runner, config, params, spent):
    """One `run_simulation`: CPU seconds per stage and the metrics.csv bytes."""
    for stage in STAGES:
        spent[stage] = 0.0
    t0 = time.process_time()
    result = runner.run_simulation(config.SimConfig(seed=SEED, out_dir="unused", **params))
    times = dict(spent, total=time.process_time() - t0)
    times["other"] = times["total"] - sum(spent.values())
    return times, runner.metrics_csv_text(result.rows).encode()


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: OpenBLAS reads these once
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import qsdesign
    import scipy
    from qsdesign import config, runner

    if Path(qsdesign.__file__).resolve().parent != src / "qsdesign":
        print(f"error: imported qsdesign from {qsdesign.__file__}, not {src}", file=sys.stderr)
        return 2
    spent: dict = {}
    install_timers(runner, spent)
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"benchmark": "run_simulation stages, seed 101", "rows": []}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        runs = []
        for repeat in range(args.repeats + 1):  # repeat 0 warms caches, untimed
            times, csv = run_once(runner, config, WORKLOADS[name], spent)
            if repeat == 0:
                digest = hashlib.sha256(csv).hexdigest()
            elif hashlib.sha256(csv).hexdigest() != digest:
                print(f"error: {name} repeat {repeat} wrote another metrics.csv", file=sys.stderr)
                return 1
            else:
                runs.append(times)
            print(json.dumps({"workload": name, "repeat": repeat, "cpu_s": times}), flush=True)
        row = {
            "label": args.label,
            "workload": name,
            "git_commit": git_commit(args.root),
            "seed": SEED,
            "repeats": args.repeats,
            "cpu_s": {
                stage: {"median": statistics.median(r[stage] for r in runs), "min": min(r[stage] for r in runs)}
                for stage in (*STAGES, "other", "total")
            },
            "metrics_csv_sha256": digest,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        bench["rows"].append(row)
        OUT.write_text(json.dumps(bench, indent=2) + "\n")
        print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
