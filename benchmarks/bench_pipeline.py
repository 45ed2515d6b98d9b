#!/usr/bin/env python3
"""Time qsdesign stage by stage: the experiment pipeline, the field path and the kernels.

Run from the repository root:

    python3 benchmarks/bench_pipeline.py --repeats 7 --label after
    python3 benchmarks/bench_pipeline.py --workload field --repeats 9 --label before --root ../other-checkout

Four workloads, all at one BLAS thread:

- perfbench: one `run_simulation` on the inputs of the perfbench `protocol`
  workload (`SIZES["full"]["protocol"]` in perfbench/workloads.py);
- unit: one `run_simulation` of the roadmap's protocol unit (UNIT below);
- field: one repeat of the perfbench `field` workload (`workloads.Field`):
  `prior-build`, interpolation to a 216-voxel lattice with `.qpf` I/O, then
  a region design; `Field.check` validates every repeat;
- kernels: six cases of `qsdesign._kernels` at pipeline sizes, among them
  the voxel stack a region design scores per step and the restart stack
  `esr_design` evaluates per step; 30 calls each, whatever --repeats says.

perfbench/workloads.py is read from this checkout, never from `--root`, so
rows that time two checkouts share their inputs and seed (101). Pipeline
stages are timed by wrapping the functions that `qsdesign.runner` calls
(cohort generation, ESR designs, GCV fits, greedy designs, observations,
conditional fits, peak detection); `other` is the rest of the run (prior
moments, Funk-Radon transforms, errors and metrics). Field steps are timed
by `Field.run_once` itself.

Every workload runs one untimed warm-up first; a timed repeat whose outputs
hash differently from the warm-up's stops the script with exit 1. Each
workload appends one row to BENCH_pipeline.json (BENCH_field.json for
`field`) next to this directory: the median and the min CPU time per stage
and in total (seconds; microseconds for kernels), the sha256 of the
outputs, nproc, the Python, numpy and scipy versions, and the git commit of
the checkout whose `src/` was timed.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("perfbench", "unit", "field", "kernels")
UNIT = dict(
    degree=8, train_subjects=200, test_subjects=100, dense_design_size=90,
    candidate_count=321, budgets=(5, 10, 15, 20, 45), peak_grid_size=4096,
)
# stage name -> the name `qsdesign.runner` calls it by
STAGES = {
    "cohort": "generate_cohort",
    "esr": "esr_design",
    "gcv": "gcv_select_batch",
    "greedy": "greedy_design",
    "observe": "observe_batch",
    "conditional_fit": "conditional_fit_batch",
    "peaks": "find_peaks_batch",
}
KERNEL_CALLS = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all", help="workload to time (default all)"
    )
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats of perfbench, unit and field (default 7)")
    parser.add_argument("--label", required=True, help="name of the rows, e.g. before or after")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is timed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def git_commit(root: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(name, once, repeats):
    """Call `once` untimed, then `repeats` times; each call returns (times,
    outputs), outputs mapping names to bytes. Returns the median and the min
    of every time and the sha256 of the warm-up's outputs; exits 1 when a
    timed call's outputs hash differently."""
    runs = []
    for repeat in range(repeats + 1):
        times, outputs = once()
        digests = {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}
        if repeat == 0:
            first = digests
        elif digests != first:
            sys.exit(f"error: {name} repeat {repeat} wrote other outputs than the warm-up")
        else:
            runs.append(times)
    stats = {key: {"median": statistics.median(r[key] for r in runs), "min": min(r[key] for r in runs)}
             for key in runs[0]}
    return stats, first


def install_timers(runner) -> dict:
    """Wrap each stage function in `runner`'s namespace; returns the dict
    that their CPU seconds add to. Stages do not nest: none calls another."""
    spent = dict.fromkeys(STAGES, 0.0)

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
    return spent


def simulate_once(runner, cfg, spent):
    """One `run_simulation`: CPU seconds per stage and the metrics.csv bytes."""
    for stage in spent:
        spent[stage] = 0.0
    t0 = time.process_time()
    result = runner.run_simulation(cfg)
    total = time.process_time() - t0
    times = dict(spent, other=total - sum(spent.values()), total=total)
    return times, {"metrics_csv": runner.metrics_csv_text(result.rows).encode()}


class CpuSteps:
    """The step timer `workloads.Field.run_once` takes, in CPU seconds."""

    def __init__(self):
        self.times = {}

    @contextlib.contextmanager
    def step(self, name):
        t0 = time.process_time()
        yield
        self.times[name] = time.process_time() - t0


def field_once(field):
    """One repeat of the perfbench field workload, checked by `Field.check`."""
    timer = CpuSteps()
    outcome = field.run_once(timer)
    problems = field.check(outcome)
    if problems:
        sys.exit("error: field check failed: " + "; ".join(problems))
    times = dict(timer.times, total=sum(timer.times.values()))
    paths = {"coarse_qpf": "coarse_path", "fine_qpf": "fine_path", "region_report": "report_path"}
    return times, {key: outcome[path].read_bytes() for key, path in paths.items()}


def time_kernels(kernels):
    """CPU microseconds of every kernel case, at the sizes of the pipeline's
    hot paths, and the sha256 of its output."""
    import numpy as np

    rng = np.random.default_rng(0)
    xyz = rng.standard_normal((16384, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    psi = rng.standard_normal((321, 20))
    half = rng.standard_normal((20, 20))
    dmat = half @ half.T / 20
    pts = rng.standard_normal((90, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    stack = rng.standard_normal((3, 30, 3))
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    values = rng.standard_normal(4096)
    neighbors = rng.integers(0, 4096, size=(4096, 8))
    psi_stack = rng.standard_normal((216, 321, 8))
    half_stack = rng.standard_normal((216, 8, 8))
    dmat_stack = half_stack @ half_stack.transpose(0, 2, 1) / 8
    noise_stack = np.full((216, 1), 1e-4)
    cases = [
        ("sh_matrix (16384 pts, L=8)", kernels.sh_matrix, (xyz, 8)),
        ("greedy_gains (321 x K=20)", kernels.greedy_gains, (psi, dmat, 1e-4)),
        ("greedy_gains (216 x 321 x K=8)", kernels.greedy_gains, (psi_stack, dmat_stack, noise_stack)),
        ("coulomb_energy_grad (n=90)", kernels.coulomb_energy_grad, (pts,)),
        ("coulomb_energy_grad (3 x n=30)", kernels.coulomb_energy_grad, (stack,)),
        ("local_maxima (4096 x 8)", kernels.local_maxima, (values, neighbors)),
    ]
    cpu_us, digests = {}, {}
    for case, fn, args in cases:
        def once(case=case, fn=fn, args=args):
            t0 = time.process_time()
            out = fn(*args)
            elapsed = time.process_time() - t0
            parts = out if isinstance(out, tuple) else (out,)
            return {case: elapsed * 1e6}, {case: b"".join(np.asarray(p).tobytes() for p in parts)}

        stats, digest = measure(f"kernels {case}", once, KERNEL_CALLS)
        cpu_us.update(stats)
        digests.update(digest)
    return {"seed": 0, "repeats": KERNEL_CALLS, "cpu_us": cpu_us, "outputs_sha256": digests}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: OpenBLAS reads these once
    src = (args.root / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np
    import qsdesign
    import scipy
    import workloads
    from qsdesign import _kernels, config, runner

    if Path(qsdesign.__file__).resolve().parent != src / "qsdesign":
        print(f"error: imported qsdesign from {qsdesign.__file__}, not {src}", file=sys.stderr)
        return 2
    seed = workloads.REFERENCE_SEED
    spent = install_timers(runner)
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        print(f"timing {name}", file=sys.stderr, flush=True)
        if name == "kernels":
            fields = time_kernels(_kernels)
        elif name == "field":
            with tempfile.TemporaryDirectory(prefix="bench_field_") as tmp:
                field = workloads.Field(seed, "full", Path(tmp))
                cpu_s, digests = measure(name, lambda: field_once(field), args.repeats)
            fields = {"seed": seed, "repeats": args.repeats, "cpu_s": cpu_s, "outputs_sha256": digests}
        else:
            params = workloads.SIZES["full"]["protocol"] if name == "perfbench" else UNIT
            cfg = config.SimConfig(seed=seed, out_dir="unused", **params)
            cpu_s, digests = measure(name, lambda: simulate_once(runner, cfg, spent), args.repeats)
            fields = {"seed": seed, "repeats": args.repeats, "cpu_s": cpu_s,
                      "metrics_csv_sha256": digests["metrics_csv"]}
        row = {"label": args.label, "workload": name, "git_commit": git_commit(args.root), **fields, **environment}
        path = ROOT / ("BENCH_field.json" if name == "field" else "BENCH_pipeline.json")
        bench = json.loads(path.read_text()) if path.exists() else {"benchmark": path.stem, "rows": []}
        bench["rows"].append(row)
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(json.dumps(row, indent=2), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
