#!/usr/bin/env python3
"""qsdesign benchmark: one workload per run, end-to-end or traced.

Run from the root of a qsdesign checkout:

    python3 perfbench/run.py --workload protocol --seed 101 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Workloads: protocol, field and, by hand only, protocol-threads (see
workloads.py and README.md). An untraced run (--trace 0) repeats the
workload's operation, with the same inputs, while the next repeat still
fits in --seconds (at least once) and reports the end-to-end metrics: the
CPU time of the slowest repeat of the operation, the median CPU time of
set-up in fresh processes, peak RSS and the share of operations that
succeeded. A traced run (--trace 1) runs the operation once with tracing
and reports the per-layer metrics; it writes every span to
.bench_out/trace-<workload>-seed<seed>.json. Its trace.overhead_s is the
traced operation's CPU time minus the median CPU time of the operations of
the untraced runs of the workload already made in this checkout (or of one
untraced operation when there are none). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it record the environment and the time of each operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("protocol", "protocol-threads", "field")
SETUP_PROBES = {"full": 5, "tiny": 1}

# (metric, span, quantity, unit). Quantities: calls, self_s, total_s, extra
# (the summed extra count of the span's calls), us_per_call and
# extra_per_call (means over calls, 0 without calls), and under:<span>
# (calls of <span> made inside this span). A span that was never entered
# gives 0; a target the package lacks gives no metric.
LAYER_METRICS = (
    ("kernels.sh_matrix.calls", "_kernels.sh_matrix", "calls", "count"),
    ("kernels.sh_matrix.points", "_kernels.sh_matrix", "extra", "count"),
    ("kernels.sh_matrix.us_per_call", "_kernels.sh_matrix", "us_per_call", "us"),
    ("kernels.sh_matrix.self_s", "_kernels.sh_matrix", "self_s", "s"),
    ("sphere.evaluate.calls", "sphere.ShBasis.evaluate", "calls", "count"),
    ("sphere.evaluate.points_per_call", "sphere.ShBasis.evaluate", "extra_per_call", "count"),
    ("sphere.evaluate.self_s", "sphere.ShBasis.evaluate", "self_s", "s"),
    ("metrics.find_peaks.calls", "metrics.find_peaks", "calls", "count"),
    ("metrics.find_peaks.self_s", "metrics.find_peaks", "self_s", "s"),
    ("metrics.find_peaks.total_s", "metrics.find_peaks", "total_s", "s"),
    ("metrics.find_peaks.evaluate_calls", "metrics.find_peaks", "under:sphere.ShBasis.evaluate", "count"),
    ("metrics.find_peaks.peaks", "metrics.find_peaks", "extra", "count"),
    ("kernels.local_maxima.calls", "_kernels.local_maxima", "calls", "count"),
    ("kernels.local_maxima.self_s", "_kernels.local_maxima", "self_s", "s"),
    ("design.esr_design.calls", "design.esr_design", "calls", "count"),
    ("design.esr_design.self_s", "design.esr_design", "self_s", "s"),
    ("design.esr_design.energy_evals", "design.esr_design", "under:_kernels.coulomb_energy_grad", "count"),
    ("kernels.coulomb_energy_grad.calls", "_kernels.coulomb_energy_grad", "calls", "count"),
    ("kernels.coulomb_energy_grad.self_s", "_kernels.coulomb_energy_grad", "self_s", "s"),
    ("estimator.gcv_select.calls", "estimator.gcv_select", "calls", "count"),
    ("estimator.gcv_select.self_s", "estimator.gcv_select", "self_s", "s"),
    ("estimator.gcv_select.edge_hit_rate", "estimator.gcv_select", "extra_per_call", "ratio"),
    ("estimator.conditional_fit.calls", "estimator.conditional_fit", "calls", "count"),
    ("estimator.conditional_fit.self_s", "estimator.conditional_fit", "self_s", "s"),
    ("sim.generate_cohort.calls", "sim.generate_cohort", "calls", "count"),
    ("sim.generate_cohort.self_s", "sim.generate_cohort", "self_s", "s"),
    ("sim.observe.calls", "sim.observe", "calls", "count"),
    ("sim.observe.self_s", "sim.observe", "self_s", "s"),
    ("design.greedy_design.self_s", "design.greedy_design", "self_s", "s"),
    ("design.greedy_design_region.self_s", "design.greedy_design_region", "self_s", "s"),
    ("design.greedy_bound.calls", "design.greedy_bound", "calls", "count"),
    ("design.greedy_bound.self_s", "design.greedy_bound", "self_s", "s"),
    ("kernels.greedy_gains.calls", "_kernels.greedy_gains", "calls", "count"),
    ("kernels.greedy_gains.self_s", "_kernels.greedy_gains", "self_s", "s"),
    ("prior.interpolate_prior.calls", "prior.interpolate_prior", "calls", "count"),
    ("prior.interpolate_prior.self_s", "prior.interpolate_prior", "self_s", "s"),
    ("prior.VoxelPrior.from_moments.calls", "prior.VoxelPrior.from_moments", "calls", "count"),
    ("prior.VoxelPrior.from_moments.self_s", "prior.VoxelPrior.from_moments", "self_s", "s"),
    ("prior.save_prior_field.bytes", "prior.save_prior_field", "extra", "bytes"),
    ("prior.save_prior_field.self_s", "prior.save_prior_field", "self_s", "s"),
    ("prior.load_prior_field.bytes", "prior.load_prior_field", "extra", "bytes"),
    ("prior.load_prior_field.self_s", "prior.load_prior_field", "self_s", "s"),
    ("runner.run_simulation.self_s", "runner.run_simulation", "self_s", "s"),
    ("runner.build_prior_from_cohort.self_s", "runner.build_prior_from_cohort", "self_s", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
    ("step.simulate_s", "step.simulate", "total_s", "s"),
    ("step.prior_build_s", "step.prior_build", "total_s", "s"),
    ("step.interp_s", "step.interp", "total_s", "s"),
    ("step.region_design_s", "step.region_design", "total_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload on tiny inputs and validate the output")
    args = parser.parse_args(argv)
    if not args.self_check and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    return args


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsdesign").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # never look above ROOT
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, nproc, workers) -> dict:
    import numpy as np
    import scipy

    from qsdesign import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "workers": workers,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "using_numba": getattr(_kernels, "USING_NUMBA", None),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def setup_times(count, degree, grid_size):
    """Set-up CPU seconds of `count` fresh processes, and how many failed."""
    times, failed = [], 0
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(degree), str(grid_size)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr)
            continue
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times, failed


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for. On a
    virtual machine it leaves out the time the host took the CPU away."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def attempt(workload, tracer=None):
    """One operation, traced when a tracer is given, then its output checks
    (untraced). Returns (CPU seconds of the operation, the step timer,
    problems); the timer holds each step's wall time."""
    from workloads import Timer

    timer = Timer(tracer.span if tracer else None)
    cpu = 0.0
    try:
        if tracer:
            tracer.install()
        try:
            cpu = cpu_seconds()
            outcome = workload.run_once(timer)
        finally:
            cpu = cpu_seconds() - cpu
            if tracer:
                tracer.uninstall()
        problems = workload.check(outcome)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc()
        problems = [f"raised {exc!r}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return cpu, timer, problems


def layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0}
    metrics = {}
    for metric, span, quantity, unit in LAYER_METRICS:
        if span in tracer.missing:
            continue
        agg = summary.get(span, zero)
        calls = agg["calls"]
        if quantity.startswith("under:"):
            value = tracer.count_under(quantity[len("under:"):], span)
        elif quantity == "us_per_call":
            value = agg["total_s"] / calls * 1e6 if calls else 0.0
        elif quantity == "extra_per_call":
            value = agg["extra"] / calls if calls else 0.0
        else:
            value = agg[quantity]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsdesign" / "__init__.py").is_file():
        print(f"error: no qsdesign sources under {SRC}; run from a qsdesign checkout", file=sys.stderr)
        return 2
    if args.self_check:
        from selfcheck import self_check

        return self_check(WORKLOADS)

    nproc = len(os.sched_getaffinity(0))
    workers = nproc if args.workload == "protocol-threads" else 1
    # One BLAS thread: workers x BLAS threads stays within nproc on every
    # workload, and protocol and protocol-threads share one BLAS setting
    # (OpenBLAS results depend on its thread count).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QSPACE_THREADS", None)  # would override the workload's thread count
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import qsdesign

    if Path(qsdesign.__file__).resolve().parent != (SRC / "qsdesign").resolve():
        print(f"error: imported qsdesign from {qsdesign.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import kernels
    import tracer as tracing
    import workloads
    from setup_probe import warm_caches

    env = environment(args, nproc, workers)
    print(json.dumps({"env": env}), flush=True)

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, args.size, workers, workdir, OUT / "csv")
    record = OUT / f"untraced-{args.workload}-{args.size}.json"  # op CPU times of passing untraced runs
    attempted = failed = 0
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace == 0:
            probes, probe_failures = setup_times(SETUP_PROBES[args.size], *workload.warm)
            attempted += SETUP_PROBES[args.size]
            failed += probe_failures
            warm_caches(*workload.warm)
            op_times, step_times = [], []
            start = time.perf_counter()
            while True:
                seconds, timer, problems = attempt(workload)
                attempted += 1
                failed += bool(problems)
                op_times.append(seconds)
                step_times.append(timer.times)
                elapsed = time.perf_counter() - start
                if problems or elapsed + elapsed / len(op_times) > args.seconds:
                    break
            steps = {k: statistics.median(t[k] for t in step_times if k in t) for k in step_times[0]}
            wall = statistics.median(sum(t.values()) for t in step_times)
            timed = op_times[1:] or op_times  # the first repeat warms up
            info = {"ops": len(op_times), "op_cpu_s": op_times, "median_op_cpu_s": statistics.median(timed),
                    "median_op_wall_s": wall, "median_step_wall_s": steps, "setup_s": probes}
            print(json.dumps(info), flush=True)
            if not failed:
                past = json.loads(record.read_text()) if record.exists() else []
                record.write_text(json.dumps(past + timed))
            metrics = {
                "op_cpu_max_s": {"value": max(timed), "unit": "s"},
                "setup_s": {"value": statistics.median(probes) if probes else float("nan"), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        else:
            warm_caches(*workload.warm)
            from qsdesign import _kernels

            bench, bench_missing = kernels.measure(_kernels)
            tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            traced_seconds, _, problems = attempt(workload, tracer)
            attempted += 1
            failed += bool(problems)
            # untraced reference: the untraced runs made in this checkout, or
            # one untraced operation now when there are none
            if record.exists():
                plain_seconds = statistics.median(json.loads(record.read_text()))
            else:
                plain_seconds, _, problems = attempt(workload)
                attempted += 1
                failed += bool(problems)
            metrics = layer_metrics(tracer)
            metrics.update({k: {"value": v, "unit": u} for k, (v, u) in bench.items()})
            metrics["trace.overhead_s"] = {"value": traced_seconds - plain_seconds, "unit": "s"}
            metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
            missing = tracer.missing + bench_missing
            if missing:
                print(json.dumps({"missing_targets": missing}), flush=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", {"env": env})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        metrics["ok_rate"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
