#!/usr/bin/env python3
"""Time qsdesign stage by stage: the experiment pipeline, the field path, the region design, the kernels and the set-up caches.

Run from the repository root:

    python3 benchmarks/bench_pipeline.py --repeats 7 --label after
    python3 benchmarks/bench_pipeline.py --workload field --repeats 9 --label before --root ../other-checkout

Six workloads, all at one BLAS thread:

- perfbench: one `run_simulation` on the inputs of the perfbench `protocol`
  workload (`SIZES["full"]["protocol"]` in perfbench/workloads.py);
- unit: one `run_simulation` of the roadmap's protocol unit (UNIT below);
  a perfbench or unit row also holds the peak RSS (VmHWM, see run_child)
  and the minor page faults of each stage (its report's
  `stage_minor_faults`) of one more run, made once per row in a fresh
  process, untimed;
- field: one repeat of the perfbench `field` workload (`workloads.Field`):
  `prior-build`, interpolation to a 216-voxel lattice with `.qpf` I/O, then
  a region design; `Field.check` validates every repeat. A field row also
  holds the peak RSS (VmHWM, see run_child) of one more repeat, `run_once`
  and `check`, made once per row in a fresh process, untimed;
- region: `qsdesign design --mode region --budget 20`, and `--mode single`
  for the lattice's centre voxel, each in a fresh process per repeat, on
  lattices of 216, 1000, 4096 and 8000 voxels (REGION_LATTICES)
  interpolated from the coarse prior of the `field` workload's
  `prior-build`; the lattices are built once per run, untimed. A row holds
  each size's process CPU seconds, peak RSS and minor page faults (see
  run_child), the CPU seconds and minor page faults of the design's `.qpf`
  load and the sha256 of its design report, for each mode (single mode's
  under "single"), and the sha256 of every prior that `load_prior_field`
  reads from its lattice (mean, covariance, eigenpairs, noise variance),
  loaded once in this process, untimed;
- kernels: six cases of `qsdesign._kernels` at pipeline sizes, among them
  the voxel stack a region design scores per step and the workspace call
  the ESR descent makes per step over the 15 restarts of the protocol's
  five designs; 30 calls each, whatever --repeats says;
- setup: `import qsdesign`, a process's first fit and the two set-up
  caches a `simulate` process fills before any timed work, each in a fresh
  process per repeat, at the perfbench degree and at peak grid sizes 4096
  and 16384 (SETUP_GRID_SIZES). The first fit is one `gcv_select_batch` of
  four value rows at 2 J spiral points, right after the import, so it
  carries whatever its factorisation loads; `gcv_maxrss_mb` is the peak RSS
  (VmHWM) right after it. The caches are the projection grid and its basis
  matrix (`sim._projection_setup`) and the detection grid with its
  neighbour table (`metrics._detection_setup`). A row holds the CPU seconds
  of the import (numpy's included), of the fit and of each cache, the
  process CPU seconds and peak RSS (see run_child), the sha256 of the
  fit's output and that of the tables, each equal across checkouts whose
  outputs are; the neighbour rows are hashed sorted, since a row is a set
  of neighbours and its column order is not part of the table's contract.

perfbench/workloads.py is read from this checkout, never from `--root`, so
rows that time two checkouts share their inputs and seed (101). Pipeline
stages are those `run_simulation` times itself, read from its report's
`stage_seconds` (CPU seconds: cohort, esr, prior_fit, peaks, greedy,
observe, fit); `total` is the CPU time of the whole call,
and the script exits 1 when the stages cover less than COVERAGE of it.
Field steps are timed by `Field.run_once` itself.

Every workload runs one untimed warm-up first; a timed repeat whose outputs
hash differently from the warm-up's stops the script with exit 1. Each
workload appends one row to BENCH_pipeline.json (BENCH_field.json for
`field` and `region`) next to this directory: the median and the min CPU time per stage
and in total (seconds; microseconds for kernels), the sha256 of the
outputs, nproc, the Python, numpy and scipy versions, and the git commit of
the checkout whose `src/` was timed, marked "-dirty" when its tracked files
differ from that commit.
"""

import argparse
import contextlib
import hashlib
import io
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
WORKLOADS = ("perfbench", "unit", "field", "region", "kernels", "setup")
UNIT = dict(
    degree=8, train_subjects=200, test_subjects=100, dense_design_size=90,
    candidate_count=321, budgets=(5, 10, 15, 20, 45), peak_grid_size=4096,
)
# share of a run's CPU time its stages must account for
COVERAGE = 0.95
KERNEL_CALLS = 30
SETUP_GRID_SIZES = (4096, 16384)
# The fresh-process workloads run one of these bodies through run_child.
# Each leaves a JSON-able dict in `result`; the tail adds the process's CPU
# seconds (interpreter start-up and imports included), its peak RSS in MB and
# its minor page faults (`minflt`).
# The peak is VmHWM: on Linux, ru_maxrss after a fork and exec starts from
# the forking process's RSS, here that of this harness.
CHILD_HEAD = """import json, resource, sys
def peak_mb():
    return next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:")) / 1024.0
"""
CHILD_TAIL = """
usage = resource.getrusage(resource.RUSAGE_SELF)
result.update(process_cpu_s=usage.ru_utime + usage.ru_stime, maxrss_mb=peak_mb(), minflt=usage.ru_minflt)
print(json.dumps(result))
"""
# Imports qsdesign, makes one first fit, then fills both caches; argv:
# degree, peak grid size.
SETUP_CHILD = """
import hashlib, time
t_import = time.process_time()
from qsdesign import ShBasis, design, estimator, metrics, sim
import numpy as np
basis = ShBasis(int(sys.argv[1]))
points = design.hemisphere_spiral(2 * basis.dimension)
rows = np.random.default_rng(0).standard_normal((4, len(points)))
t_fit = time.process_time()
lambdas, coeffs = estimator.gcv_select_batch(points, rows, basis)
t0 = time.process_time()
fit_peak_mb = peak_mb()
grid, phi = sim._projection_setup(basis)
t1 = time.process_time()
dirs, neighbors, grid_basis = metrics._detection_setup(int(sys.argv[2]), basis)
t2 = time.process_time()
digest = hashlib.sha256()
for table in (grid.directions, grid.weights, phi, dirs, np.sort(neighbors, axis=1), grid_basis):
    digest.update(table.tobytes())
cpu_s = {"import": t_fit - t_import, "gcv": t0 - t_fit, "projection": t1 - t0, "detection": t2 - t1}
result = {"cpu_s": cpu_s, "gcv_maxrss_mb": fit_peak_mb, "tables_sha256": digest.hexdigest(),
          "gcv_sha256": hashlib.sha256(lambdas.tobytes() + coeffs.tobytes()).hexdigest()}
"""
# One `run_simulation`; argv: its SimConfig keyword arguments as JSON.
SIMULATE_CHILD = """
from qsdesign import config, runner
report = runner.run_simulation(config.SimConfig(**json.loads(sys.argv[1]))).report
result = {"stage_minor_faults": report["stage_minor_faults"]}
"""
# One repeat of the perfbench `field` workload, `run_once` then `check`;
# argv: the perfbench directory, the seed and the work directory.
FIELD_CHILD = """
import contextlib
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
class Steps:
    def step(self, name):
        return contextlib.nullcontext()
field = workloads.Field(int(sys.argv[2]), "full", Path(sys.argv[3]))
problems = field.check(field.run_once(Steps()))
if problems:
    sys.exit("field check failed: " + "; ".join(problems))
result = {}
"""
REGION_LATTICES = (6, 10, 16, 20)  # points per axis: 216, 1000, 4096 and 8000 voxels
REGION_BUDGET = 20
# Runs the `qsdesign` command line; argv: its arguments. A failing command
# exits with its code, so run_child reports its stderr. The `.qpf` reads of
# the command, the calls of every `qsdesign.prior.load_*` function that `cli`
# holds, are timed in process CPU seconds and minor page faults.
REGION_CHILD = """
import time
from qsdesign import cli
load = {"cpu_s": 0.0, "minflt": 0}
def timed(read):
    def call(*args, **kwargs):
        cpu, faults = time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return read(*args, **kwargs)
        finally:
            load["cpu_s"] += time.process_time() - cpu
            load["minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return call
for name, value in list(vars(cli).items()):
    if name.startswith("load_") and getattr(value, "__module__", None) == "qsdesign.prior":
        setattr(cli, name, timed(value))
code = cli.main(sys.argv[1:])
if code:
    sys.exit(code)
result = {"load_cpu_s": load["cpu_s"], "load_minflt": load["minflt"]}
"""


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
    if not (args.root / "src" / "qsdesign").is_dir():
        parser.error(f"--root {args.root} is not a qsdesign checkout: it has no src/qsdesign")
    return args


def git_commit(root: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    # the full hash of HEAD (no tag names), with "-dirty" when tracked files differ from it
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
                          capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(src: Path, body: str, argv, what: str) -> dict:
    """Run `body` in a fresh Python process that imports qsdesign from `src`,
    with `argv` as its arguments; returns its `result` with `process_cpu_s`
    and `maxrss_mb` added. Exits 1 naming `what` when the process fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", CHILD_HEAD + body + CHILD_TAIL, *argv],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"error: {what} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])  # after whatever `body` printed


def loaded_field_sha256(path: Path) -> str:
    """The sha256 of every prior `load_prior_field` reads from `path`, in
    file order: index, mean, covariance, eigenpairs and noise variance."""
    from qsdesign import prior

    digest = hashlib.sha256()
    for index, p in prior.load_prior_field(path).priors.items():
        digest.update(repr((index, p.noise_variance)).encode())
        for array in (p.mean, p.covariance, p.eigenvalues, p.eigenvectors):
            digest.update(array.tobytes())
    return digest.hexdigest()


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


def simulate_once(runner, cfg):
    """One `run_simulation`: CPU seconds per stage and in total, and the
    metrics.csv bytes. Exits 1 when the stages cover less than COVERAGE of
    the total."""
    t0 = time.process_time()
    result = runner.run_simulation(cfg)
    total = time.process_time() - t0
    stages = result.report["stage_seconds"]["cpu"]
    if sum(stages.values()) < COVERAGE * total:
        sys.exit(f"error: run_simulation's stages cover {sum(stages.values()):.3f} of its {total:.3f} CPU seconds")
    return dict(stages, total=total), {"metrics_csv": runner.metrics_csv_text(result.rows).encode()}


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


def build_lattices(field, workdir: Path) -> dict:
    """The `field` workload's coarse prior, interpolated to a jittered
    n x n x n lattice for every n of REGION_LATTICES; returns voxel count ->
    the saved `.qpf`. The jitter is that of `workloads.Field`, from the
    field's seed."""
    import numpy as np
    from qsdesign import cli, prior

    build = workdir / "build"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["prior-build", "--config", str(field.config), "--out", str(build)])
    if code != 0:
        sys.exit(f"error: prior-build of the region lattices exited with {code}")
    coarse = prior.load_prior_field(build / "prior_field.qpf")
    grid = np.array(coarse.shape, dtype=float) - 1.0
    paths = {}
    for n in REGION_LATTICES:
        base = np.stack(np.meshgrid(*(np.linspace(0.0, g, n) for g in grid), indexing="ij"), axis=-1)
        jitter = np.random.default_rng(field.seed).uniform(-0.4, 0.4, size=(n**3, 3)) * grid / (n - 1)
        coords = np.clip(base.reshape(-1, 3) + jitter, 0.0, grid)
        lattice = prior.PriorField((n, n, n), {}, coarse.max_degree, coarse.rank_rule)
        for index, query in zip(np.ndindex(n, n, n), coords):
            lattice.add(index, prior.interpolate_prior(coarse, query))
        paths[n**3] = workdir / f"lattice_{n**3}.qpf"
        prior.save_prior_field(lattice, paths[n**3])
    return paths


def time_region(src: Path, lattices: dict, repeats: int):
    """Fresh-process region designs on every lattice, and single-mode designs
    of its centre voxel (under "single"): the median and min of the process
    CPU seconds, peak RSS MB and minor page faults, and of the CPU seconds
    and minor page faults of the design's `.qpf` load; each report's sha256
    and that of the loaded priors."""
    keys = ("cpu_s", "maxrss_mb", "minflt", "load_cpu_s", "load_minflt")
    region = {key: {} for key in (*keys, "report_sha256")}
    single, loaded = {key: {} for key in region}, {}
    for voxels, path in lattices.items():
        size = f"{voxels} voxels"
        centre = ",".join([str(round(voxels ** (1 / 3)) // 2)] * 3)
        for mode, stats, extra in (("region", region, []), ("single", single, ["--voxel", centre])):
            out = path.with_suffix("") / mode
            argv = ["design", "--prior", str(path), "--mode", mode, "--budget", str(REGION_BUDGET),
                    "--candidates", "321", *extra, "--out", str(out)]

            def once(mode=mode, size=size, out=out, argv=argv):
                child = run_child(src, REGION_CHILD, argv, f"{mode} design at {size}")
                child["cpu_s"] = child["process_cpu_s"]
                report = (out / f"design_{mode}_{REGION_BUDGET:03d}.json").read_bytes()
                return {key: child[key] for key in keys}, {size: report}

            size_stats, digests = measure(f"{mode} at {size}", once, repeats)
            for key in keys:
                stats[key][size] = size_stats[key]
            stats["report_sha256"].update(digests)
        loaded[size] = loaded_field_sha256(path)
    return {"budget": REGION_BUDGET, "candidates": 321, "repeats": repeats, **region,
            "single": {"voxel": "centre", **single}, "loaded_priors_sha256": loaded}


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
    # the protocol's ESR live set: three restarts of each design, as the descent lays them out
    sizes = [n for n in (30, 5, 10, 15, 20) for _ in range(3)]
    live_set = kernels.CoulombWorkspace(sizes)
    live_points = rng.standard_normal((3, sum(sizes)))
    live_points /= np.linalg.norm(live_points, axis=0)
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
        ("coulomb_energy_grad (3 x n=30, 5, 10, 15, 20)", kernels.coulomb_energy_grad,
         (live_points, None, live_set)),
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


def time_setup(src: Path, degree: int, repeats: int):
    """Fresh-process import, first fit and set-up of the projection and
    detection caches at every SETUP_GRID_SIZES entry: the median and min of
    each step's CPU seconds, the process CPU seconds, the peak RSS MB after
    the fit and at the end, and the fit's and the tables' sha256."""
    cpu_s, maxrss_mb, gcv_maxrss_mb, tables, gcv = {}, {}, {}, {}, {}
    for size in SETUP_GRID_SIZES:
        grid = f"grid {size}"

        def once(size=size, grid=grid):
            child = run_child(src, SETUP_CHILD, [str(degree), str(size)], f"setup at {grid}")
            tables[grid], gcv[grid] = child["tables_sha256"], child["gcv_sha256"]
            cpu = dict(child["cpu_s"], process=child["process_cpu_s"])
            times = {f"{key} ({grid})": value for key, value in cpu.items()}
            peaks = dict(maxrss_mb=child["maxrss_mb"], gcv_maxrss_mb=child["gcv_maxrss_mb"])
            return dict(times, **peaks), {grid: tables[grid].encode(), f"gcv {grid}": gcv[grid].encode()}

        stats = measure(f"setup at {grid}", once, repeats)[0]
        maxrss_mb[grid], gcv_maxrss_mb[grid] = stats.pop("maxrss_mb"), stats.pop("gcv_maxrss_mb")
        cpu_s.update(stats)
    return {"degree": degree, "repeats": repeats, "cpu_s": cpu_s, "maxrss_mb": maxrss_mb,
            "gcv_maxrss_mb": gcv_maxrss_mb, "tables_sha256": tables, "gcv_sha256": gcv}


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
        elif name == "setup":
            fields = time_setup(src, workloads.SIZES["full"]["protocol"]["degree"], args.repeats)
        elif name == "field":
            with tempfile.TemporaryDirectory(prefix="bench_field_") as tmp:
                field = workloads.Field(seed, "full", Path(tmp) / "timed")
                cpu_s, digests = measure(name, lambda: field_once(field), args.repeats)
                argv = [str(ROOT / "perfbench"), str(seed), str(Path(tmp) / "peak")]
                child = run_child(src, FIELD_CHILD, argv, "field repeat")
            fields = {"seed": seed, "repeats": args.repeats, "cpu_s": cpu_s, "outputs_sha256": digests,
                      "maxrss_mb": child["maxrss_mb"]}
        elif name == "region":
            with tempfile.TemporaryDirectory(prefix="bench_region_") as tmp:
                lattices = build_lattices(workloads.Field(seed, "full", Path(tmp)), Path(tmp))
                fields = {"seed": seed, **time_region(src, lattices, args.repeats)}
        else:
            params = dict(workloads.SIZES["full"]["protocol"] if name == "perfbench" else UNIT,
                          seed=seed, out_dir="unused")
            cpu_s, digests = measure(name, lambda: simulate_once(runner, config.SimConfig(**params)), args.repeats)
            child = run_child(src, SIMULATE_CHILD, [json.dumps(params)], f"{name} run_simulation")
            fields = {"seed": seed, "repeats": args.repeats, "cpu_s": cpu_s,
                      "metrics_csv_sha256": digests["metrics_csv"], "maxrss_mb": child["maxrss_mb"],
                      "stage_minor_faults": child["stage_minor_faults"]}
        row = {"label": args.label, "workload": name, "git_commit": git_commit(args.root), **fields, **environment}
        path = ROOT / ("BENCH_field.json" if name in ("field", "region") else "BENCH_pipeline.json")
        bench = json.loads(path.read_text()) if path.exists() else {"benchmark": path.stem, "rows": []}
        bench["rows"].append(row)
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(json.dumps(row, indent=2), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
