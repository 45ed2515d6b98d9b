#!/usr/bin/env python3
"""Time the multi-voxel field path of qsdesign, step by step.

Run from the repository root:

    python3 benchmarks/bench_field.py --repeats 7 --label after
    python3 benchmarks/bench_field.py --repeats 7 --label before --root ../other-checkout

One repeat is the field path at seed 101: the `prior-build` command on a
2x2x2 synthetic field (30 subjects per voxel, degree 8, 30-point dense
design), log-Euclidean interpolation of that field to a jittered 6x6x6
lattice saved as a 216-voxel `.qpf`, then `design --mode region --budget 20`
over 321 candidates. The inputs are those of the perfbench `field`
workload. Every repeat runs at one BLAS thread, after one untimed warm-up
repeat. The script appends one row to BENCH_field.json next to this
directory: the median and the min CPU seconds per step and in total, the
sha256 of the three outputs, nproc, the Python, numpy and scipy versions,
and the git commit of the checkout whose `src/` was timed (`--root`).
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
OUT = HERE.parent / "BENCH_field.json"
SEED = 101
STEPS = ("prior_build", "interp", "region_design")
GRID, SUBJECTS, DENSE, DEGREE, LATTICE, BUDGET, CANDIDATES = (2, 2, 2), 30, 30, 8, 6, 20, 321


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats (default 7)")
    parser.add_argument("--label", required=True, help="name of the row, e.g. before or after")
    parser.add_argument("--root", type=Path, default=HERE.parent, help="checkout whose src/ is timed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def git_commit(root: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def lattice_coords():
    """The perfbench `field` lattice: a jittered LATTICE^3 grid inside GRID."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    axes = [np.linspace(0.0, g - 1.0, LATTICE) for g in GRID]
    spacing = np.array([(g - 1.0) / (LATTICE - 1) for g in GRID])
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    jitter = rng.uniform(-0.4, 0.4, size=base.shape) * spacing
    return np.clip(base + jitter, 0.0, np.array(GRID) - 1.0)


def run_once(workdir: Path, coords):
    """One repeat in `workdir`: CPU seconds per step and the output paths."""
    import numpy as np
    from qsdesign import cli, prior

    config = workdir / "prior_field.yaml"
    config.write_text(
        json.dumps(  # JSON is a subset of YAML
            {
                "seed": SEED,
                "degree": DEGREE,
                "train_subjects": SUBJECTS,
                "dense_design_size": DENSE,
                "noise_sigma": 0.01,
                "rank_rule": {"kind": "fraction", "value": 0.9},
                "grid_shape": list(GRID),
                "rotation_per_voxel_degrees": 10.0,
            }
        )
    )
    coarse_path, fine_path = workdir / "build" / "prior_field.qpf", workdir / "lattice.qpf"
    report_path = workdir / "design" / f"design_region_{BUDGET:03d}.json"
    times = {}

    def cli_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"qsdesign {argv[0]} exited with {code}")

    t0 = time.process_time()
    cli_main(["prior-build", "--config", str(config), "--out", str(workdir / "build")])
    times["prior_build"] = time.process_time() - t0

    t0 = time.process_time()
    coarse = prior.load_prior_field(coarse_path)
    fine = prior.PriorField((LATTICE,) * 3, {}, coarse.max_degree, coarse.rank_rule)
    for index, query in zip(np.ndindex(*fine.shape), coords):
        fine.add(index, prior.interpolate_prior(coarse, query))
    prior.save_prior_field(fine, fine_path)
    times["interp"] = time.process_time() - t0

    t0 = time.process_time()
    cli_main(
        [
            "design", "--prior", str(fine_path), "--budget", str(BUDGET), "--mode", "region",
            "--candidates", str(CANDIDATES), "--out", str(workdir / "design"),
        ]
    )
    times["region_design"] = time.process_time() - t0
    times["total"] = sum(times.values())
    return times, {"coarse_qpf": coarse_path, "fine_qpf": fine_path, "region_report": report_path}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: OpenBLAS reads these once
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import qsdesign
    import scipy

    if Path(qsdesign.__file__).resolve().parent != src / "qsdesign":
        print(f"error: imported qsdesign from {qsdesign.__file__}, not {src}", file=sys.stderr)
        return 2
    coords = lattice_coords()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_field_") as tmp:
        for repeat in range(args.repeats + 1):  # repeat 0 warms caches, untimed
            workdir = Path(tmp) / f"r{repeat}"
            workdir.mkdir()
            times, outputs = run_once(workdir, coords)
            if repeat == 0:
                digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in outputs.items()}
            else:
                runs.append(times)
            print(json.dumps({"repeat": repeat, "cpu_s": times}), flush=True)

    row = {
        "label": args.label,
        "git_commit": git_commit(args.root),
        "seed": SEED,
        "repeats": args.repeats,
        "cpu_s": {
            step: {"median": statistics.median(r[step] for r in runs), "min": min(r[step] for r in runs)}
            for step in (*STEPS, "total")
        },
        "outputs_sha256": digests,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"benchmark": "field path, seed 101", "rows": []}
    bench["rows"].append(row)
    OUT.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
