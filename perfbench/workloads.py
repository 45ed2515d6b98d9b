"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed only. `run_once`
does the timed work and returns what the checks need; `check` runs after
it, outside the timed steps and with tracing removed, and returns a list
of problems (empty when every output is right).

- protocol: one `run_simulation` of the paper's comparison experiment on
  one thread, scaled down so that a run repeats it about ten times: 60
  training and 16 test subjects, degree 8 so J = 45, a 30-point dense
  design, 321 candidates, budgets 5/10/15/20. Peak detection, ESR and the
  per-subject estimators do most of its work.
- protocol-threads: the same experiment with one worker thread per core,
  so the same layers run concurrently through the runner's thread pool.
  Run by hand only: on a shared 2-core machine its time follows the host's
  steal time too closely for a bound (see README.md).
- field: the multi-voxel design path, without peak detection: the
  `prior-build` command on a 2x2x2 synthetic field (30 subjects per voxel,
  30-point dense design), log-Euclidean interpolation of that field to a
  jittered 6x6x6 lattice saved as a 216-voxel `.qpf`, then the
  `design --mode region --budget 20` command on it. GCV, cohort
  generation, interpolation, `.qpf` I/O and the region greedy do their
  work here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from qsdesign import cli, design, prior, runner
from qsdesign.config import SimConfig

REFERENCE_SEED = 101
REFERENCE_FILE = Path(__file__).with_name("reference_seed101.json")
CONDITIONAL = "cond-greedy"

SIZES = {
    "full": {
        "protocol": dict(
            degree=8,
            train_subjects=60,
            test_subjects=16,
            dense_design_size=30,
            candidate_count=321,
            budgets=(5, 10, 15, 20),
            peak_grid_size=4096,
        ),
        "field": dict(
            degree=8, subjects=30, dense=30, grid=(2, 2, 2), lattice=6, budget=20, candidates=321
        ),
    },
    # seconds-long inputs for the harness self-check
    "tiny": {
        "protocol": dict(
            degree=4,
            train_subjects=12,
            test_subjects=4,
            dense_design_size=24,
            candidate_count=41,
            budgets=(2, 4, 6),
            peak_grid_size=512,
        ),
        "field": dict(degree=4, subjects=8, dense=24, grid=(2, 2, 2), lattice=3, budget=4, candidates=41),
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Timer:
    """Times named steps; `step` also opens a tracer span when tracing."""

    def __init__(self, span=None):
        self.times: dict = {}
        self._span = span

    @contextlib.contextmanager
    def step(self, name):
        ctx = self._span(f"step.{name}") if self._span else contextlib.nullcontext()
        t0 = time.perf_counter()
        with ctx:
            yield
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


class Protocol:
    def __init__(self, name: str, seed: int, size: str, workers: int, workdir: Path, shared: Path):
        self.name = name
        self.size = size
        self.params = SIZES[size]["protocol"]
        self.cfg = SimConfig(
            seed=seed, threads=workers, out_dir=str(workdir), **self.params
        )
        self.shared = shared
        self.first_csv = None

    @property
    def warm(self):
        return self.params["degree"], self.params["peak_grid_size"]

    def run_once(self, timer: Timer) -> dict:
        with timer.step("simulate"):
            result = runner.run_simulation(self.cfg)
        return {"result": result}

    def check(self, outcome: dict) -> list:
        cfg = self.cfg
        result = outcome["result"]
        csv = runner.metrics_csv_text(result.rows)
        problems = []
        if len(result.rows) != 2 * len(cfg.budgets):
            problems.append(f"{len(result.rows)} metric rows, expected {2 * len(cfg.budgets)}")
        for row in result.rows:
            if not _finite(row[k] for k in ("mise", "pfp", "peak_match_rate", "ea")):
                problems.append(f"non-finite metric in row {row}")
            elif not 0.0 <= row["pfp"] <= 1.0:
                problems.append(f"pfp outside [0, 1] in row {row}")

        pool = {p.tobytes(): i for i, p in enumerate(design.default_candidates(cfg.candidate_count).points)}
        selected = {}
        for budget in cfg.budgets:
            points = result.designs[(budget, CONDITIONAL)]
            selected[budget] = [pool.get(p.tobytes()) for p in points]
            if None in selected[budget] or len(set(selected[budget])) != budget:
                problems.append(f"budget {budget}: greedy design is not {budget} distinct candidates")
        for small, large in zip(cfg.budgets, cfg.budgets[1:]):
            if selected[large][:small] != selected[small]:
                problems.append(f"greedy selections not prefix-stable between budgets {small} and {large}")

        if cfg.seed == REFERENCE_SEED and self.size == "full":
            ref = json.loads(REFERENCE_FILE.read_text())["protocol"]
            if csv != ref["metrics_csv"]:
                problems.append(
                    f"metrics.csv differs from the seed-{REFERENCE_SEED} reference "
                    f"(sha256 {sha256(csv.encode())[:16]}, reference {ref['metrics_csv_sha256'][:16]})"
                )
            for budget in cfg.budgets:
                if selected[budget] != ref["greedy_selected"][str(budget)]:
                    problems.append(f"budget {budget}: greedy selection differs from the reference")

        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            problems.append("metrics.csv differs between repeats of the same seed")

        # protocol and protocol-threads must write the same CSV for a seed:
        # each run leaves its CSV behind and compares with the other's.
        self.shared.mkdir(parents=True, exist_ok=True)
        stem = f"{self.size}-seed{cfg.seed}"
        (self.shared / f"{stem}-{self.name}.csv").write_text(csv)
        other = "protocol" if self.name == "protocol-threads" else "protocol-threads"
        other_csv = self.shared / f"{stem}-{other}.csv"
        if other_csv.exists() and other_csv.read_text() != csv:
            problems.append(f"metrics.csv differs from the {other} workload's for seed {cfg.seed}")
        return problems


class Field:
    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.params = p = SIZES[size]["field"]
        self.workdir = workdir
        self.config = workdir / "prior_field.yaml"
        workdir.mkdir(parents=True, exist_ok=True)
        # JSON is a subset of YAML
        self.config.write_text(
            json.dumps(
                {
                    "seed": seed,
                    "degree": p["degree"],
                    "train_subjects": p["subjects"],
                    "dense_design_size": p["dense"],
                    "noise_sigma": 0.01,
                    "rank_rule": {"kind": "fraction", "value": 0.9},
                    "grid_shape": list(p["grid"]),
                    "rotation_per_voxel_degrees": 10.0,
                }
            )
        )
        # jittered lattice of continuous coordinates inside the coarse grid
        rng = np.random.default_rng(seed)
        n = p["lattice"]
        axes = [np.linspace(0.0, g - 1.0, n) for g in p["grid"]]
        spacing = np.array([(g - 1.0) / (n - 1) for g in p["grid"]])
        base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        jitter = rng.uniform(-0.4, 0.4, size=base.shape) * spacing
        self.coords = np.clip(base + jitter, 0.0, np.array(p["grid"]) - 1.0)
        self.first_fingerprint = None

    @property
    def warm(self):
        return self.params["degree"], SIZES[self.size]["protocol"]["peak_grid_size"]

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_once(self, timer: Timer) -> dict:
        p, wd = self.params, self.workdir
        coarse_path = wd / "build" / "prior_field.qpf"
        fine_path = wd / "lattice.qpf"
        with timer.step("prior_build"):
            build_code = self._cli(["prior-build", "--config", str(self.config), "--out", str(wd / "build")])
        fine = None
        if build_code == 0:
            with timer.step("interp"):
                coarse = prior.load_prior_field(coarse_path)
                n = p["lattice"]
                fine = prior.PriorField((n, n, n), {}, coarse.max_degree, coarse.rank_rule)
                for index, query in zip(np.ndindex(n, n, n), self.coords):
                    fine.add(index, prior.interpolate_prior(coarse, query))
                prior.save_prior_field(fine, fine_path)
        design_code = None
        if fine is not None:
            with timer.step("region_design"):
                design_code = self._cli(
                    [
                        "design", "--prior", str(fine_path), "--budget", str(p["budget"]),
                        "--mode", "region", "--candidates", str(p["candidates"]),
                        "--out", str(wd / "design"),
                    ]
                )
        return {
            "build_code": build_code,
            "design_code": design_code,
            "coarse_path": coarse_path,
            "fine": fine,
            "fine_path": fine_path,
            "report_path": wd / "design" / f"design_region_{p['budget']:03d}.json",
        }

    def check(self, outcome: dict) -> list:
        p = self.params
        if outcome["build_code"] != 0:
            return [f"prior-build exited with {outcome['build_code']}"]
        if outcome["design_code"] != 0:
            return [f"design exited with {outcome['design_code']}"]
        problems = []

        # bit-exact save/load round trips: the prior-build file reloaded and
        # saved again, and the interpolated field against its reloaded copy
        coarse_path = outcome["coarse_path"]
        resaved = self.workdir / "resaved.qpf"
        prior.save_prior_field(prior.load_prior_field(coarse_path), resaved)
        if resaved.read_bytes() != coarse_path.read_bytes():
            problems.append("prior-build .qpf changes on a load/save round trip")
        fine, loaded = outcome["fine"], prior.load_prior_field(outcome["fine_path"])
        if sorted(loaded.priors) != sorted(fine.priors) or len(loaded) != p["lattice"] ** 3:
            problems.append("interpolated field lost voxels on a save/load round trip")
        else:
            for index, want in fine.priors.items():
                got = loaded.priors[index]
                if (
                    got.mean.tobytes() != want.mean.tobytes()
                    or got.covariance.tobytes() != want.covariance.tobytes()
                    or got.noise_variance != want.noise_variance
                ):
                    problems.append(f"voxel {index} is not bit-exact after a save/load round trip")
                    break

        report = json.loads(outcome["report_path"].read_text())
        selected = report["selected_indices"]
        objective = report["objective_per_step"]
        factor = report["bound_certificate"]["factor"]
        if len(selected) != p["budget"] or len(set(selected)) != p["budget"]:
            problems.append(f"region design is not {p['budget']} distinct candidates")
        if not all(0 <= i < p["candidates"] for i in selected):
            problems.append("region design selects outside the candidate pool")
        if not _finite(objective) or any(b < a for a, b in zip(objective, objective[1:])):
            problems.append("region objective is not finite and non-decreasing")
        if not (math.isfinite(factor) and 0.0 < factor <= 1.0):
            problems.append(f"bound certificate factor {factor} outside (0, 1]")
        if self.seed == REFERENCE_SEED and self.size == "full":
            ref = json.loads(REFERENCE_FILE.read_text())["field"]
            if selected != ref["region_selected"]:
                problems.append("region selection differs from the seed-101 reference")

        fingerprint = (tuple(selected), sha256(outcome["fine_path"].read_bytes()))
        if self.first_fingerprint is None:
            self.first_fingerprint = fingerprint
        elif fingerprint != self.first_fingerprint:
            problems.append("field outputs differ between repeats of the same seed")
        return problems


def make(name: str, seed: int, size: str, workers: int, workdir: Path, shared: Path):
    if name == "field":
        return Field(seed, size, workdir)
    return Protocol(name, seed, size, workers, workdir, shared)
