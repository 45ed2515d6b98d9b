"""Experiment pipeline: train priors on a dense synthetic cohort, compare
sparse-budget reconstructions, emit metric tables and designs.

The whole pipeline is a pure function of its configuration: cohorts, noise
draws, and starts all derive from one seed through a documented
seed-sequence tree, so repeated runs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import SimConfig
from .design import default_candidates, esr_design, gradient_table, greedy_design
from .estimator import conditional_fit_batch, gcv_select_batch
from .metrics import angular_error, false_peak_fraction, find_peaks_batch, integrated_squared_error
from .prior import VoxelPrior, empirical_moments
from .sim import generate_cohort, observe_batch
from .sphere import ShBasis, funk_radon

CSV_COLUMNS = ("budget", "method", "mise", "pfp", "peak_match_rate", "ea", "n_test", "seed")

METHOD_CONDITIONAL = "cond-greedy"
METHOD_BASELINE = "shls-esr"


@dataclass
class ExperimentResult:
    """Aggregated metric rows plus the designs that produced them."""

    rows: list  # one dict per (budget, method), CSV_COLUMNS keys
    designs: dict  # (budget, method) -> (n, 3) direction array
    objective_history: list  # greedy objective after each pick, largest budget; a budget's is its prefix
    stage_seconds: dict  # "cpu" and "wall" -> stage name -> seconds, in run order
    config: dict

    @property
    def elapsed_seconds(self) -> float:
        """Wall seconds of the run: the sum of its stages' wall laps."""
        return sum(self.stage_seconds["wall"].values())


class _LapClock:
    """Charges the CPU and wall seconds since the previous lap to a named stage."""

    def __init__(self):
        self.stage_seconds = {"cpu": {}, "wall": {}}
        self._last = {"cpu": time.process_time(), "wall": time.perf_counter()}

    def lap(self, stage: str) -> None:
        now = {"cpu": time.process_time(), "wall": time.perf_counter()}
        for kind, seconds in self.stage_seconds.items():
            seconds[stage] = seconds.get(stage, 0.0) + now[kind] - self._last[kind]
        self._last = now


def _derived_rng(seed: int, *key) -> np.random.Generator:
    # stable, documented seed tree: string tags hash via crc32
    parts = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0xD35, *parts)))


def build_prior_from_cohort(truths, dense_points, cfg: SimConfig, seed_tag: str) -> VoxelPrior:
    """Dense-observe each subject, fit all with GCV smoothing in one batch, take moments."""
    basis = ShBasis(cfg.degree)
    rngs = [_derived_rng(cfg.seed, seed_tag, i) for i in range(len(truths))]
    values = observe_batch(truths, dense_points, cfg.noise_sigma, rngs, basis, cfg.noise_kind)
    _, coeffs = gcv_select_batch(dense_points, values, basis)
    mean, cov = empirical_moments(coeffs)
    noise_var = cfg.noise_sigma**2 if cfg.noise_sigma > 0 else 1e-8
    return VoxelPrior.from_moments(mean, cov, noise_var, cfg.rank_rule)


def run_simulation(cfg: SimConfig) -> ExperimentResult:
    """Run the full comparison experiment described by `cfg`.

    Pipeline: generate a training cohort; fit each subject densely at an
    electrostatic-repulsion design with GCV-selected smoothing; summarize
    the fits into a Gaussian-process prior; run the greedy design once, at
    the largest budget; then for every budget take that design's first picks
    for the conditional estimator and an electrostatic-repulsion design for
    the penalized baseline, reconstruct an independent test cohort from
    noisy sparse samples, and score MISE, peak-count mismatch, and angular
    error against the ground truth.

    `stage_seconds` charges each CPU and wall second of the run to one stage:
    cohort, dense_esr, prior_fit, peaks (detection and scoring), greedy,
    baseline_esr, observe and fit.
    """
    clock = _LapClock()
    basis = ShBasis(cfg.degree)

    train = generate_cohort(basis, cfg.generative, cfg.train_subjects, np.random.SeedSequence((cfg.seed, 1)))
    test = generate_cohort(basis, cfg.generative, cfg.test_subjects, np.random.SeedSequence((cfg.seed, 2)))
    clock.lap("cohort")
    dense_points = esr_design(cfg.dense_design_size, seed=cfg.seed)
    clock.lap("dense_esr")
    prior = build_prior_from_cohort(train, dense_points, cfg, "train-noise")
    clock.lap("prior_fit")
    true_peaks = find_peaks_batch([t.fodf for t in test], basis, cfg.peak_grid_size)
    clock.lap("peaks")

    # greedy prefixes are stable: every budget is a prefix of the largest
    candidates = default_candidates(cfg.candidate_count)
    greedy = greedy_design(candidates, prior, basis, cfg.budgets[-1])
    clock.lap("greedy")
    rows = []
    designs = {}
    for b_idx, budget in enumerate(cfg.budgets):
        baseline = esr_design(budget, seed=cfg.seed + 1 + budget)
        clock.lap("baseline_esr")
        method_points = {METHOD_CONDITIONAL: candidates.points[greedy.selected[:budget]], METHOD_BASELINE: baseline}
        for m_idx, (method, points) in enumerate(method_points.items()):
            designs[(budget, method)] = points
            rngs = [_derived_rng(cfg.seed, "test-noise", b_idx, m_idx, i) for i in range(len(test))]
            values = observe_batch(test, points, cfg.noise_sigma, rngs, basis, cfg.noise_kind)
            clock.lap("observe")
            if method == METHOD_CONDITIONAL:
                coeffs = conditional_fit_batch(points, values, prior, basis)
            else:
                # every test subject shares this design: one GCV batch
                _, coeffs = gcv_select_batch(points, values, basis)
            clock.lap("fit")
            ises = [integrated_squared_error(c, t.signal) for c, t in zip(coeffs, test)]
            est_peaks = find_peaks_batch([funk_radon(c, basis) for c in coeffs], basis, cfg.peak_grid_size)
            eas = [angular_error(e, t) for e, t in zip(est_peaks, true_peaks)]
            pfp = false_peak_fraction(est_peaks, true_peaks)
            rows.append(
                {
                    "budget": budget,
                    "method": method,
                    "mise": float(np.mean(ises)),
                    "pfp": pfp,
                    "peak_match_rate": 1.0 - pfp,
                    "ea": float(np.mean(eas)),
                    "n_test": len(test),
                    "seed": cfg.seed,
                }
            )
            clock.lap("peaks")
    return ExperimentResult(
        rows=rows,
        designs=designs,
        objective_history=greedy.objective_history.tolist(),
        stage_seconds=clock.stage_seconds,
        config=asdict(cfg),
    )


def metrics_csv_text(rows) -> str:
    """Fixed-schema CSV body for metric rows (documented column set)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def _design_name(method: str, budget: int) -> str:
    return f"designs/{method}_{budget:03d}.txt"


def output_names(budgets) -> list:
    """Every file `write_outputs` writes for a run over `budgets`, relative
    to its output directory."""
    designs = [_design_name(m, b) for b in budgets for m in (METHOD_CONDITIONAL, METHOD_BASELINE)]
    return ["metrics.csv", *designs, "report.json"]


def write_outputs(result: ExperimentResult, out_dir) -> Path:
    """Write metrics.csv, per-design gradient tables, and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics_csv_text(result.rows))
    (out / "designs").mkdir(exist_ok=True)
    for (budget, method), points in sorted(result.designs.items()):
        (out / _design_name(method, budget)).write_text(gradient_table(points))
    report = {
        "config": result.config,
        "elapsed_seconds": result.elapsed_seconds,
        "greedy_objective_history": result.objective_history,
        "stage_seconds": result.stage_seconds,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out
