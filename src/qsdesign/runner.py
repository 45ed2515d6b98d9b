"""Experiment pipeline: train priors on a dense synthetic cohort, compare
sparse-budget reconstructions, emit metric tables and designs.

The whole pipeline is a pure function of its configuration: cohorts, noise
draws, and starts all derive from one seed through a documented
seed-sequence tree, so repeated runs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SimConfig, sim_config_to_dict
from .design import default_candidates, esr_design, gradient_table, greedy_design
from .errors import ValidationError
from .estimator import conditional_fit, gcv_select_batch
from .metrics import angular_error, false_peak_fraction, find_peaks_batch, integrated_squared_error
from .prior import VoxelPrior, empirical_moments
from .sim import generate_cohort, observe
from .sphere import ShBasis, funk_radon

CSV_COLUMNS = ("budget", "method", "mise", "pfp", "peak_match_rate", "ea", "n_test", "seed")

METHOD_CONDITIONAL = "cond-greedy"
METHOD_BASELINE = "shls-esr"


@dataclass
class ExperimentResult:
    """Aggregated metric rows plus the designs that produced them."""

    rows: list  # one dict per (budget, method), CSV_COLUMNS keys
    designs: dict  # (budget, method) -> (n, 3) direction array
    objective_histories: dict  # budget -> per-step greedy objective values
    elapsed_seconds: float
    config: dict


def _derived_rng(seed: int, *key) -> np.random.Generator:
    # stable, documented seed tree: string tags hash via crc32
    parts = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0xD35, *parts)))


def thread_count(requested: int | None = None) -> int:
    """Validated worker count: QSPACE_THREADS env overrides the requested value.

    Accepted for compatibility only: the pipeline runs on the calling thread
    whatever the count, and its outputs never depend on it.
    """
    env = os.environ.get("QSPACE_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"QSPACE_THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValidationError("QSPACE_THREADS must be >= 1")
        return value
    return max(1, int(requested or 1))


def build_prior_from_cohort(truths, dense_points, cfg: SimConfig, seed_tag: str) -> VoxelPrior:
    """Dense-observe each subject, fit all with GCV smoothing in one batch, take moments."""
    basis = ShBasis(cfg.degree)
    values = []
    for i, truth in enumerate(truths):
        rng = _derived_rng(cfg.seed, seed_tag, i)
        values.append(observe(truth, dense_points, cfg.noise_sigma, rng, basis, cfg.noise_kind))
    fits = gcv_select_batch(dense_points, values, basis, cfg.gcv_lambdas)
    rows = np.array([fit.coefficients for _, fit in fits])
    mean, cov = empirical_moments(rows)
    noise_var = cfg.noise_sigma**2 if cfg.noise_sigma > 0 else 1e-8
    return VoxelPrior.from_moments(mean, cov, noise_var, cfg.rank_rule)


def run_simulation(cfg: SimConfig) -> ExperimentResult:
    """Run the full comparison experiment described by `cfg`.

    Pipeline: generate a training cohort; fit each subject densely at an
    electrostatic-repulsion design with GCV-selected smoothing; summarize
    the fits into a Gaussian-process prior; then for every budget select a
    greedy design for the conditional estimator and an
    electrostatic-repulsion design for the penalized baseline, reconstruct
    an independent test cohort from noisy sparse samples, and score MISE,
    peak-count mismatch, and angular error against the ground truth.
    """
    start = time.time()
    basis = ShBasis(cfg.degree)
    thread_count(cfg.threads)  # validated; no effect on the run

    train = generate_cohort(basis, cfg.generative, cfg.train_subjects, np.random.SeedSequence((cfg.seed, 1)))
    test = generate_cohort(basis, cfg.generative, cfg.test_subjects, np.random.SeedSequence((cfg.seed, 2)))

    dense_points = esr_design(cfg.dense_design_size, seed=cfg.seed)
    prior = build_prior_from_cohort(train, dense_points, cfg, "train-noise")
    candidates = default_candidates(cfg.candidate_count)

    true_peaks = find_peaks_batch(
        [t.fodf for t in test], basis, cfg.peak_grid_size, cfg.peak_threshold
    )

    rows = []
    designs = {}
    histories = {}
    for b_idx, budget in enumerate(cfg.budgets):
        greedy = greedy_design(candidates, prior, basis, budget)
        histories[budget] = greedy.objective_history.tolist()
        method_points = {
            METHOD_CONDITIONAL: candidates.points[greedy.selected],
            METHOD_BASELINE: esr_design(budget, seed=cfg.seed + 1 + budget),
        }
        for m_idx, (method, points) in enumerate(method_points.items()):
            designs[(budget, method)] = points
            values = [
                observe(
                    truth,
                    points,
                    cfg.noise_sigma,
                    _derived_rng(cfg.seed, "test-noise", b_idx, m_idx, i),
                    basis,
                    cfg.noise_kind,
                )
                for i, truth in enumerate(test)
            ]
            if method == METHOD_CONDITIONAL:
                fits = [conditional_fit(points, v, prior, basis) for v in values]
            else:
                # every test subject shares this design: one GCV batch
                fits = [fit for _, fit in gcv_select_batch(points, values, basis, cfg.gcv_lambdas)]
            ises = [integrated_squared_error(f.coefficients, t.signal) for f, t in zip(fits, test)]
            est_peaks = find_peaks_batch(
                [funk_radon(f.coefficients, basis) for f in fits],
                basis,
                cfg.peak_grid_size,
                cfg.peak_threshold,
            )
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
    return ExperimentResult(
        rows=rows,
        designs=designs,
        objective_histories=histories,
        elapsed_seconds=time.time() - start,
        config=sim_config_to_dict(cfg),
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


def write_outputs(result: ExperimentResult, out_dir) -> Path:
    """Write metrics.csv, per-design gradient tables, and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics_csv_text(result.rows))
    design_dir = out / "designs"
    design_dir.mkdir(exist_ok=True)
    for (budget, method), points in sorted(result.designs.items()):
        (design_dir / f"{method}_{budget:03d}.txt").write_text(gradient_table(points))
    report = {
        "config": result.config,
        "elapsed_seconds": result.elapsed_seconds,
        "greedy_objective_histories": {
            str(k): v for k, v in sorted(result.objective_histories.items())
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out
