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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .config import SimConfig
from .design import default_candidates, esr_designs, gradient_table, greedy_design, region_bounds
from .estimator import DEFAULT_GCV_GRID, conditional_fit_batch, gcv_select_batch, host_class, one_blas_thread
from .metrics import angular_error, false_peak_fraction, find_peaks_batch, integrated_squared_error
from .prior import EigenStack, VoxelPrior, empirical_moments
from .sim import generate_cohort, observe_batch
from .sphere import ShBasis, funk_radon

CSV_COLUMNS = ("budget", "method", "mise", "pfp", "peak_match_rate", "ea", "n_test", "seed")

METHOD_CONDITIONAL = "cond-greedy"
METHOD_BASELINE = "shls-esr"


@dataclass
class ExperimentResult:
    """Aggregated metric rows, the designs that produced them, and the
    mapping `report.json` holds (its keys are set in `_run_experiment`)."""

    rows: list  # one dict per (budget, method), CSV_COLUMNS keys
    designs: dict  # (budget, method) -> (n, 3) direction array
    report: dict


class _LapClock:
    """Charges the CPU and wall seconds and the minor page faults since the
    previous lap to a named stage; the faults count 0 without `resource`."""

    def __init__(self):
        self.stage_seconds = {"cpu": {}, "wall": {}}
        self.stage_minor_faults = {}
        self._last = self._read()

    @staticmethod
    def _read() -> dict:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0
        return {"cpu": time.process_time(), "wall": time.perf_counter(), "faults": faults}

    def lap(self, stage: str) -> None:
        now = self._read()
        for kind, totals in (*self.stage_seconds.items(), ("faults", self.stage_minor_faults)):
            totals[stage] = totals.get(stage, 0) + now[kind] - self._last[kind]
        self._last = now


def _derived_rng(seed: int, *key) -> np.random.Generator:
    # stable, documented seed tree: string tags hash via crc32
    parts = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0xD35, *parts)))


def build_prior_from_cohort(truths, dense_points, cfg: SimConfig, seed_tag: str):
    """Dense-observe each subject, fit all with GCV smoothing in one batch,
    take moments: the `VoxelPrior` and the GCV lambda (N,) of each subject."""
    basis = ShBasis(cfg.degree)
    rngs = [_derived_rng(cfg.seed, seed_tag, i) for i in range(len(truths))]
    values = observe_batch(truths, dense_points, cfg.noise_sigma, rngs, basis, cfg.noise_kind)
    lambdas, coeffs = gcv_select_batch(dense_points, values, basis)
    mean, cov = empirical_moments(coeffs)
    noise_var = cfg.noise_sigma**2 if cfg.noise_sigma > 0 else 1e-8
    return VoxelPrior.from_moments(mean, cov, noise_var, cfg.rank_rule), lambdas


def _gcv_fit(label: dict, lambdas) -> dict:
    """One GCV fit's entry of `report.json`'s `gcv`: its `label`, how many
    rows chose each `DEFAULT_GCV_GRID` value (`counts`, in grid order) and
    how many chose either end of the grid (`edge_hits`)."""
    counts = np.bincount(np.searchsorted(DEFAULT_GCV_GRID, lambdas), minlength=len(DEFAULT_GCV_GRID))
    return {**label, "counts": counts.tolist(), "edge_hits": int(counts[0] + counts[-1])}


def run_simulation(cfg: SimConfig) -> ExperimentResult:
    """Run the full comparison experiment described by `cfg`.

    Pipeline: generate a training cohort; fit each subject densely at an
    electrostatic-repulsion design with GCV-selected smoothing; summarize
    the fits into a Gaussian-process prior; run the greedy design once, at
    the largest budget, and certify each budget's prefix (`greedy_bound`, by
    one `region_bounds` call);
    then for every budget take that design's first picks
    for the conditional estimator and an electrostatic-repulsion design for
    the penalized baseline, reconstruct an independent test cohort from
    noisy sparse samples, and score MISE, peak-count mismatch, and angular
    error against the ground truth. The dense design and every budget's
    electrostatic-repulsion design come from one `esr_designs` call up
    front, one lockstep descent for all of them.

    `stage_seconds` charges each CPU and wall second of the run to one stage:
    cohort, esr, prior_fit, greedy, observe, fit and peaks (detection and
    scoring). Every (budget, method) is fitted first; then one
    `find_peaks_batch` call finds the peaks of the test truths and of every
    estimate. The run holds numpy's OpenBLAS to one
    thread (`one_blas_thread`), so its bits do not depend on the thread
    count the process started with; `blas_threads` records the count.
    """
    with one_blas_thread() as blas_threads:
        return _run_experiment(cfg, blas_threads)


def _run_experiment(cfg: SimConfig, blas_threads) -> ExperimentResult:
    """The body of `run_simulation`, at the BLAS thread count it pinned."""
    clock = _LapClock()
    basis = ShBasis(cfg.degree)

    train = generate_cohort(basis, cfg.generative, cfg.train_subjects, np.random.SeedSequence((cfg.seed, 1)))
    test = generate_cohort(basis, cfg.generative, cfg.test_subjects, np.random.SeedSequence((cfg.seed, 2)))
    clock.lap("cohort")
    requests = [(cfg.dense_design_size, cfg.seed), *((budget, cfg.seed + 1 + budget) for budget in cfg.budgets)]
    dense, *baselines = esr_designs(requests)
    clock.lap("esr")
    prior, lambdas = build_prior_from_cohort(train, dense.points, cfg, "train-noise")
    gcv_fits = [_gcv_fit({"fit": "prior"}, lambdas)]
    clock.lap("prior_fit")

    # greedy prefixes are stable: every budget is a prefix of the largest
    candidates = default_candidates(cfg.candidate_count)
    greedy = greedy_design(candidates, prior, basis, cfg.budgets[-1])
    pairs = [(budget, budget) for budget in cfg.budgets]
    bounds = [asdict(bound) for bound in region_bounds(EigenStack.of(prior), candidates, basis, pairs)]
    clock.lap("greedy")
    fits = []  # (budget, method, coefficients of every test subject)
    designs = {}
    for b_idx, (budget, baseline) in enumerate(zip(cfg.budgets, baselines)):
        method_points = {
            METHOD_CONDITIONAL: candidates.points[greedy.selected[:budget]],
            METHOD_BASELINE: baseline.points,
        }
        for m_idx, (method, points) in enumerate(method_points.items()):
            designs[(budget, method)] = points
            rngs = [_derived_rng(cfg.seed, "test-noise", b_idx, m_idx, i) for i in range(len(test))]
            values = observe_batch(test, points, cfg.noise_sigma, rngs, basis, cfg.noise_kind)
            clock.lap("observe")
            if method == METHOD_CONDITIONAL:
                coeffs = conditional_fit_batch(points, values, prior, basis)
            else:
                # every test subject shares this design: one GCV batch
                lambdas, coeffs = gcv_select_batch(points, values, basis)
                gcv_fits.append(_gcv_fit({"fit": method, "budget": budget}, lambdas))
            clock.lap("fit")
            fits.append((budget, method, coeffs))
    # the peaks of the test truths and of every estimate, in one batch
    fodfs = [t.fodf for t in test] + [funk_radon(c, basis) for _, _, coeffs in fits for c in coeffs]
    peaks, n = find_peaks_batch(fodfs, basis, cfg.peak_grid_size), len(test)
    true_peaks = peaks[:n]
    rows = []
    for f, (budget, method, coeffs) in enumerate(fits, 1):
        est_peaks = peaks[f * n : (f + 1) * n]
        ises = [integrated_squared_error(c, t.signal) for c, t in zip(coeffs, test)]
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
    report = {
        "blas_threads": blas_threads,  # numpy's OpenBLAS threads during the run; None where it cannot be pinned
        "bound_certificates": bounds,  # each budget's greedy_bound(prior, candidates, basis, budget, budget)
        "config": asdict(cfg),
        "elapsed_seconds": sum(clock.stage_seconds["wall"].values()),  # wall seconds: the sum of the wall laps
        "esr_designs": [  # one per ESR design (dense first, then each budget's): count, seed, descent telemetry
            {key: getattr(esr, key) for key in ("count", "seed", "steps", "accepted", "stop", "energy")}
            for esr in (dense, *baselines)
        ],
        # the GCV grid, and how many subjects chose each grid value in each GCV fit (see _gcv_fit)
        "gcv": {"grid": DEFAULT_GCV_GRID.tolist(), "fits": gcv_fits},
        # greedy objective after each pick, largest budget; a budget's is its prefix
        "greedy_objective_history": greedy.objective_history.tolist(),
        "host": host_class(),  # the SIMD extensions, OpenBLAS core and Cholesky path the bits were made on
        # the process's peak RSS so far, in MB (Linux counts ru_maxrss in kB)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if resource else None,
        "prior_rank": prior.rank,  # eigenpairs the prior kept
        # their share of the prior covariance's spectrum total
        "prior_explained_variance": float(np.sum(prior.eigenvalues) / prior.spectrum_total),
        "stage_minor_faults": clock.stage_minor_faults if resource else None,  # stage name -> minor page faults
        "stage_seconds": clock.stage_seconds,  # "cpu" and "wall" -> stage name -> seconds, in run order
    }
    return ExperimentResult(rows, designs, report)


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
    (out / "report.json").write_text(json.dumps(result.report, indent=2, sort_keys=True) + "\n")
    return out
