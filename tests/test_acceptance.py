"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Criteria 1, 2 and 9 run the full comparison experiment at the
protocol scale (200 training / 100 test subjects, 90 dense directions,
noise sigma 0.01); expect a few minutes total.
"""

import contextlib
import dataclasses
import io
import itertools

import numpy as np
import pytest
import yaml

from qsdesign.cli import main
from qsdesign.config import SimConfig
from qsdesign.design import (
    CandidateSet,
    default_candidates,
    design_objective,
    esr_design,
    greedy_bound,
    greedy_design,
    greedy_design_region,
    hemisphere_spiral,
)
from qsdesign.estimator import conditional_fit, conditional_fit_batch, conditional_scores, gcv_select_batch, shls_fit
from qsdesign.metrics import integrated_squared_error
from qsdesign.prior import (
    PriorField,
    RankRule,
    VoxelPrior,
    corner_weights,
    interpolate_prior,
    load_eigen_stack,
    load_prior_field,
)
from qsdesign.runner import metrics_csv_text, run_simulation
from qsdesign.sim import GenerativeConfig, generate_cohort, observe_batch
from qsdesign.sphere import ShBasis, funk_radon, inverse_funk_radon, make_grid

from conftest import basis_index, random_prior, random_unit_vectors
from test_prior import make_field, random_spd, toy_prior
from test_sphere import legendre_value

SEEDS = (101, 102, 103)
BUDGETS = (5, 10, 15, 20, 45)
SPARSE_BUDGETS = (5, 10, 15, 20)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _table(result):
    return {(r["budget"], r["method"]): r for r in result.rows}


@pytest.fixture(scope="module")
def protocol_runs():
    runs = {}
    for seed in SEEDS:
        cfg = SimConfig(seed=seed, budgets=BUDGETS)
        runs[seed] = run_simulation(cfg)
    return runs


@pytest.fixture(scope="module")
def chi_noise_run():
    cfg = SimConfig(seed=SEEDS[0], budgets=SPARSE_BUDGETS, noise_kind="chi")
    return run_simulation(cfg)


def test_criterion_1_mise_ordering(protocol_runs):
    result = protocol_runs[SEEDS[0]]
    rows = _table(result)
    ordering = all(
        rows[(b, "cond-greedy")]["mise"] < rows[(b, "shls-esr")]["mise"]
        for b in SPARSE_BUDGETS
    )
    adv = lambda b: rows[(b, "shls-esr")]["mise"] - rows[(b, "cond-greedy")]["mise"]
    sparse_gain = adv(5) > adv(45)
    runtime_ok = result.report["elapsed_seconds"] < 600
    detail = (
        f"mise(cond) < mise(shls) at {SPARSE_BUDGETS}: {ordering}; "
        f"advantage 5 vs 45: {adv(5):.5f} > {adv(45):.5f}: {sparse_gain}; "
        f"runtime {result.report['elapsed_seconds']:.0f}s"
    )
    _report("criterion-1 sparse-budget MISE ordering", ordering and sparse_gain and runtime_ok, detail)


def test_criterion_2_angular_metric_ordering(protocol_runs):
    checks = []
    for budget in (5, 10, 15):
        for metric in ("pfp", "ea"):
            cond = np.mean(
                [_table(protocol_runs[s])[(budget, "cond-greedy")][metric] for s in SEEDS]
            )
            shls = np.mean(
                [_table(protocol_runs[s])[(budget, "shls-esr")][metric] for s in SEEDS]
            )
            checks.append(cond <= shls)
    _report(
        "criterion-2 angular metrics ordering",
        all(checks),
        f"PFP and EA (cond <= shls) over {len(SEEDS)} seeds at budgets (5, 10, 15)",
    )


def test_criterion_3_rank_one_update_oracle():
    # the greedy's objective after each rank-one downdate against the
    # trace objective of that prefix solved afresh
    basis = ShBasis(4)
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 11))
        m = int(rng.integers(2, 61))
        prior = random_prior(basis, rng, rank=k, noise_variance=float(rng.uniform(0.01, 1.0)))
        pool = CandidateSet(hemisphere_spiral(m))
        design = greedy_design(pool, prior, basis, m)
        for step in range(m):
            direct = design_objective(pool.points[design.selected[: step + 1]], prior, basis)
            worst = max(worst, abs(design.objective_history[step] - direct) / direct)
    _report(
        "criterion-3 rank-one downdate oracle",
        worst < 1e-8,
        f"max relative objective error {worst:.2e} over 100 trials (K<=10, M<=60)",
    )


def test_criterion_4_bound_certificate():
    basis = ShBasis(4)
    bound_holds = 0
    near_optimal = 0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n_cand = int(rng.integers(8, 21))
        budget = int(rng.integers(1, 4))
        pool = CandidateSet(hemisphere_spiral(n_cand))
        prior = random_prior(basis, rng, rank=int(rng.integers(1, 4)), noise_variance=0.05)
        optimum = max(
            design_objective(pool.points[list(combo)], prior, basis)
            for combo in itertools.combinations(range(n_cand), budget)
        )
        greedy = greedy_design(pool, prior, basis, budget)
        cert = greedy_bound(prior, pool, basis, budget, budget)
        if greedy.objective >= cert.factor * optimum - 1e-12:
            bound_holds += 1
        if greedy.objective >= 0.9 * optimum:
            near_optimal += 1
    # the 0.9x share is recorded, not gated
    _report(
        "criterion-4 greedy suboptimality bound",
        bound_holds == 50,
        f"bound held {bound_holds}/50; greedy >= 0.9x optimum in {near_optimal}/50 (recorded)",
    )


def test_criterion_5_funk_radon_analytics(rng):
    basis = ShBasis(8)
    mult_ok = True
    for j in range(basis.dimension):
        e = np.zeros(basis.dimension)
        e[j] = 1.0
        out = funk_radon(e, basis)
        expected = 2 * np.pi * legendre_value(int(basis.degrees[j]), 0.0)
        mult_ok &= abs(out[j] - expected) < 1e-12 * max(1, abs(expected))
        out[j] = 0.0
        mult_ok &= bool(np.all(out == 0.0))
    expected_by_degree = {0: 2 * np.pi, 2: -np.pi, 4: 0.75 * np.pi}
    for degree, value in expected_by_degree.items():
        j = basis_index(basis, degree, 0)
        e = np.zeros(basis.dimension)
        e[j] = 1.0
        mult_ok &= abs(funk_radon(e, basis)[j] - value) < 1e-12

    c = np.random.default_rng(0).standard_normal(basis.dimension)
    round_trip = float(np.abs(inverse_funk_radon(funk_radon(c, basis), basis) - c).max())

    grid = make_grid("equiangular", 64)
    phi = basis.evaluate(grid.directions)
    gram_err = float(np.abs(phi.T @ (grid.weights[:, None] * phi) - np.eye(basis.dimension)).max())

    ok = mult_ok and round_trip < 1e-12 and gram_err < 1e-6
    _report(
        "criterion-5 transform analytics",
        ok,
        f"per-degree multipliers exact; round trip {round_trip:.1e}; Gram {gram_err:.1e}",
    )


def test_criterion_6_estimator_boundaries(rng):
    basis = ShBasis(4)
    prior = random_prior(basis, rng, rank=4)
    fit = conditional_fit(np.zeros((0, 3)), np.zeros(0), prior, basis)
    mean_exact = bool(np.array_equal(fit, prior.mean))

    monotone = True
    for trial in range(20):
        t_rng = np.random.default_rng(trial)
        base = random_prior(basis, t_rng, rank=4, noise_variance=1.0)
        points = random_unit_vectors(t_rng, 8)
        values = t_rng.standard_normal(8)
        norms = []
        for s2 in (1e-4, 1e-2, 1e0, 1e2):
            p = VoxelPrior(base.mean, base.covariance, base.eigenvalues, base.eigenvectors, s2)
            norms.append(np.linalg.norm(conditional_scores(points, values, p, basis)))
        monotone &= bool(np.all(np.diff(norms) <= 1e-12))

    points = hemisphere_spiral(basis.dimension)
    c0 = np.random.default_rng(5).standard_normal(basis.dimension)
    values = basis.evaluate(points) @ c0
    interp = shls_fit(points, values, basis, smoothing=0.0)
    interp_err = float(np.abs(interp - c0).max())

    ok = mean_exact and monotone and interp_err < 1e-8
    _report(
        "criterion-6 estimator boundaries",
        ok,
        f"M=0 returns prior mean exactly; shrinkage monotone; interpolation error {interp_err:.1e}",
    )


def test_criterion_7_log_euclidean_non_swelling(rng):
    # log det of the interpolated covariance against the weighted log dets of
    # the corners it blends
    worst = 0.0
    rule = RankRule("fraction", 0.9)
    for trial in range(100):
        t_rng = np.random.default_rng(trial)
        degree, j = ((2, 6), (4, 15))[trial % 2]
        pair = PriorField((2, 1, 1), {}, degree, rule)
        for index in ((0, 0, 0), (1, 0, 0)):
            pair.add(index, VoxelPrior.from_moments(t_rng.standard_normal(j), random_spd(t_rng, j), 0.01, rule))
        query = (float(t_rng.uniform(0.1, 0.9)), 0.0, 0.0)
        logdet = np.linalg.slogdet(interpolate_prior(pair, query).covariance)[1]
        target = sum(w * np.linalg.slogdet(pair.priors[idx].covariance)[1] for idx, w in corner_weights(pair, query))
        worst = max(worst, abs(logdet - target) / max(1.0, abs(target)))

    field = make_field({tuple(i): toy_prior(np.random.default_rng(7)) for i in np.ndindex(2, 2, 2)})
    grid_exact = all(
        interpolate_prior(field, np.array(idx, dtype=float)) is field.priors[idx]
        for idx in field.priors
    )
    ok = worst < 1e-8 and grid_exact
    _report(
        "criterion-7 log-Euclidean determinant identity",
        ok,
        f"worst relative log-det error {worst:.2e} over 100 pairs; grid points exact: {grid_exact}",
    )


def test_criterion_8_prefix_stability_and_determinism():
    basis = ShBasis(4)
    prior = random_prior(basis, np.random.default_rng(3), rank=5)
    pool = default_candidates(80)
    designs = {b: greedy_design(pool, prior, basis, b) for b in (5, 12, 30)}
    prefix_ok = (
        designs[5].selected == designs[30].selected[:5]
        and designs[12].selected == designs[30].selected[:12]
    )

    cfg = SimConfig(
        seed=99,
        degree=4,
        train_subjects=20,
        test_subjects=6,
        dense_design_size=30,
        budgets=(3, 6),
        candidate_count=60,
        peak_grid_size=512,
    )
    first = metrics_csv_text(run_simulation(cfg).rows)
    second = metrics_csv_text(run_simulation(cfg).rows)
    _report(
        "criterion-8 prefix stability and determinism",
        prefix_ok and first == second,
        f"greedy prefixes stable: {prefix_ok}; repeated pipeline byte-identical: {first == second}",
    )


def test_criterion_9_non_gaussian_robustness(chi_noise_run):
    rows = _table(chi_noise_run)
    ordering = all(
        rows[(b, "cond-greedy")]["mise"] < rows[(b, "shls-esr")]["mise"]
        for b in SPARSE_BUDGETS
    )
    _report(
        "criterion-9 non-Gaussian noise robustness",
        ordering,
        f"MISE ordering persists under centered chi noise at budgets {SPARSE_BUDGETS}",
    )


def test_criterion_10_region_design_reconstructs_every_voxel(tmp_path):
    # a 3x3x1 field from prior-build (10 degrees of rotation per index
    # step), a test cohort per voxel drawn from that voxel's generative
    # model, and the mean MISE over the voxels of one shared region design,
    # of each voxel's own greedy design (both fitted with the voxel's prior)
    # and of shls-esr
    config = {"seed": 11, "degree": 8, "train_subjects": 60, "dense_design_size": 90, "noise_sigma": 0.01,
              "rank_rule": {"kind": "fraction", "value": 0.9}, "grid_shape": [3, 3, 1],
              "rotation_per_voxel_degrees": 10.0}
    (tmp_path / "field.yaml").write_text(yaml.safe_dump(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["prior-build", "--config", str(tmp_path / "field.yaml"), "--out", str(tmp_path)]) == 0
    basis, pool, budgets = ShBasis(config["degree"]), default_candidates(), (10, 20)
    priors = load_prior_field(tmp_path / "prior_field.qpf").priors
    _, indices, stack = load_eigen_stack(tmp_path / "prior_field.qpf")
    region = pool.points[greedy_design_region(pool, stack, basis, budgets[-1]).selected]
    esr = {budget: esr_design(budget, budget) for budget in budgets}
    mise = {method: {b: [] for b in budgets} for method in ("region", "voxel", "shls-esr")}
    for index in map(tuple, indices.tolist()):
        prior, angle = priors[index], np.radians(config["rotation_per_voxel_degrees"]) * sum(index)
        rot = np.array([[np.cos(angle), -np.sin(angle), 0.0], [np.sin(angle), np.cos(angle), 0.0], [0.0, 0.0, 1.0]])
        means = tuple(tuple(rot @ np.asarray(m)) for m in GenerativeConfig().mean_directions)
        generative = dataclasses.replace(GenerativeConfig(), mean_directions=means)
        test = generate_cohort(basis, generative, 30, np.random.SeedSequence((config["seed"], 4, *index)))
        voxel = pool.points[greedy_design(pool, prior, basis, budgets[-1]).selected]
        for budget in budgets:
            designs = {"region": region[:budget], "voxel": voxel[:budget], "shls-esr": esr[budget]}
            for method, points in designs.items():
                rngs = [np.random.default_rng((config["seed"], 5, *index, budget, i)) for i in range(len(test))]
                values = observe_batch(test, points, config["noise_sigma"], rngs, basis)
                if method == "shls-esr":
                    coeffs = gcv_select_batch(points, values, basis)[1]
                else:
                    coeffs = conditional_fit_batch(points, values, prior, basis)
                mise[method][budget].extend(integrated_squared_error(c, t.signal) for c, t in zip(coeffs, test))
    mean = {method: {b: float(np.mean(v)) for b, v in by_budget.items()} for method, by_budget in mise.items()}
    ratios = {b: mean["region"][b] / mean["voxel"][b] for b in budgets}
    ok = all(ratios[b] <= 1.1 and mean["region"][b] < mean["shls-esr"][b] for b in budgets)
    _report(
        "criterion-10 one region design reconstructs every voxel",
        ok,
        "; ".join(f"budget {b}: MISE region {mean['region'][b]:.5f}, per-voxel {mean['voxel'][b]:.5f} "
                  f"(ratio {ratios[b]:.3f}), shls-esr {mean['shls-esr'][b]:.5f}" for b in budgets),
    )
