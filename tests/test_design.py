import itertools

import numpy as np
import pytest

from qsdesign import _kernels, design
from qsdesign.design import (
    DUPLICATE_ANGLE_TOL,
    CandidateSet,
    block_inverse_update,
    coulomb_energy,
    default_candidates,
    design_objective,
    esr_design,
    gradient_table,
    greedy_bound,
    greedy_design,
    greedy_design_region,
    hemisphere_spiral,
    region_bound,
)
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.sphere import make_grid, normalized

from conftest import random_prior, random_unit_vectors
from test_estimator import prior_with_eigenfunction_value
from test_kernels import reference_coulomb_energy_grad


def exhaustive_optimum(candidates, prior, basis, budget):
    """Brute-force subset enumeration; the objective is order-invariant."""
    best = -np.inf
    for combo in itertools.combinations(range(len(candidates)), budget):
        val = design_objective(candidates.points[list(combo)], prior, basis)
        best = max(best, val)
    return best


class TestCandidateSet:
    def test_default_pool(self):
        pool = default_candidates()
        assert len(pool) == 321
        assert np.all(pool.points[:, 2] > 0)

    def test_duplicate_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError):
            CandidateSet(pts)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            CandidateSet(np.array([[0.0, 0.0, 2.0]]))

    def test_default_pool_is_one_block(self):
        assert _kernels._BLOCK_ENTRIES >= 321

    # with 3 rows per block the 11 points, sorted by z, make blocks 0-2, 3-5, 6-8, 9-10
    @pytest.mark.parametrize("pair", [None, (0, 1), (4, 5), (2, 3), (1, 7), (10, 0)])
    def test_blockwise_check_matches_brute_force(self, monkeypatch, pair):
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3)
        pts = hemisphere_spiral(11)
        pts[6] = -pts[8]  # antipodal: not a duplicate
        pts[9] = normalized(pts[8] + [1e-5, 0.0, 0.0])  # 1e-5 rad apart: not a duplicate either
        if pair is not None:
            i, j = pair
            pts[j] = normalized(pts[i] + [1e-8, 0.0, 0.0])
        near = any(
            i != j and np.arccos(np.clip(pts[i] @ pts[j], -1.0, 1.0)) < DUPLICATE_ANGLE_TOL
            for i in range(11)
            for j in range(11)
        )
        assert near == (pair is not None)
        if near:
            with pytest.raises(ValidationError, match="near-duplicate"):
                CandidateSet(pts)
        else:
            assert np.array_equal(CandidateSet(pts).points, pts)


class TestDesignObjective:
    def test_empty_design_is_zero(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        assert design_objective(np.zeros((0, 3)), prior, basis4) == 0.0

    def test_single_point_scalar_formula(self, basis4):
        # rho=1, eigenfunction value 1 at the point, noise 0.01 => 1/1.01
        point = np.array([0.0, 0.0, 1.0])
        prior = prior_with_eigenfunction_value(basis4, point, 1.0, rho=1.0, noise_variance=0.01)
        val = design_objective(point[None, :], prior, basis4)
        assert val == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_huge_noise_kills_objective(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4, noise_variance=1e12)
        pts = random_unit_vectors(rng, 6)
        assert design_objective(pts, prior, basis4) < 1e-9

    def test_upper_bound_total_variance(self, basis4, rng):
        for trial in range(5):
            trial_rng = np.random.default_rng(trial)
            prior = random_prior(basis4, trial_rng, rank=5)
            pts = random_unit_vectors(trial_rng, 30)
            assert design_objective(pts, prior, basis4) < prior.eigenvalues.sum()

    def test_matches_quadrature_integral_form(self, basis4, rng):
        # oracle: integrate c(p)' Gram^-1 c(p) over the sphere by quadrature,
        # with c(p) the covariance between observations and the value at p
        prior = random_prior(basis4, rng, rank=4)
        pts = random_unit_vectors(rng, 7)
        psi = basis4.evaluate(pts) @ prior.eigenvectors
        lam = prior.eigenvalues
        gram = (psi * lam) @ psi.T + prior.noise_variance * np.eye(7)
        grid = make_grid("equiangular", 32)
        psi_grid = basis4.evaluate(grid.directions) @ prior.eigenvectors
        cvec = (psi * lam) @ psi_grid.T  # (7, n_grid)
        integrand = np.einsum("ij,ij->j", cvec, np.linalg.solve(gram, cvec))
        oracle = grid.integrate(integrand)
        assert design_objective(pts, prior, basis4) == pytest.approx(oracle, abs=1e-6)

    def test_order_invariance(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4)
        pts = random_unit_vectors(rng, 6)
        base = design_objective(pts, prior, basis4)
        for _ in range(4):
            perm = rng.permutation(6)
            assert design_objective(pts[perm], prior, basis4) == pytest.approx(base, abs=1e-10)


class TestBlockInverseUpdate:
    def test_scalar_boundary(self):
        out = block_inverse_update(np.zeros((0, 0)), np.zeros(0), 4.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.25)

    def test_zero_coupling_is_block_diagonal(self, rng):
        a = random_unit_vectors(rng, 1)  # unused direction, just rng noise
        inv_prev = np.linalg.inv(np.array([[2.0, 0.3], [0.3, 1.5]]))
        out = block_inverse_update(inv_prev, np.zeros(2), 5.0)
        assert np.abs(out[:2, :2] - inv_prev).max() < 1e-14
        assert out[2, 2] == pytest.approx(0.2)
        assert np.abs(out[:2, 2]).max() == 0.0

    def test_chain_matches_direct_inverse(self, rng):
        n = 40
        vecs = rng.standard_normal((n, 6))
        gram = vecs @ vecs.T + 0.5 * np.eye(n)
        inv = np.zeros((0, 0))
        for m in range(1, n + 1):
            inv = block_inverse_update(inv, gram[: m - 1, m - 1], gram[m - 1, m - 1])
        direct = np.linalg.inv(gram)
        assert np.abs(inv - direct).max() < 1e-9

    def test_non_positive_schur_rejected(self):
        inv_prev = np.array([[1.0]])
        with pytest.raises(DegeneracyError):
            block_inverse_update(inv_prev, np.array([2.0]), 1.0)


class TestGreedyDesign:
    def test_single_pick_maximizes_eigenfunction(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=1)
        pool = default_candidates(80)
        result = greedy_design(pool, prior, basis4, 1)
        psi = basis4.evaluate(pool.points) @ prior.eigenvectors
        assert result.selected[0] == int(np.argmax(psi[:, 0] ** 2))

    def test_incremental_matches_from_scratch(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=5)
        pool = default_candidates(80)
        result = greedy_design(pool, prior, basis4, 30)
        for m in (1, 2, 5, 12, 24, 25, 26, 30):
            pts = pool.points[result.selected[:m]]
            assert result.objective_history[m - 1] == pytest.approx(
                design_objective(pts, prior, basis4), abs=1e-8
            )

    def test_monotone_and_no_repeats(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4)
        pool = default_candidates(60)
        result = greedy_design(pool, prior, basis4, 25)
        assert len(set(result.selected)) == 25
        diffs = np.diff(np.concatenate([[0.0], result.objective_history]))
        assert np.all(diffs >= -1e-12)

    def test_prefix_stability(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4)
        pool = default_candidates(70)
        small = greedy_design(pool, prior, basis4, 10)
        large = greedy_design(pool, prior, basis4, 40)
        assert small.selected == large.selected[:10]

    def test_beats_bound_vs_exhaustive(self, basis4, rng):
        pool = CandidateSet(hemisphere_spiral(15))
        prior = random_prior(basis4, rng, rank=2)
        greedy = greedy_design(pool, prior, basis4, 3)
        optimum = exhaustive_optimum(pool, prior, basis4, 3)
        cert = greedy_bound(prior, pool, basis4, 3, 3)
        assert greedy.objective >= cert.factor * optimum - 1e-12

    def test_budget_exceeds_candidates(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=2)
        pool = CandidateSet(hemisphere_spiral(5))
        with pytest.raises(ValidationError):
            greedy_design(pool, prior, basis4, 6)

    def test_overflowing_prior_is_degenerate(self, basis4, rng):
        # a prior that loads cleanly but whose gains overflow float64 must not
        # yield an inf/NaN objective history
        prior = random_prior(basis4, rng, rank=3, scale=1e80)  # eigenvalues near 1e160
        with pytest.raises(DegeneracyError):
            greedy_design(default_candidates(30), prior, basis4, 4)

    def test_zero_budget_design(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=2)
        pool = default_candidates(30)
        result = greedy_design(pool, prior, basis4, 0)
        assert result.selected == []
        assert result.objective == 0.0
        assert result.objective_history.size == 0

    def test_full_pool_budget(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        pool = default_candidates(12)
        result = greedy_design(pool, prior, basis4, 12)
        assert sorted(result.selected) == list(range(12))


class ReferenceVoxelState:
    """Per-voxel greedy bookkeeping by a growing observation-Gram inverse.

    The inverse grows by `block_inverse_update` at each pick and is rebuilt
    from scratch every 25 picks to cap drift; D = diag(Lam) - W' G^-1 W is
    formed anew for every scan.
    """

    REFRESH_EVERY = 25

    def __init__(self, candidates, prior, basis):
        self.psi_all = basis.evaluate(candidates.points) @ prior.eigenvectors
        self.lam = prior.eigenvalues
        self.noise_variance = prior.noise_variance
        self.inv_gram = np.zeros((0, 0))
        self.psi_rows = np.zeros((0, prior.rank))

    def gains(self):
        w = self.psi_rows * self.lam
        dmat = np.diag(self.lam)
        if self.psi_rows.shape[0]:
            dmat = dmat - w.T @ self.inv_gram @ w
        v = self.psi_all @ dmat
        return np.einsum("ij,ij->i", v, v) / (self.noise_variance + np.einsum("ij,ij->i", self.psi_all, v))

    def append(self, index):
        psi_new = self.psi_all[index]
        h = (self.psi_rows * self.lam) @ psi_new
        q = float(psi_new @ (self.lam * psi_new) + self.noise_variance)
        self.inv_gram = block_inverse_update(self.inv_gram, h, q)
        self.psi_rows = np.vstack([self.psi_rows, psi_new])
        m = self.psi_rows.shape[0]
        if m % self.REFRESH_EVERY == 0:
            gram = (self.psi_rows * self.lam) @ self.psi_rows.T + self.noise_variance * np.eye(m)
            self.inv_gram = np.linalg.inv(gram)


def reference_greedy(candidates, priors, basis, budget):
    """Greedy picks voxel by voxel on Gram-inverse states, for the mean of
    the voxels' objectives: (selected, history)."""
    states = [ReferenceVoxelState(candidates, p, basis) for p in priors]
    active = np.ones(len(candidates), dtype=bool)
    selected, history, objective = [], [], 0.0
    for _ in range(budget):
        gains = np.zeros(len(candidates))
        for state in states:
            gains += (1.0 / len(states)) * state.gains()
        gains[~active] = -np.inf
        index = int(np.argmax(gains))
        for state in states:
            state.append(index)
        active[index] = False
        selected.append(index)
        objective += float(gains[index])
        history.append(objective)
    return selected, np.array(history)


class TestGreedyMatchesGramInverseReference:
    # 40 picks from 80 candidates cross the reference's refresh at pick 25
    # and run past every rank, so late gains are tiny and close together.
    @pytest.mark.parametrize("rank", range(1, 9))
    def test_single_voxel(self, basis4, rng, rank):
        prior = random_prior(basis4, rng, rank=rank)
        pool = default_candidates(80)
        selected, history = reference_greedy(pool, [prior], basis4, 40)
        for result in (
            greedy_design(pool, prior, basis4, 40),
            greedy_design_region(pool, [prior], basis4, 40),
        ):
            assert result.selected == selected
            np.testing.assert_allclose(result.objective_history, history, rtol=1e-10, atol=0)

    def test_mixed_rank_region(self, basis4):
        # ranks 3, 5 and 8 pad to K_max = 8; two noise levels
        priors = [
            random_prior(basis4, np.random.default_rng(seed), rank=rank, noise_variance=noise)
            for seed, rank, noise in ((0, 3, 0.005), (1, 5, 0.2), (2, 8, 0.005))
        ]
        pool = default_candidates(80)
        selected, history = reference_greedy(pool, priors, basis4, 40)
        region = greedy_design_region(pool, priors, basis4, 40)
        assert region.selected == selected
        np.testing.assert_allclose(region.objective_history, history, rtol=1e-10, atol=0)


class TestGreedyRegion:
    def test_single_voxel_equals_single_design(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        pool = default_candidates(50)
        single = greedy_design(pool, prior, basis4, 8)
        region = greedy_design_region(pool, [prior], basis4, 8)
        assert single.selected == region.selected
        assert region.objective == pytest.approx(single.objective, rel=1e-12)

    def test_identical_priors_match_single(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        pool = default_candidates(50)
        single = greedy_design(pool, prior, basis4, 6)
        region = greedy_design_region(pool, [prior, prior], basis4, 6)
        assert single.selected == region.selected

    def test_two_orthogonal_modes_both_served(self, basis4):
        # one prior concentrated at the pole, one at the equator: the
        # two-step design covers both modes before duplicating either, and
        # stays close to the exhaustive two-point optimum
        pole = np.array([0.0, 0.0, 1.0])
        equator = np.array([1.0, 0.0, 0.0])
        p_pole = prior_with_eigenfunction_value(basis4, pole, 0.9, rho=1.0, noise_variance=0.01)
        p_eq = prior_with_eigenfunction_value(basis4, equator, 0.9, rho=1.0, noise_variance=0.01)
        pool = CandidateSet(hemisphere_spiral(20))
        region = greedy_design_region(pool, [p_pole, p_eq], basis4, 2)

        psi_pole = (basis4.evaluate(pool.points) @ p_pole.eigenvectors)[:, 0]
        psi_eq = (basis4.evaluate(pool.points) @ p_eq.eigenvectors)[:, 0]
        serves_pole = [psi_pole[i] ** 2 > psi_eq[i] ** 2 for i in region.selected]
        assert sorted(serves_pole) == [False, True]  # one point per mode

        best_val = -np.inf
        for combo in itertools.combinations(range(20), 2):
            pts = pool.points[list(combo)]
            val = 0.5 * design_objective(pts, p_pole, basis4) + 0.5 * design_objective(
                pts, p_eq, basis4
            )
            best_val = max(best_val, val)
        assert region.objective >= 0.95 * best_val

    def test_per_voxel_noise_levels_respected(self, basis4, rng):
        # the mean objective matches the from-scratch mean even when the
        # voxels carry different noise variances
        a = random_prior(basis4, np.random.default_rng(0), rank=3, noise_variance=0.005)
        b = random_prior(basis4, np.random.default_rng(1), rank=4, noise_variance=0.2)
        pool = default_candidates(40)
        region = greedy_design_region(pool, [a, b], basis4, 7)
        pts = pool.points[region.selected]
        recomputed = 0.5 * design_objective(pts, a, basis4) + 0.5 * design_objective(
            pts, b, basis4
        )
        assert region.objective == pytest.approx(recomputed, abs=1e-8)


class TestGreedyBound:
    def test_direct_substitution(self, basis4):
        point = np.array([0.0, 0.0, 1.0])
        prior = prior_with_eigenfunction_value(basis4, point, 0.9, rho=1.0, noise_variance=1.0)
        pool = CandidateSet(point[None, :])
        lam_star = float(
            ((basis4.evaluate(point) @ prior.eigenvectors) ** 2).sum()
        )
        budget = 4
        cert = greedy_bound(prior, pool, basis4, budget, budget)
        expected = 1.0 - np.exp(-1.0 / (1.0 + budget * lam_star))
        assert cert.factor == pytest.approx(expected, rel=1e-12)
        assert cert.lambda_psi_star == pytest.approx(lam_star, rel=1e-12)

    def test_factor_monotone_in_steps(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        pool = default_candidates(40)
        factors = [greedy_bound(prior, pool, basis4, m, 12).factor for m in range(1, 13)]
        assert np.all(np.diff(factors) > 0)
        assert 0 < factors[0] and factors[-1] < 1

    def test_reproducible_from_fields(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4)
        pool = default_candidates(40)
        cert = greedy_bound(prior, pool, basis4, 3, 9)
        recomputed = 1.0 - np.exp(
            -(1.0 / cert.rho_max)
            * (cert.steps / cert.budget)
            / (1.0 / cert.rho_min + (cert.steps / cert.noise_variance) * cert.lambda_psi_star)
        )
        assert cert.factor == pytest.approx(recomputed, rel=1e-15)

    def test_region_bound_of_one_prior_is_greedy_bound(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4)
        pool = default_candidates(40)
        assert region_bound([prior], pool, basis4, 3, 9) == greedy_bound(prior, pool, basis4, 3, 9)

    def test_region_bound_is_the_worst_voxel(self, basis4, rng):
        priors = [random_prior(basis4, rng, rank=3, noise_variance=s) for s in (0.05, 0.002, 0.01)]
        pool = default_candidates(40)
        certificates = [greedy_bound(p, pool, basis4, 6, 6) for p in priors]
        assert min(c.factor for c in certificates) < max(c.factor for c in certificates)
        want = min(certificates, key=lambda cert: cert.factor)
        assert region_bound(priors, pool, basis4, 6, 6) == want

    def test_region_bound_needs_a_prior(self, basis4):
        with pytest.raises(ValidationError, match="at least one prior"):
            region_bound([], default_candidates(30), basis4, 3, 3)

    def test_bad_steps_rejected(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=2)
        pool = default_candidates(30)
        with pytest.raises(ValidationError):
            greedy_bound(prior, pool, basis4, 0, 3)
        with pytest.raises(ValidationError):
            greedy_bound(prior, pool, basis4, 4, 3)


def reference_esr_design(count, seed=0, iterations=2000, restarts=3, first_step=0.01):
    """ESR one restart after the other, on the one-configuration kernel."""
    rng = np.random.default_rng(seed)
    base = hemisphere_spiral(count)
    best_points, best_energy = None, np.inf
    for _ in range(restarts):
        points = normalized(base + 0.05 * rng.standard_normal((count, 3)))
        energy, grad = reference_coulomb_energy_grad(points)
        alpha = first_step / count
        for _ in range(iterations):
            tangent = grad - np.einsum("ij,ij->i", grad, points)[:, None] * points
            trial = normalized(points - alpha * tangent)
            trial_energy, trial_grad = reference_coulomb_energy_grad(trial)
            if trial_energy < energy:
                points, energy, grad = trial, trial_energy, trial_grad
                alpha *= 1.2
            else:
                alpha *= 0.5
                if alpha < 1e-14:
                    break
        if energy < best_energy:
            best_points, best_energy = points, energy
    return best_points


class TestEsrDesign:
    # Counts 2, 3 and 5 stop every restart early, at different iterations
    # (count 3 ends in a three-way energy tie); 30 stops some early; 45 runs
    # into the iteration cap. The last four pairs, with (30, 101), are the
    # ESR calls of the perfbench protocol run; each has steps where some
    # restarts accept their trial and others reject it, so only some rows
    # get a new gradient.
    @pytest.mark.parametrize(
        "count,seed",
        [(c, s) for c in (2, 3, 5, 30, 45) for s in (0, 7, 101)] + [(5, 107), (10, 112), (15, 117), (20, 122)],
    )
    def test_lockstep_restarts_equal_sequential_reference(self, count, seed):
        assert np.array_equal(esr_design(count, seed=seed), reference_esr_design(count, seed=seed))

    @pytest.mark.parametrize("count", [2, 5, 30, 45])
    def test_one_restart_at_iteration_cap_equals_reference(self, count, monkeypatch):
        monkeypatch.setattr(design, "_ESR_STEPS", 50)
        monkeypatch.setattr(design, "_ESR_RESTARTS", 1)
        want = reference_esr_design(count, seed=3, iterations=50, restarts=1)
        assert np.array_equal(esr_design(count, seed=3), want)

    @pytest.mark.parametrize("step", [5e-15, 1e-3])
    def test_explicit_step_equals_reference(self, step, monkeypatch):
        # a step below the 1e-14 floor leaves a restart only on a rejection
        monkeypatch.setattr(design, "_ESR_STEPS", 60)
        monkeypatch.setattr(design, "_ESR_RESTARTS", 4)
        monkeypatch.setattr(design, "_ESR_FIRST_STEP", 12 * step)
        want = reference_esr_design(12, seed=9, iterations=60, restarts=4, first_step=12 * step)
        assert np.array_equal(esr_design(12, seed=9), want)

    def test_two_points_orthogonal(self):
        pts = esr_design(2, seed=3)
        assert abs(float(pts[0] @ pts[1])) < 1e-3

    def test_three_points_orthogonal_triple(self):
        pts = esr_design(3, seed=3)
        dots = [abs(float(pts[i] @ pts[j])) for i in range(3) for j in range(i + 1, 3)]
        assert max(dots) < 1e-3

    def test_six_points_icosahedral(self):
        # known optimum of the antipodally symmetric energy at n=6: half an
        # icosahedron; adjacent-axis angle arctan(2) ~ 63.435 degrees
        pts = esr_design(6, seed=5)
        golden = (1 + np.sqrt(5)) / 2
        ico = np.array(
            [[0, 1, golden], [0, 1, -golden], [1, golden, 0], [1, -golden, 0], [golden, 0, 1], [-golden, 0, 1]]
        )
        ico = ico / np.linalg.norm(ico[0])
        assert coulomb_energy(pts) <= coulomb_energy(ico) * (1 + 1e-6)
        angles = [
            np.degrees(np.arccos(min(1.0, abs(float(pts[i] @ pts[j])))))
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert min(angles) == pytest.approx(np.degrees(np.arctan(2.0)), abs=2.0)

    def test_energy_never_increases(self, rng):
        for n in (5, 12, 30):
            start = hemisphere_spiral(n)
            final = esr_design(n, seed=7)
            # descent-only acceptance: optimized energy below any fresh start
            assert coulomb_energy(final) <= coulomb_energy(start)

    def test_deterministic_given_seed(self):
        a = esr_design(10, seed=11)
        b = esr_design(10, seed=11)
        assert np.array_equal(a, b)

    def test_dispersion_beats_random(self, rng):
        # folded minimum angle of the optimized design should beat uniform
        # random designs of the same size in nearly all trials
        n = 16
        design_pts = esr_design(n, seed=1)

        def min_folded_angle(pts):
            dots = np.abs(pts @ pts.T)
            np.fill_diagonal(dots, 0.0)
            return np.degrees(np.arccos(np.clip(dots.max(), -1, 1)))

        ours = min_folded_angle(design_pts)
        wins = 0
        for trial in range(40):
            rand = random_unit_vectors(np.random.default_rng(trial), n)
            wins += ours > min_folded_angle(rand)
        assert wins >= 38

    def test_count_too_small(self):
        with pytest.raises(ValidationError):
            esr_design(1)


class TestGradientTable:
    def test_format(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        text = gradient_table(pts)
        lines = text.splitlines()
        assert len(lines) == 2
        assert text.endswith("\n")
        assert lines[0].split() == ["1", "0", "0"]
        parsed = np.array([[float(x) for x in line.split()] for line in lines])
        assert np.allclose(parsed, pts)

    def test_nine_significant_digits(self):
        pts = np.array([[np.sqrt(1 / 3), np.sqrt(1 / 3), np.sqrt(1 / 3)]])
        line = gradient_table(pts).strip()
        assert line.split()[0] == "0.577350269"
