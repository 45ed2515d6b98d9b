import ctypes

import numpy as np
import pytest
from scipy import linalg

from qsdesign import estimator
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.estimator import (
    DEFAULT_GCV_GRID,
    conditional_fit,
    conditional_fit_batch,
    conditional_scores,
    gcv_select,
    gcv_select_batch,
    shls_fit,
)
from qsdesign.design import esr_design, hemisphere_spiral
from qsdesign.prior import VoxelPrior
from qsdesign.sim import GenerativeConfig, generate_cohort, observe
from qsdesign.sphere import ShBasis, laplace_beltrami_penalty, make_grid

from conftest import random_prior, random_unit_vectors


def gcv_score_oracle(points, values, basis, lam):
    """Direct-from-definition GCV, independent of the implementation path."""
    phi = basis.evaluate(points)
    m = len(values)
    a = phi.T @ phi + lam * laplace_beltrami_penalty(basis)
    hat = phi @ np.linalg.solve(a, phi.T)
    rss = float(np.sum((values - hat @ values) ** 2))
    return m * rss / (m - np.trace(hat)) ** 2


def reference_gcv_select(points, values, basis, grid):
    """GCV one value row at a time: factor, solve and trace for every grid value."""
    vals = np.asarray(values, dtype=float).ravel()
    lambdas = np.sort(np.asarray(grid, dtype=float))
    m = points.shape[0]
    phi = basis.evaluate(points)
    gram = phi.T @ phi
    penalty = laplace_beltrami_penalty(basis)
    best = None
    for lam in lambdas:
        try:
            factor = linalg.cho_factor(gram + lam * penalty, check_finite=False)
        except linalg.LinAlgError:
            continue
        coeffs = linalg.cho_solve(factor, phi.T @ vals, check_finite=False)
        rss = float(np.sum((vals - phi @ coeffs) ** 2))
        trace_h = float(np.trace(linalg.cho_solve(factor, gram, check_finite=False)))
        dof_gap = m - trace_h
        if dof_gap <= 1e-9 * m:
            continue
        score = m * rss / dof_gap**2
        if best is None or score <= best[0]:
            best = (score, float(lam), coeffs)
    if best is None:
        raise DegeneracyError("every grid value exhausts the degrees of freedom")
    return best[1], best[2]


def prior_with_eigenfunction_value(basis, point, target, rho, noise_variance):
    """Rank-1 prior whose single eigenfunction evaluates to `target` at `point`."""
    phi = basis.evaluate(point)
    unit = phi / np.linalg.norm(phi)
    c1 = target / np.linalg.norm(phi)
    assert abs(c1) < 1.0, "target exceeds the attainable eigenfunction value"
    helper = np.zeros_like(unit)
    helper[1] = 1.0
    orth = helper - (helper @ unit) * unit
    orth /= np.linalg.norm(orth)
    vec = c1 * unit + np.sqrt(1 - c1**2) * orth
    return VoxelPrior(
        mean=np.zeros(basis.dimension),
        covariance=rho * np.outer(vec, vec),
        eigenvalues=np.array([rho]),
        eigenvectors=vec[:, None],
        noise_variance=noise_variance,
    )


class TestShlsFit:
    def test_interpolates_exact_data(self, basis4, rng):
        # well-spread here means one hemisphere: antipodal pairs duplicate
        # rows of an even-degree design matrix
        points = hemisphere_spiral(basis4.dimension)
        c0 = rng.standard_normal(basis4.dimension)
        values = basis4.evaluate(points) @ c0
        coeffs = shls_fit(points, values, basis4, smoothing=0.0)
        assert np.abs(coeffs - c0).max() < 1e-8

    def test_infinite_smoothing_keeps_only_mean(self, basis4, rng):
        points = random_unit_vectors(rng, 40)
        values = 0.3 + 0.05 * rng.standard_normal(40)
        coeffs = shls_fit(points, values, basis4, smoothing=1e12)
        assert np.abs(coeffs[1:]).max() < 1e-8
        # degree-0 is unpenalized: the limit is the plain mean-preserving fit
        phi0 = 1.0 / np.sqrt(4 * np.pi)
        assert coeffs[0] == pytest.approx(values.mean() / phi0, rel=1e-6)

    def test_gcv_beats_unregularized_on_noisy_data(self, basis8, rng):
        points = make_grid("spiral", 90).directions
        phi = basis8.evaluate(points)
        wins = 0
        for _ in range(50):
            c0 = rng.standard_normal(basis8.dimension) * 0.05
            values = phi @ c0 + 0.01 * rng.standard_normal(90)
            raw = shls_fit(points, values, basis8, smoothing=0.0)
            _, smoothed = gcv_select(points, values, basis8)
            err_raw = np.sum((raw - c0) ** 2)
            err_gcv = np.sum((smoothed - c0) ** 2)
            wins += err_gcv < err_raw
        assert wins > 25  # smoothing helps on average

    def test_underdetermined_unpenalized_rejected(self, basis8, rng):
        points = random_unit_vectors(rng, 10)
        with pytest.raises(ValidationError):
            shls_fit(points, np.zeros(10), basis8, smoothing=0.0)

    def test_negative_smoothing_rejected(self, basis4, rng):
        points = random_unit_vectors(rng, 20)
        with pytest.raises(ValidationError):
            shls_fit(points, np.zeros(20), basis4, smoothing=-1.0)

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf])
    def test_non_finite_smoothing_rejected(self, basis4, rng, smoothing):
        # NaN passes a `smoothing < 0` check and would give NaN coefficients
        points = random_unit_vectors(rng, 20)
        with pytest.raises(ValidationError, match="smoothing must be finite"):
            shls_fit(points, np.zeros(20), basis4, smoothing=smoothing)

    def test_duplicate_points_unpenalized_singular(self, basis4):
        points = np.tile([[0.0, 0.0, 1.0]], (basis4.dimension, 1))
        with pytest.raises(DegeneracyError):
            shls_fit(points, np.zeros(basis4.dimension), basis4, smoothing=0.0)


class TestGcvSelect:
    def test_noiseless_data_picks_smallest_lambda(self, basis4, rng):
        points = make_grid("spiral", 40).directions
        c0 = rng.standard_normal(basis4.dimension)
        values = basis4.evaluate(points) @ c0
        lam, _ = gcv_select(points, values, basis4)
        assert lam == pytest.approx(DEFAULT_GCV_GRID.min())

    def test_matches_bruteforce_definition(self, basis4, rng, monkeypatch):
        points = make_grid("spiral", 50).directions
        values = basis4.evaluate(points) @ rng.standard_normal(basis4.dimension)
        values += 0.05 * rng.standard_normal(50)
        grid = np.logspace(-6, 0, 12)
        monkeypatch.setattr(estimator, "DEFAULT_GCV_GRID", grid)
        lam, _ = gcv_select(points, values, basis4)
        scores = [gcv_score_oracle(points, values, basis4, l) for l in grid]
        assert lam == pytest.approx(grid[int(np.argmin(scores))])

    def test_tie_breaks_to_larger_lambda(self, basis4, rng, monkeypatch):
        # constant signal: coefficients beyond degree 0 are zero for any
        # lambda, so GCV is flat in lambda and the tie rule decides
        points = make_grid("spiral", 30).directions
        values = np.full(30, 0.5)
        monkeypatch.setattr(estimator, "DEFAULT_GCV_GRID", np.array([1e-4, 1e-3, 1e-2]))
        lam, _ = gcv_select(points, values, basis4)
        assert lam == pytest.approx(1e-2)

    def test_degenerate_when_dof_exhausted(self, basis8, rng, monkeypatch):
        # more coefficients than observations and a lambda so small the
        # smoother reproduces the data: trace(H) -> M for every grid entry
        points = random_unit_vectors(rng, 8)
        values = rng.standard_normal(8)
        monkeypatch.setattr(estimator, "DEFAULT_GCV_GRID", np.array([1e-18]))
        with pytest.raises(DegeneracyError):
            gcv_select(points, values, basis8)

    def test_default_grid_is_ascending_log_grid(self):
        # the selection loop visits the grid in order and resolves ties
        # toward the later (larger) value
        expected = np.logspace(np.log10(1e-7), np.log10(1e-1), 20)
        assert DEFAULT_GCV_GRID.tobytes() == expected.tobytes()
        assert np.all(np.diff(DEFAULT_GCV_GRID) > 0.0)


class TestGcvSelectBatch:
    # degree 8 (J = 45): 30 ESR points leave the fit underdetermined, 60 do
    # not. At 30 points the two smallest grid values exhaust the degrees of
    # freedom and are skipped.
    GRID = np.array([1e-18, 1e-16, 1e-7, 1e-5, 1e-3, 1e-1])

    def cohort_values(self, basis, points, subjects=12, sigma=0.01):
        truths = generate_cohort(basis, GenerativeConfig(), subjects, seed=4)
        rng = np.random.default_rng(5)
        return [observe(t, points, sigma, rng, basis) for t in truths]

    @pytest.mark.parametrize("count", [30, 60])
    def test_rows_equal_per_row_reference(self, basis8, count, monkeypatch):
        points = esr_design(count, seed=2)
        # a zero row scores exactly 0 at every usable grid value: the tie
        # rule picks the largest
        rows = self.cohort_values(basis8, points) + [np.zeros(count)]
        monkeypatch.setattr(estimator, "DEFAULT_GCV_GRID", self.GRID)
        batch_lams, batch_coeffs = gcv_select_batch(points, rows, basis8)
        assert batch_lams[-1] == self.GRID[-1]
        assert batch_lams.shape == (len(rows),)
        assert batch_coeffs.shape == (len(rows), basis8.dimension)
        lambdas = set()
        for values, lam, coeffs in zip(rows, batch_lams, batch_coeffs):
            ref_lam, ref_coeffs = reference_gcv_select(points, values, basis8, self.GRID)
            assert lam == ref_lam
            assert np.array_equal(coeffs, ref_coeffs)
            one_lam, one_coeffs = gcv_select(points, values, basis8)
            assert one_lam == lam and np.array_equal(one_coeffs, coeffs)
            lambdas.add(lam)
        assert lambdas.isdisjoint({1e-18, 1e-16})

    def test_empty_batch_keeps_shapes(self, basis8):
        lambdas, coeffs = gcv_select_batch(esr_design(30, seed=2), [], basis8)
        assert lambdas.shape == (0,) and coeffs.shape == (0, basis8.dimension)

    def test_small_lambdas_degenerate_at_30_points(self, basis8, monkeypatch):
        points = esr_design(30, seed=2)
        rows = self.cohort_values(basis8, points, subjects=2)
        monkeypatch.setattr(estimator, "DEFAULT_GCV_GRID", self.GRID[:2])
        with pytest.raises(DegeneracyError):
            gcv_select_batch(points, rows, basis8)
        with pytest.raises(DegeneracyError):
            gcv_select(points, rows[0], basis8)

    def test_row_length_checked(self, basis4, rng):
        points = random_unit_vectors(rng, 10)
        with pytest.raises(ValidationError, match="number of values"):
            gcv_select_batch(points, [np.zeros(10), np.zeros(9)], basis4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, basis4, rng, bad):
        points = random_unit_vectors(rng, 20)
        values = rng.standard_normal(20)
        values[7] = bad
        with pytest.raises(ValidationError, match="finite"):
            gcv_select(points, values, basis4)
        with pytest.raises(ValidationError, match="finite"):
            gcv_select_batch(points, [np.zeros(20), values], basis4)
        with pytest.raises(ValidationError, match="finite"):
            shls_fit(points, values, basis4, smoothing=1e-3)
        with pytest.raises(ValidationError, match="finite"):
            conditional_fit(points, values, random_prior(basis4, rng), basis4)


class TestCholeskyPair:
    """`_cho_factor`/`_cho_solve` against `scipy.linalg.cho_factor`/`cho_solve`,
    the calls they replace, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 15, 45, 90])
    def test_equals_scipy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n + 3))
        a = a @ a.T
        factor = estimator._cho_factor(a)
        want = linalg.cho_factor(a, check_finite=False)
        assert factor.tobytes(order="A") == want[0].tobytes(order="A")
        assert factor.strides == want[0].strides
        for b in (rng.standard_normal(n), rng.standard_normal((n, 4)), rng.standard_normal((4, n)).T):
            x = estimator._cho_solve(factor, b)
            y = linalg.cho_solve(want, b, check_finite=False)
            assert x.shape == y.shape and x.strides == y.strides
            assert x.tobytes(order="A") == y.tobytes(order="A")

    @pytest.mark.parametrize("matrix", [-np.eye(3), np.diag([1.0, 0.0, 1.0]), np.ones((4, 4))])
    def test_not_positive_definite_raises(self, matrix):
        with pytest.raises(np.linalg.LinAlgError):
            estimator._cho_factor(matrix)

    @pytest.mark.parametrize("resolved", [True, False])
    def test_mismatched_shapes_rejected_before_lapack(self, resolved, monkeypatch):
        if not resolved:
            monkeypatch.setattr(estimator, "_numpy_lapack", lambda: None)
        factor = estimator._cho_factor(np.eye(3))
        for b in (np.zeros(4), np.zeros((2, 3)), np.zeros((3, 0)), np.zeros((3, 1, 1))):
            with pytest.raises(ValueError):
                estimator._cho_solve(factor, b)
        for a in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3)):
            with pytest.raises(ValueError):
                estimator._cho_factor(a)

    def test_scipy_fallback_gives_the_same_bytes(self, basis8, monkeypatch):
        # where numpy's LAPACK exports no `dpotrf`/`dpotrs`, scipy's do the work
        rng = np.random.default_rng(9)
        points = esr_design(30, seed=2)
        rows = [rng.standard_normal(30) for _ in range(5)]
        prior = random_prior(basis8, rng, rank=12, noise_variance=1e-3)

        def fits():
            lams, coeffs = gcv_select_batch(points, rows, basis8)
            return (lams.tobytes(), coeffs.tobytes(), shls_fit(points, rows[0], basis8, 1e-3).tobytes(),
                    conditional_fit_batch(points, rows, prior, basis8).tobytes())

        resolved = fits()
        monkeypatch.setattr(estimator, "_numpy_lapack", lambda: None)
        assert fits() == resolved


class TestNumpyFunction:
    """`_numpy_function`, through which every LAPACK and OpenBLAS symbol is bound."""

    def test_missing_symbol_resolves_to_none(self):
        assert estimator._numpy_function("qsdesign_no_such_symbol_", ctypes.c_int) is None

    def test_repeated_call_returns_the_same_object(self):
        name = "scipy_openblas_get_num_threads64_"
        first = estimator._numpy_function(name, ctypes.c_int)
        assert estimator._numpy_function(name, ctypes.c_int) is first
        if first is not None:  # numpy's OpenBLAS exports it: bound with the types asked for
            assert first.restype is ctypes.c_int and first.argtypes == ()
            assert first() >= 1

    def test_lapack_pair_is_resolved_through_it(self):
        pair = estimator._numpy_lapack()
        assert pair is None or pair == (estimator._numpy_function("scipy_dpotrf_64_", None, ctypes.c_char_p,
                                                                  *[ctypes.c_void_p] * 4, ctypes.c_size_t),
                                        estimator._numpy_function("scipy_dpotrs_64_", None, ctypes.c_char_p,
                                                                  *[ctypes.c_void_p] * 7, ctypes.c_size_t))


def reference_conditional_fit(points, values, prior, basis):
    """Conditional mean for one value row: factor, solve and map back for this row alone."""
    vals = np.asarray(values, dtype=float)
    if points.shape[0] == 0:
        return prior.mean + prior.eigenvectors @ np.zeros(prior.rank)
    phi = basis.evaluate(points)
    psi = phi @ prior.eigenvectors
    lam = prior.eigenvalues
    gram = (psi * lam) @ psi.T + prior.noise_variance * np.eye(points.shape[0])
    factor = linalg.cho_factor(gram, check_finite=False)
    scores = lam * (psi.T @ linalg.cho_solve(factor, vals - phi @ prior.mean, check_finite=False))
    return prior.mean + prior.eigenvectors @ scores


class TestConditionalFitBatch:
    @pytest.mark.parametrize("count", [0, 1, 5, 20, 45])
    def test_rows_equal_per_row_reference(self, basis8, count):
        rng = np.random.default_rng(count)
        prior = random_prior(basis8, rng, rank=12, noise_variance=1e-3)
        points = esr_design(count, seed=1) if count > 1 else random_unit_vectors(rng, count)
        rows = [rng.standard_normal(count) for _ in range(30)] + [np.zeros(count)]
        batch = conditional_fit_batch(points, rows, prior, basis8)
        assert batch.shape == (len(rows), basis8.dimension)
        for values, coeffs in zip(rows, batch):
            want = reference_conditional_fit(points, values, prior, basis8)
            assert coeffs.tobytes() == want.tobytes()
            one = conditional_fit(points, values, prior, basis8)
            assert one.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [0, 6])
    def test_empty_batch_keeps_shapes(self, basis4, rng, count):
        points = random_unit_vectors(rng, count)
        batch = conditional_fit_batch(points, [], random_prior(basis4, rng), basis4)
        assert batch.shape == (0, basis4.dimension)

    def test_row_length_checked(self, basis4, rng):
        points = random_unit_vectors(rng, 6)
        with pytest.raises(ValidationError, match="number of values"):
            conditional_fit_batch(points, [np.zeros(6), np.zeros(5)], random_prior(basis4, rng), basis4)


class TestConditionalScores:
    def test_zero_observations_returns_zero(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        scores = conditional_scores(np.zeros((0, 3)), np.zeros(0), prior, basis4)
        assert np.all(scores == 0.0)
        fit = conditional_fit(np.zeros((0, 3)), np.zeros(0), prior, basis4)
        assert np.array_equal(fit, prior.mean)

    def test_huge_noise_shrinks_to_zero(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4, noise_variance=1e12)
        points = random_unit_vectors(rng, 6)
        values = rng.standard_normal(6)
        scores = conditional_scores(points, values, prior, basis4)
        assert np.abs(scores).max() < 1e-9

    def test_scalar_hand_computation(self, basis4):
        # rho=2, eigenfunction value 0.5 at the point, noise 0.01,
        # residual 1 => score = 2*0.5*1 / (0.5^2*2 + 0.01) = 1/0.51
        point = np.array([0.0, 0.0, 1.0])
        prior = prior_with_eigenfunction_value(basis4, point, 0.5, rho=2.0, noise_variance=0.01)
        scores = conditional_scores(point[None, :], np.array([1.0]), prior, basis4)
        assert scores[0] == pytest.approx(1.0 / 0.51, rel=1e-12)

    def test_linearity_in_residuals(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=5)
        points = random_unit_vectors(rng, 8)
        mu = basis4.evaluate(points) @ prior.mean
        resid = rng.standard_normal(8)
        s1 = conditional_scores(points, mu + resid, prior, basis4)
        s2 = conditional_scores(points, mu + 2 * resid, prior, basis4)
        assert np.abs(s2 - 2 * s1).max() < 1e-12

    def test_shrinkage_monotone_in_noise(self, basis4, rng):
        for trial in range(10):
            trial_rng = np.random.default_rng(trial)
            prior_lo = random_prior(basis4, trial_rng, rank=4, noise_variance=0.01)
            prior_hi = VoxelPrior(
                prior_lo.mean,
                prior_lo.covariance,
                prior_lo.eigenvalues,
                prior_lo.eigenvectors,
                noise_variance=0.5,
            )
            points = random_unit_vectors(trial_rng, 7)
            values = trial_rng.standard_normal(7)
            lo = np.linalg.norm(conditional_scores(points, values, prior_lo, basis4))
            hi = np.linalg.norm(conditional_scores(points, values, prior_hi, basis4))
            assert lo >= hi

    def test_gram_matches_joint_covariance_block(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=5)
        points = random_unit_vectors(rng, 9)
        phi = basis4.evaluate(points)
        psi = phi @ prior.eigenvectors
        direct = (psi * prior.eigenvalues) @ psi.T + prior.noise_variance * np.eye(9)
        # function-space covariance evaluated pairwise plus the noise ridge
        sigma_k = (prior.eigenvectors * prior.eigenvalues) @ prior.eigenvectors.T
        pairwise = phi @ sigma_k @ phi.T + prior.noise_variance * np.eye(9)
        assert np.abs(direct - pairwise).max() < 1e-12


class TestConditionalFit:
    def test_near_interpolation_limit(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=4, noise_variance=1e-12)
        xi0 = rng.standard_normal(4)
        truth = prior.mean + prior.eigenvectors @ xi0
        points = make_grid("spiral", 12).directions
        values = basis4.evaluate(points) @ truth
        fit = conditional_fit(points, values, prior, basis4)
        assert np.abs(fit - truth).max() < 1e-6

    def test_estimate_stays_in_prior_subspace(self, basis4, rng):
        prior = random_prior(basis4, rng, rank=3)
        points = random_unit_vectors(rng, 10)
        values = rng.standard_normal(10)
        fit = conditional_fit(points, values, prior, basis4)
        offset = fit - prior.mean
        projected = prior.eigenvectors @ (prior.eigenvectors.T @ offset)
        assert np.abs(offset - projected).max() < 1e-12

    def test_beats_shls_on_prior_draws(self, basis4, rng):
        # Monte-Carlo: with data generated from the prior model, the
        # conditional fit has lower mean squared coefficient error than the
        # penalized fit at the same 10 samples.
        prior = random_prior(basis4, rng, rank=4, noise_variance=0.01)
        points = make_grid("spiral", 10).directions
        phi = basis4.evaluate(points)
        err_cond, err_shls = 0.0, 0.0
        for _ in range(500):
            xi = rng.standard_normal(4) * np.sqrt(prior.eigenvalues)
            truth = prior.mean + prior.eigenvectors @ xi
            values = phi @ truth + 0.1 * rng.standard_normal(10)
            cond = conditional_fit(points, values, prior, basis4)
            _, pen = gcv_select(points, values, basis4)
            err_cond += np.sum((cond - truth) ** 2)
            err_shls += np.sum((pen - truth) ** 2)
        assert err_cond <= err_shls

    def test_optimal_among_fixed_linear_estimators(self, basis4, rng):
        # sampled check of mean-square optimality: average integrated squared
        # error over prior draws is no worse than several fixed linear maps
        prior = random_prior(basis4, rng, rank=4, noise_variance=0.04)
        points = make_grid("spiral", 8).directions
        phi = basis4.evaluate(points)
        competitors = {
            "prior-mean": lambda v: prior.mean,
            "ridge": lambda v: np.linalg.solve(phi.T @ phi + 0.1 * np.eye(basis4.dimension), phi.T @ v),
            "least-norm": lambda v: phi.T @ np.linalg.solve(phi @ phi.T + 1e-9 * np.eye(8), v),
        }
        totals = {name: 0.0 for name in competitors}
        total_cond = 0.0
        for _ in range(400):
            xi = rng.standard_normal(4) * np.sqrt(prior.eigenvalues)
            truth = prior.mean + prior.eigenvectors @ xi
            values = phi @ truth + 0.2 * rng.standard_normal(8)
            fit = conditional_fit(points, values, prior, basis4)
            total_cond += np.sum((fit - truth) ** 2)
            for name, est in competitors.items():
                totals[name] += np.sum((est(values) - truth) ** 2)
        for name, total in totals.items():
            assert total_cond <= total, name

    def test_dimension_mismatch_rejected(self, basis8, rng):
        basis4 = ShBasis(4)
        prior = random_prior(basis4, rng, rank=3)
        points = random_unit_vectors(rng, 5)
        with pytest.raises(ValidationError):
            conditional_fit(points, np.zeros(5), prior, basis8)
