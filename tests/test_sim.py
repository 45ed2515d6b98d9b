import numpy as np
import pytest

from qsdesign.errors import ValidationError
from qsdesign.sim import (
    PROJECTION_GRID_SIZE,
    GenerativeConfig,
    GroundTruth,
    _lobe_pair,
    cohort_from_csv,
    cohort_to_csv,
    generate_cohort,
    generate_fodf,
    observe,
    observe_batch,
    sample_vmf,
)
from qsdesign.sphere import funk_radon, inverse_funk_radon, make_grid

from conftest import random_unit_vectors

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def mixture_density(points, components):
    """Weighted symmetrized mixture of von Mises-Fisher lobes at unit
    `points` (n, 3), one (axis, concentration, weight) tuple a lobe."""
    total = np.zeros(len(points))
    for axis, concentration, weight in components:
        total += _lobe_pair(points @ np.asarray(axis, dtype=float), concentration, weight)
    return total


class TestSampleVmf:
    def test_concentration_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = sample_vmf(Z, 1e6, rng)
            assert np.arccos(np.clip(d @ Z, -1, 1)) < 0.01

    def test_mean_resultant_length(self):
        # known closed form: coth(kappa) - 1/kappa
        rng = np.random.default_rng(1)
        draws = sample_vmf(Z, 20.0, rng, size=100_000)
        resultant = np.linalg.norm(draws.mean(axis=0))
        assert resultant == pytest.approx(1 / np.tanh(20) - 1 / 20, abs=0.01)

    def test_rotational_equivariance(self):
        # the resultant direction of many draws should track the mean
        for mean in (X, np.array([0.6, -0.8, 0.0]), np.array([0.0, 0.6, 0.8])):
            draws = sample_vmf(mean, 20.0, np.random.default_rng(2), size=100_000)
            resultant = draws.mean(axis=0)
            resultant /= np.linalg.norm(resultant)
            assert np.arccos(np.clip(resultant @ mean, -1, 1)) < 0.02

    def test_bad_concentration(self):
        with pytest.raises(ValidationError):
            sample_vmf(Z, 0.0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = sample_vmf(Z, 5.0, np.random.default_rng(9), size=10)
        b = sample_vmf(Z, 5.0, np.random.default_rng(9), size=10)
        assert np.array_equal(a, b)


class TestGenerateFodf:
    def test_forced_single_fiber(self, basis8):
        from qsdesign.metrics import find_peaks

        truth = generate_fodf(
            basis8, GenerativeConfig(), np.random.default_rng(0), fixed_directions=(Z, Z)
        )
        peaks = find_peaks(truth.fodf, basis8)
        assert len(peaks) == 1
        assert np.degrees(np.arccos(abs(peaks.directions[0] @ Z))) < 1.0

    def test_unit_integral(self, basis8):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(1))
        grid = make_grid("equiangular", 64)
        vals = basis8.evaluate(grid.directions) @ truth.fodf
        assert grid.weights @ vals == pytest.approx(1.0, abs=1e-6)

    def test_peak_angle_matches_analytic_density(self, basis8):
        # oracle: dense-grid argmax of the analytic mixture density, second
        # mode restricted away from the first
        from qsdesign.metrics import find_peaks, peak_angle_degrees

        cfg = GenerativeConfig()
        gen = np.random.default_rng(0)
        m1, m2 = (sample_vmf(mean, cfg.direction_concentration, gen) for mean in cfg.mean_directions)
        truth = generate_fodf(basis8, cfg, None, fixed_directions=(m1, m2))
        comps = ((m1, cfg.lobe_concentration, 0.5), (m2, cfg.lobe_concentration, 0.5))
        grid = make_grid("spiral", 20000).directions
        grid = grid[grid[:, 2] > 0]
        dens = mixture_density(grid, comps)
        first = grid[int(np.argmax(dens))]
        away = np.abs(grid @ first) < np.cos(np.radians(30.0))
        second = grid[away][int(np.argmax(dens[away]))]
        oracle_angle = np.degrees(np.arccos(np.clip(abs(first @ second), 0, 1)))

        detected = find_peaks(truth.fodf, basis8)
        assert len(detected) == 2
        assert peak_angle_degrees(detected) == pytest.approx(oracle_angle, abs=3.0)

    def test_antipodal_symmetry_in_coefficients(self, basis8, rng):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(4))
        pts = random_unit_vectors(rng, 50)
        vals_pos = basis8.evaluate(pts) @ truth.fodf
        vals_neg = basis8.evaluate(-pts) @ truth.fodf
        assert np.abs(vals_pos - vals_neg).max() < 1e-14

    def test_funk_radon_consistency(self, basis8):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(5))
        recovered = funk_radon(truth.signal, basis8)
        assert np.abs(recovered - truth.fodf).max() < 1e-10


def reference_generate_cohort(basis, config, count, seed):
    """generate_cohort with each subject's density summed lobe by lobe by
    mixture_density."""
    grid = make_grid("equiangular", PROJECTION_GRID_SIZE)
    phi = basis.evaluate(grid.directions)
    truths = []
    for child in np.random.SeedSequence(seed).spawn(count):
        gen = np.random.default_rng(child)
        m1 = sample_vmf(config.mean_directions[0], config.direction_concentration, gen)
        m2 = sample_vmf(config.mean_directions[1], config.direction_concentration, gen)
        w1, w2 = config.weights
        comps = ((m1, config.lobe_concentration, w1), (m2, config.lobe_concentration, w2))
        coeffs = phi.T @ (grid.weights * mixture_density(grid.directions, comps))
        coeffs /= coeffs[0] * np.sqrt(4.0 * np.pi)
        truths.append(GroundTruth(fodf=coeffs, signal=inverse_funk_radon(coeffs, basis)))
    return truths


def reference_observe(truth, points, sigma, rng, basis, noise="gaussian"):
    """One subject's observation, evaluating the basis for this subject alone."""
    values = basis.evaluate(points) @ truth.signal
    if sigma == 0.0:
        return values
    if noise == "gaussian":
        return values + sigma * rng.standard_normal(points.shape[0])
    scale = sigma / np.sqrt(2.0 - np.pi / 2.0)
    raw = scale * np.hypot(rng.standard_normal(points.shape[0]), rng.standard_normal(points.shape[0]))
    return values + raw - scale * np.sqrt(np.pi / 2.0)


class TestObserveBatch:
    @pytest.mark.parametrize("noise,sigma", [("gaussian", 0.02), ("chi", 0.05), ("gaussian", 0.0)])
    def test_rows_equal_per_subject_reference(self, basis8, noise, sigma):
        truths = generate_cohort(basis8, GenerativeConfig(), 7, seed=3)
        points = random_unit_vectors(np.random.default_rng(4), 23)
        seeds = np.random.SeedSequence(6).spawn(len(truths))
        batch = observe_batch(truths, points, sigma, [np.random.default_rng(s) for s in seeds], basis8, noise)
        assert batch.shape == (len(truths), 23)
        for row, truth, seed in zip(batch, truths, seeds):
            want = reference_observe(truth, points, sigma, np.random.default_rng(seed), basis8, noise)
            assert row.tobytes() == want.tobytes()
            one = observe(truth, points, sigma, np.random.default_rng(seed), basis8, noise)
            assert one.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_no_subjects_give_no_rows(self, basis4, sigma):
        points = random_unit_vectors(np.random.default_rng(4), 5)
        assert observe_batch([], points, sigma, [], basis4).shape == (0, 5)

    def test_one_rng_per_subject(self, basis4):
        truths = generate_cohort(basis4, GenerativeConfig(), 3, seed=1)
        with pytest.raises(ValueError):
            observe_batch(truths, Z, 0.1, [np.random.default_rng(0)], basis4)

    def test_unknown_noise_rejected(self, basis4):
        truths = generate_cohort(basis4, GenerativeConfig(), 2, seed=1)
        rngs = [np.random.default_rng(i) for i in range(2)]
        with pytest.raises(ValidationError, match="noise kind"):
            observe_batch(truths, Z, 0.1, rngs, basis4, "rician")
        # also where no noise is drawn
        with pytest.raises(ValidationError, match="noise kind 'bogus'"):
            observe_batch(truths, Z, 0.0, rngs, basis4, "bogus")


class TestGenerateCohort:
    def test_protocol_scale_cohort(self, basis8):
        cohort = generate_cohort(basis8, GenerativeConfig(), 200, seed=0)
        assert len(cohort) == 200
        mat = np.vstack([t.signal for t in cohort])
        assert np.unique(mat, axis=0).shape[0] == 200  # all distinct

    def test_matches_checked_density_reference_bit_for_bit(self, basis8):
        config = GenerativeConfig(weights=(0.3, 0.7), lobe_concentration=14.0)
        for got, want in zip(generate_cohort(basis8, config, 12, seed=5),
                             reference_generate_cohort(basis8, config, 12, seed=5), strict=True):
            assert got.fodf.tobytes() == want.fodf.tobytes()
            assert got.signal.tobytes() == want.signal.tobytes()

    def test_both_tangent_frames_match_reference(self, basis8):
        # |x| >= 0.9 takes the y axis as the tangent-frame helper, |x| < 0.9 the x axis
        config = GenerativeConfig(mean_directions=((-0.96, 0.28, 0.0), (0.0, 0.6, 0.8)))
        for got, want in zip(generate_cohort(basis8, config, 9, seed=8),
                             reference_generate_cohort(basis8, config, 9, seed=8), strict=True):
            assert got.fodf.tobytes() == want.fodf.tobytes()
            assert got.signal.tobytes() == want.signal.tobytes()

    def test_deterministic(self, basis4):
        a = generate_cohort(basis4, GenerativeConfig(), 5, seed=42)
        b = generate_cohort(basis4, GenerativeConfig(), 5, seed=42)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.signal, tb.signal)

    def test_population_mean_against_large_sample_oracle(self, basis8):
        # oracle: an independent large-sample average estimates the same
        # population mean, so the 200-draw cohort mean must agree with it
        # coefficient-wise within the combined Monte-Carlo band
        cfg = GenerativeConfig()
        cohort = np.vstack([t.signal for t in generate_cohort(basis8, cfg, 200, seed=7)])
        oracle = np.vstack([t.signal for t in generate_cohort(basis8, cfg, 1000, seed=1234)])
        gap = cohort.mean(axis=0) - oracle.mean(axis=0)
        band = 3.0 * np.sqrt(
            cohort.var(axis=0, ddof=1) / 200 + oracle.var(axis=0, ddof=1) / 1000
        )
        # degree-0 is exactly constant (unit-integral normalization): its
        # band is pure float dust, so give every band a machine-level floor
        band += 1e-12
        assert np.mean(np.abs(gap) <= band) > 0.95
        assert np.all(np.abs(gap) <= 1.6 * band)

    def test_mixed_peak_counts_occur(self, basis8):
        # a 200-draw cohort contains both effective single-fiber and
        # crossing-fiber truths (counted as local maxima of the density)
        from qsdesign.metrics import find_peaks

        cohort = generate_cohort(basis8, GenerativeConfig(), 200, seed=1)
        counts = {len(find_peaks(t.fodf, basis8)) for t in cohort}
        assert {1, 2} <= counts


class TestObserve:
    def test_noiseless_exact(self, basis8, rng):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(2))
        pts = random_unit_vectors(rng, 30)
        vals = observe(truth, pts, 0.0, np.random.default_rng(0), basis8)
        assert np.array_equal(vals, basis8.evaluate(pts) @ truth.signal)

    def test_noise_standard_deviation(self, basis8, rng):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(3))
        pts = random_unit_vectors(rng, 100)
        clean = basis8.evaluate(pts) @ truth.signal
        resid = np.concatenate(
            [
                observe(truth, pts, 0.01, np.random.default_rng(i), basis8) - clean
                for i in range(100)
            ]
        )
        assert resid.std() == pytest.approx(0.01, rel=0.05)

    def test_chi_noise_centered_with_matched_variance(self, basis8, rng):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(3))
        pts = random_unit_vectors(rng, 100)
        clean = basis8.evaluate(pts) @ truth.signal
        resid = np.concatenate(
            [
                observe(truth, pts, 0.01, np.random.default_rng(i), basis8, noise="chi") - clean
                for i in range(100)
            ]
        )
        assert resid.std() == pytest.approx(0.01, rel=0.05)
        assert abs(resid.mean()) < 5 * 0.01 / np.sqrt(resid.size)

    def test_antipodal_pairs_identical_noiseless(self, basis8, rng):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(6))
        pts = random_unit_vectors(rng, 10)
        a = observe(truth, pts, 0.0, np.random.default_rng(0), basis8)
        b = observe(truth, -pts, 0.0, np.random.default_rng(0), basis8)
        assert np.abs(a - b).max() < 1e-14

    def test_negative_sigma_rejected(self, basis8):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(2))
        with pytest.raises(ValidationError):
            observe(truth, Z[None, :], -0.1, np.random.default_rng(0), basis8)


class TestCohortCsv:
    def test_round_trip(self, basis4, tmp_path):
        cohort = generate_cohort(basis4, GenerativeConfig(), 4, seed=3)
        path = tmp_path / "cohort.csv"
        cohort_to_csv(cohort, path)
        back = cohort_from_csv(path)
        assert np.array_equal(back, np.vstack([t.signal for t in cohort]))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValidationError):
            cohort_from_csv(path)
