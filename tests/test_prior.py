import re
import struct

import numpy as np
import pytest

from qsdesign import prior as prior_module
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.prior import (
    PriorField,
    RankRule,
    VoxelPrior,
    empirical_moments,
    interpolate_prior,
    load_prior_field,
    regularize_spd,
    save_prior_field,
    spd_log,
    truncate_rank,
)


def spd_exp(matrix) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via its eigendecomposition."""
    m = np.asarray(matrix, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    out = (evecs * np.exp(evals)) @ evecs.T
    return 0.5 * (out + out.T)


def random_spd(rng, n, spread=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = np.exp(rng.uniform(-spread, spread, size=n))
    return (q * evals) @ q.T


class TestEmpiricalMoments:
    def test_identical_vectors_zero_covariance(self):
        rows = np.tile([1.0, 2.0, 3.0], (2, 1))
        mean, cov = empirical_moments(rows)
        assert np.allclose(mean, [1, 2, 3])
        assert np.all(cov == 0.0)

    def test_hand_computed_toy(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        mean, cov = empirical_moments(rows)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.diag([1.0, 0.0]))  # divisor n-1 = 2

    def test_monte_carlo_recovery(self, rng):
        target = random_spd(rng, 6, spread=1.0)
        chol = np.linalg.cholesky(target)
        draws = rng.standard_normal((200, 6)) @ chol.T
        _, cov = empirical_moments(draws)
        rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert rel < 0.25

    def test_permutation_invariance(self, rng):
        rows = rng.standard_normal((12, 5))
        mean_a, cov_a = empirical_moments(rows)
        perm = rng.permutation(12)
        mean_b, cov_b = empirical_moments(rows[perm])
        assert np.allclose(mean_a, mean_b, atol=1e-14)
        assert np.allclose(cov_a, cov_b, atol=1e-13)

    def test_too_few_subjects(self):
        with pytest.raises(ValidationError):
            empirical_moments(np.ones((1, 4)))


class TestTruncateRank:
    def test_fraction_rule_boundary(self):
        evals, evecs = truncate_rank(np.diag([4.0, 1.0, 0.0]), RankRule("fraction", 0.8))
        assert evals.shape == (1,)
        assert evals[0] == pytest.approx(4.0)
        assert np.abs(np.abs(evecs[:, 0]) - [1, 0, 0]).max() < 1e-12

    def test_fixed_rank_identity(self):
        evals, evecs = truncate_rank(np.eye(3), RankRule("fixed", 2))
        assert np.allclose(evals, 1.0)
        assert np.allclose(evecs.T @ evecs, np.eye(2), atol=1e-12)

    def test_eckart_young_tail(self, rng):
        sigma = random_spd(rng, 10, spread=1.5)
        evals, evecs = truncate_rank(sigma, RankRule("fixed", 4))
        approx = (evecs * evals) @ evecs.T
        all_evals = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        tail = np.sum(all_evals[4:] ** 2)
        assert np.sum((sigma - approx) ** 2) == pytest.approx(tail, abs=1e-8)

    def test_diagonalizes_covariance(self, rng):
        sigma = random_spd(rng, 8)
        evals, evecs = truncate_rank(sigma, RankRule("fraction", 0.95))
        assert np.abs(evecs.T @ sigma @ evecs - np.diag(evals)).max() < 1e-8

    def test_rejects_asymmetric(self, rng):
        m = rng.standard_normal((4, 4))
        with pytest.raises(ValidationError):
            truncate_rank(m, RankRule("fixed", 1))

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegeneracyError):
            truncate_rank(np.zeros((3, 3)), RankRule("fixed", 1))

    def test_rank_above_dimension_rejected(self):
        with pytest.raises(ValidationError, match=r"rank must be in \[1, 2\]"):
            truncate_rank(np.eye(2), RankRule("fixed", 3))


class TestSpdLogExp:
    def test_identity_log_is_zero(self):
        assert np.all(spd_log(np.eye(4)) == 0.0)

    def test_diagonal_example(self):
        out = spd_log(np.diag([np.e, np.e**2]))
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(5):
            m = random_spd(rng, 6)
            assert np.abs(spd_exp(spd_log(m)) - m).max() < 1e-10 * max(1, np.abs(m).max())

    def test_rejects_indefinite(self):
        with pytest.raises(DegeneracyError):
            spd_log(np.diag([1.0, -0.5]))

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(ValidationError):
            spd_log(rng.standard_normal((3, 3)))


def make_field(priors_by_index, max_degree=2, shape=(2, 2, 2)):
    field = PriorField(shape, {}, max_degree, RankRule("fixed", 2))
    for index, prior in priors_by_index.items():
        field.add(index, prior)
    return field


def toy_prior(rng, j=6, noise=0.01, scale=1.0):
    mean = rng.standard_normal(j)
    cov = random_spd(rng, j, spread=0.5) * scale
    return VoxelPrior.from_moments(mean, cov, noise, RankRule("fixed", 2))


class TestPriorFieldDimension:
    # J = 15 is the degree-4 basis, J = 45 the degree-8 one
    @pytest.mark.parametrize("j,max_degree", [(15, 8), (45, 4), (6, 4)])
    def test_dimension_not_the_degrees_rejected(self, rng, j, max_degree):
        prior = toy_prior(rng, j=j)
        message = f"prior dimension {j} does not match the degree-{max_degree} basis"
        with pytest.raises(ValidationError, match=message):
            PriorField((1, 1, 1), {(0, 0, 0): prior}, max_degree)
        field = PriorField((1, 1, 1), {}, max_degree)
        with pytest.raises(ValidationError, match=message):
            field.add((0, 0, 0), prior)
        assert not field.priors

    @pytest.mark.parametrize("index", [(5, 5, 5), (0, 0)])
    def test_initial_prior_outside_the_shape_rejected(self, rng, index):
        # checked as `add` checks it, so the field never saves a file that will not load
        with pytest.raises(ValidationError, match=r"voxel index \(.*\) outside field shape \(1, 1, 1\)"):
            PriorField((1, 1, 1), {index: toy_prior(rng)}, 2)

    @pytest.mark.parametrize("max_degree", [3, -2])
    def test_degree_the_loader_rejects_is_rejected(self, max_degree):
        with pytest.raises(ValidationError, match="field basis degree must be even and non-negative"):
            PriorField((1, 1, 1), {}, max_degree)


class TestPriorFieldRankRule:
    """A field holds only priors truncated by its own rank rule, so a saved
    field reloads with the eigenpairs it was designed on."""

    def test_from_moments_records_its_rule(self, rng):
        rule = RankRule("fixed", 3)
        cov = random_spd(rng, 6)
        assert VoxelPrior.from_moments(np.zeros(6), cov, 0.01, rule).rank_rule == rule

    def test_prior_of_another_rule_rejected(self, rng):
        prior = VoxelPrior.from_moments(rng.standard_normal(6), random_spd(rng, 6), 0.01, RankRule("fixed", 3))
        message = re.escape(
            "prior truncated by RankRule(kind='fixed', value=3), "
            "not by the field's RankRule(kind='fraction', value=0.9)"
        )
        with pytest.raises(ValidationError, match=message):
            PriorField((1, 1, 1), {(0, 0, 0): prior}, 2, RankRule("fraction", 0.9))
        field = PriorField((1, 1, 1), {}, 2, RankRule("fraction", 0.9))
        with pytest.raises(ValidationError, match=message):
            field.add((0, 0, 0), prior)
        assert not field.priors
        field = PriorField((1, 1, 1), {}, 2, RankRule("fixed", 3.0))
        field.add((0, 0, 0), prior)
        assert field.priors[(0, 0, 0)] is prior

    def test_hand_built_prior_rejected_by_any_rule(self, rng):
        # saved, it would reload truncated by the field's rule, not as built
        made = VoxelPrior.from_moments(rng.standard_normal(6), random_spd(rng, 6), 0.01, RankRule("fixed", 3))
        by_hand = VoxelPrior(made.mean, made.covariance, made.eigenvalues, made.eigenvectors, made.noise_variance)
        assert by_hand.rank_rule is None
        for rule in (RankRule("fixed", 3), RankRule("fraction", 0.9)):
            message = re.escape(f"prior built by hand, not by the field's {rule}")
            with pytest.raises(ValidationError, match=message):
                PriorField((1, 1, 1), {(0, 0, 0): by_hand}, 2, rule)
            field = PriorField((1, 1, 1), {}, 2, rule)
            with pytest.raises(ValidationError, match=message):
                field.add((0, 0, 0), by_hand)
            assert not field.priors

    def test_loaded_and_interpolated_priors_carry_the_field_rule(self, rng, tmp_path):
        rule = RankRule("fixed", 2)
        field = make_field({tuple(idx): toy_prior(rng) for idx in np.ndindex(2, 2, 2)})
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        loaded = load_prior_field(path)
        assert loaded.rank_rule == rule
        assert {p.rank_rule for p in loaded.priors.values()} == {rule}
        assert interpolate_prior(loaded, [0.5, 0.5, 0.5]).rank_rule == rule


class TestInterpolatePrior:
    def full_field(self, rng):
        return make_field(
            {tuple(idx): toy_prior(rng) for idx in np.ndindex(2, 2, 2)}
        )

    def test_exact_at_grid_point(self, rng):
        field = self.full_field(rng)
        out = interpolate_prior(field, np.array([1.0, 0.0, 1.0]))
        assert out is field.priors[(1, 0, 1)]

    def test_midway_between_identical_priors(self, rng):
        p = toy_prior(rng)
        field = make_field({tuple(idx): p for idx in np.ndindex(2, 2, 2)})
        out = interpolate_prior(field, np.array([0.5, 0.5, 0.5]))
        assert np.abs(out.mean - p.mean).max() < 1e-10
        assert np.abs(out.covariance - p.covariance).max() < 1e-10 * max(1, np.abs(p.covariance).max())

    def test_log_euclidean_midpoint(self, rng):
        base = toy_prior(rng)
        a = VoxelPrior.from_moments(base.mean, np.eye(6), 0.01, RankRule("fixed", 2))
        b = VoxelPrior.from_moments(base.mean, np.e**2 * np.eye(6), 0.01, RankRule("fixed", 2))
        field = make_field({idx: (a if idx[0] == 0 else b) for idx in map(tuple, np.ndindex(2, 2, 2))})
        out = interpolate_prior(field, np.array([0.5, 0.0, 0.0]))
        assert np.abs(out.covariance - np.e * np.eye(6)).max() < 1e-8

    def test_continuity(self, rng):
        field = self.full_field(rng)
        q = np.array([0.4, 0.6, 0.3])
        a = interpolate_prior(field, q)
        b = interpolate_prior(field, q + 1e-6)
        assert np.linalg.norm(a.covariance - b.covariance) < 1e-4

    def test_out_of_bounds(self, rng):
        field = self.full_field(rng)
        with pytest.raises(ValidationError):
            interpolate_prior(field, np.array([1.5, 0.0, 0.0]))

    def test_out_of_bounds_message_names_plain_numbers(self, rng):
        field = self.full_field(rng)
        with pytest.raises(ValidationError) as exc:
            interpolate_prior(field, np.array([9.0, 9.0, 9.0]))
        assert str(exc.value) == "query [9.0, 9.0, 9.0] outside field bounding box (1, 1, 1)"

    def test_missing_neighbor(self, rng):
        field = make_field({(0, 0, 0): toy_prior(rng)})
        with pytest.raises(ValidationError):
            interpolate_prior(field, np.array([0.5, 0.5, 0.5]))

    def test_missing_neighbor_message_names_plain_indices(self, rng):
        field = make_field({(0, 0, 0): toy_prior(rng)})
        with pytest.raises(ValidationError) as exc:
            interpolate_prior(field, np.array([0.5, 0.0, 0.0]))
        assert str(exc.value) == "incomplete neighborhood: missing voxel priors at [(1, 0, 0)]"

    def test_sigma2_passthrough(self, rng):
        field = self.full_field(rng)
        out = interpolate_prior(field, np.array([0.25, 0.75, 0.5]))
        assert out.noise_variance == pytest.approx(0.01, rel=1e-12)


def reference_blended_log(matrices, weights):
    """The blend's log as one loop, each log taken where it is added."""
    acc = np.zeros_like(np.asarray(matrices[0], dtype=float))
    for wi, m in zip(weights, matrices):
        acc += wi * spd_log(m)
    return acc


def reference_interpolate_prior(field, query):
    """interpolate_prior with every corner's log taken again on each query.
    The covariance is `spd_exp` of the blended log; the eigenpairs come from
    one `eigh` of that log, exp of its eigenvalues in descending order, at
    the rank the field's rule gives `from_moments` of the covariance."""
    items = [(field.priors[idx], w) for idx, w in prior_module._trilinear_weights(query, field.shape)]
    if len(items) == 1:
        return items[0][0]
    weights = np.array([w for _, w in items])
    mean = sum(w * p.mean for p, w in items)
    log = reference_blended_log([regularize_spd(p.covariance) for p, _ in items], weights)
    cov = spd_exp(log)
    sigma2 = float(sum(w * p.noise_variance for p, w in items))
    k = VoxelPrior.from_moments(mean, cov, sigma2, field.rank_rule).rank
    evals, evecs = np.linalg.eigh(0.5 * (log + log.T))
    spectrum = np.exp(evals)
    order = np.argsort(spectrum)[::-1][:k]
    return VoxelPrior(mean, cov, spectrum[order], evecs[:, order], sigma2, field.rank_rule)


class TestLogCovarianceMemo:
    def field(self, rng):
        priors = {tuple(idx): toy_prior(rng, noise=rng.uniform(0.005, 0.02)) for idx in np.ndindex(2, 2, 2)}
        # a rank-deficient corner takes the regularize_spd branch
        half = rng.standard_normal((6, 3))
        low = VoxelPrior.from_moments(rng.standard_normal(6), half @ half.T, 0.01, RankRule("fixed", 2))
        cov = low.covariance  # each read is a new array: bound once, `is not` tests the branch
        assert regularize_spd(cov) is not cov
        priors[(1, 1, 0)] = low
        return make_field(priors)

    def test_matches_per_query_logs_bit_for_bit(self, rng):
        field = self.field(rng)
        queries = np.clip(rng.uniform(-0.1, 1.1, size=(40, 3)), 0.0, 1.0)
        queries[:3] = [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.5, 0.5, 0.5]]  # grid point, edge, centre
        for q in queries:
            got, want = interpolate_prior(field, q), reference_interpolate_prior(field, q)
            for name in ("mean", "covariance", "eigenvalues", "eigenvectors"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.noise_variance == want.noise_variance

    def test_one_log_per_voxel(self, rng, monkeypatch):
        field = self.field(rng)
        calls = []

        def counting_spd_log(matrix):
            calls.append(1)
            return spd_log(matrix)

        monkeypatch.setattr(prior_module, "spd_log", counting_spd_log)
        axis = (0.2, 0.5, 0.8)
        for q in np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3):
            interpolate_prior(field, q)  # every query blends all 8 corners
        assert len(calls) == 8
        log = field.priors[(0, 0, 0)].log_covariance
        assert log is field.priors[(0, 0, 0)].log_covariance and not log.flags.writeable

    def test_one_eigendecomposition_per_query(self, rng, monkeypatch):
        field = self.field(rng)
        interpolate_prior(field, [0.5, 0.5, 0.5])  # caches every corner's log
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix):
            calls.append(1)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        interpolate_prior(field, [0.3, 0.6, 0.2])
        assert len(calls) == 1

    def test_overflowing_blend_fails_as_a_non_finite_covariance(self, rng):
        field = self.field(rng)
        for p in field.priors.values():
            p.__dict__["log_covariance"] = np.diag(np.full(6, 800.0))  # exp(800) overflows float64
        with pytest.raises(ValidationError, match="^covariance must be finite$"):
            interpolate_prior(field, [0.5, 0.5, 0.5])


def test_interpolated_ranks_survive_a_save_and_reload(rng, tmp_path):
    # the in-memory eigenpairs come from the blended log, the reloaded ones
    # from the saved covariance; the rank rule must keep the same count
    rule = RankRule("fraction", 0.9)
    coarse = PriorField((2, 2, 2), {}, 2, rule)
    for idx in np.ndindex(2, 2, 2):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        cov = (q * np.exp(-rng.uniform(0.3, 2.0) * np.arange(6))) @ q.T
        coarse.add(idx, VoxelPrior.from_moments(rng.standard_normal(6), cov, 0.01, rule))
    n = 6
    base = np.stack(np.meshgrid(*(np.linspace(0.0, 1.0, n),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    coords = np.clip(base + rng.uniform(-0.4, 0.4, size=base.shape) / (n - 1), 0.0, 1.0)
    lattice = PriorField((n, n, n), {}, 2, rule)
    for index, query in zip(np.ndindex(n, n, n), coords):
        lattice.add(index, interpolate_prior(coarse, query))
    path = tmp_path / "lattice.qpf"
    save_prior_field(lattice, path)
    loaded = load_prior_field(path)
    ranks = {index: p.rank for index, p in lattice.priors.items()}
    assert len(set(ranks.values())) > 1
    assert {index: p.rank for index, p in loaded.priors.items()} == ranks


class TestVoxelPriorInvariants:
    def test_reconstruction_error_is_tail(self, rng):
        sigma = random_spd(rng, 9)
        prior = VoxelPrior.from_moments(np.zeros(9), sigma, 0.01, RankRule("fixed", 3))
        approx = (prior.eigenvectors * prior.eigenvalues) @ prior.eigenvectors.T
        all_evals = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        assert np.sum((sigma - approx) ** 2) == pytest.approx(np.sum(all_evals[3:] ** 2), abs=1e-8)

    def test_rejects_bad_eigenvector_shape(self, rng):
        with pytest.raises(ValidationError):
            VoxelPrior(np.zeros(4), np.eye(4), np.array([1.0]), np.ones((4, 2)), 0.01)

    def test_rejects_a_missing_covariance(self, rng):
        # design reads priors stacked (`EigenStack`), so a prior always holds its covariance
        full = toy_prior(rng)
        with pytest.raises(ValidationError, match="covariance shape"):
            VoxelPrior(full.mean, None, full.eigenvalues, full.eigenvectors, full.noise_variance)

    def test_rejects_non_positive_noise(self, rng):
        evals, evecs = truncate_rank(np.eye(3), RankRule("fixed", 1))
        with pytest.raises(ValidationError):
            VoxelPrior(np.zeros(3), np.eye(3), evals, evecs, 0.0)

    def test_covariance_reads_are_new_arrays_of_the_symmetrized_matrix(self, rng, tmp_path):
        # a prior from `from_moments`, one from interpolation and one from a load
        covariances = {tuple(idx): random_spd(rng, 6) for idx in np.ndindex(2, 2, 2)}
        rule = RankRule("fixed", 2)
        field = make_field({
            idx: VoxelPrior.from_moments(rng.standard_normal(6), cov, 0.01, rule) for idx, cov in covariances.items()})
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        made, loaded = field.priors[(1, 0, 1)], load_prior_field(path).priors[(1, 0, 1)]
        cov = covariances[(1, 0, 1)]
        assert made.covariance.tobytes() == (0.5 * (cov + cov.T)).tobytes() == loaded.covariance.tobytes()
        for prior in (made, interpolate_prior(field, [0.3, 0.6, 0.2]), loaded):
            tril = prior.covariance_tril.copy()
            first, second = prior.covariance, prior.covariance
            assert first.tobytes() == second.tobytes()
            assert np.array_equal(first, first.T)
            assert first is not second and not np.shares_memory(first, second)
            assert first.flags.writeable and second.flags.writeable
            first[...] = 0.0
            assert prior.covariance.tobytes() == second.tobytes()
            assert prior.covariance_tril.tobytes() == tril.tobytes()

    def test_spectrum_total_is_the_sum_of_the_non_negative_eigenvalues(self, rng):
        half = rng.standard_normal((6, 4))
        prior = VoxelPrior.from_moments(np.zeros(6), half @ half.T, 0.01, RankRule("fraction", 0.9))
        assert prior.spectrum_total == pytest.approx(np.trace(half @ half.T), rel=1e-12)
        assert 0.9 - 1e-12 <= prior.eigenvalues.sum() / prior.spectrum_total <= 1.0


def reference_truncate_rank(covariance, rank):
    """The leading `rank` eigenpairs from one `eigh` of this matrix alone."""
    evals, evecs = np.linalg.eigh(0.5 * (covariance + covariance.T))
    order = np.argsort(evals)[::-1]
    return evals[order][:rank], evecs[:, order][:, :rank]


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        field = make_field({tuple(idx): toy_prior(rng) for idx in np.ndindex(2, 2, 2)})
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        loaded = load_prior_field(path)
        path2 = tmp_path / "field2.qpf"
        save_prior_field(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        sidecar = (tmp_path / "field.qpf.json").read_text()
        sidecar2 = (tmp_path / "field2.qpf.json").read_text()
        assert sidecar == sidecar2

    def test_loaded_values_match(self, rng, tmp_path):
        field = make_field({(0, 0, 0): toy_prior(rng)}, shape=(1, 1, 1))
        path = tmp_path / "one.qpf"
        save_prior_field(field, path)
        loaded = load_prior_field(path)
        orig = field.priors[(0, 0, 0)]
        new = loaded.priors[(0, 0, 0)]
        assert np.array_equal(orig.mean, new.mean)
        assert np.array_equal(orig.covariance, new.covariance)
        assert orig.noise_variance == new.noise_variance

    def test_load_equals_per_voxel_from_moments(self, rng, tmp_path):
        rule = RankRule("fixed", 4)
        field = PriorField((3, 2, 2), {}, 4, rule)
        for idx in np.ndindex(3, 2, 2):
            a = rng.standard_normal((15, 15))
            noise = rng.uniform(0.01, 0.1)
            field.add(idx, VoxelPrior.from_moments(rng.standard_normal(15), a @ a.T / 15, noise, rule))
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        loaded = load_prior_field(path)
        assert list(loaded.priors) == sorted(field.priors)
        for idx, got in loaded.priors.items():
            saved = field.priors[idx]
            want = VoxelPrior.from_moments(saved.mean, saved.covariance, saved.noise_variance, rule)
            evals, evecs = reference_truncate_rank(saved.covariance, 4)
            for name in ("mean", "covariance", "eigenvalues", "eigenvectors"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.eigenvalues.tobytes() == evals.tobytes()
            assert got.eigenvectors.tobytes() == evecs.tobytes()
            assert got.noise_variance == want.noise_variance

    def test_layout_pinned_byte_for_byte(self, rng, tmp_path):
        # magic, header, then per voxel in index order: index, noise variance,
        # mean and the covariance's lower triangle in row order
        rule = RankRule("fraction", 0.9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        spectra = {(1, 0, 0): np.full(6, 1.0), (0, 0, 0): 0.1 ** np.arange(6)}
        field = PriorField((2, 1, 1), {}, 2, rule)
        for index, spectrum in spectra.items():  # added out of order: the file sorts them
            field.add(index, VoxelPrior.from_moments(rng.standard_normal(6), (q * spectrum) @ q.T, 0.02, rule))
        assert field.priors[(0, 0, 0)].rank != field.priors[(1, 0, 0)].rank
        expected = b"QPFLD001" + struct.pack("<IIId3II", 6, 2, 0, 0.9, 2, 1, 1, 2)
        for index in ((0, 0, 0), (1, 0, 0)):
            p = field.priors[index]
            tril = [p.covariance[r, c] for r in range(6) for c in range(r + 1)]
            expected += struct.pack("<3i", *index) + struct.pack("<d", p.noise_variance)
            expected += struct.pack("<6d", *p.mean) + struct.pack("<21d", *tril)
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        assert path.read_bytes() == expected
        loaded = load_prior_field(path)
        assert list(loaded.priors) == [(0, 0, 0), (1, 0, 0)]
        for index, got in loaded.priors.items():
            want = field.priors[index]
            for name in ("mean", "covariance", "eigenvalues", "eigenvectors"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.noise_variance == want.noise_variance

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qpf"
        path.write_bytes(b"NOTAPRIOR")
        with pytest.raises(ValidationError):
            load_prior_field(path)
