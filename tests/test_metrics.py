import numpy as np
import pytest

from qsdesign.errors import ValidationError
from qsdesign.metrics import (
    PeakSet,
    angular_error,
    false_peak_fraction,
    find_peaks,
    find_peaks_batch,
    integrated_squared_error,
    peak_angle_degrees,
)
from qsdesign import metrics
from qsdesign.sim import GenerativeConfig, generate_cohort, generate_fodf
from qsdesign.sphere import ShBasis, make_grid, project_to_basis

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def reference_find_peaks(coeffs, basis, grid_size=metrics.DEFAULT_PEAK_GRID_SIZE):
    """Serial peak detection: each seed refined on its own, one basis call per
    probe set; the threshold is read at call time, as `find_peaks` reads it."""
    dirs, neighbors, _ = metrics._detection_setup(grid_size, basis)
    values = basis.evaluate(dirs) @ coeffs
    mask = values > values[neighbors].max(axis=1)
    order = np.argsort(values[mask])[::-1]
    cutoff = metrics.RELATIVE_THRESHOLD * float(values.max())
    cos_merge = np.cos(np.radians(metrics.PEAK_MERGE_DEGREES))
    fd = 1e-5
    kept_dirs, kept_vals = [], []
    for seed, value in zip(dirs[mask][order], values[mask][order]):
        if value <= 0.0 or (cutoff > 0.0 and value < 0.5 * cutoff):
            continue
        point, value = seed.copy(), float(value)
        step = np.radians(metrics.REFINE_STEP_DEGREES)
        for _ in range(metrics.REFINE_STEPS):
            helper = np.array([1.0, 0.0, 0.0]) if abs(point[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            e1 = np.cross(point, helper)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(point, e1)
            probes = np.vstack([point + fd * e1, point - fd * e1, point + fd * e2, point - fd * e2])
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            vals = basis.evaluate(probes) @ coeffs
            grad = (vals[0] - vals[1]) / (2 * fd) * e1 + (vals[2] - vals[3]) / (2 * fd) * e2
            norm = np.linalg.norm(grad)
            if norm < 1e-14:
                break
            candidate = point + step * (grad / norm)
            candidate /= np.linalg.norm(candidate)
            cand_value = float(basis.evaluate(candidate) @ coeffs)
            if cand_value > value:
                point, value = candidate, cand_value
            else:
                step *= 0.5
        if point[2] < 0.0 or (point[2] == 0.0 and point[0] < 0.0):
            point = -point
        if value <= 0.0 or value < cutoff:
            continue
        if any(abs(point @ d) > cos_merge for d in kept_dirs):
            continue
        kept_dirs.append(point)
        kept_vals.append(value)
    if not kept_dirs:
        return PeakSet(np.zeros((0, 3)), np.zeros(0))
    vals = np.asarray(kept_vals)
    order = np.argsort(vals)[::-1]
    return PeakSet(np.asarray(kept_dirs)[order], vals[order])


def spiral_directions(size):
    """The detection grid's hemisphere spiral, written out independently."""
    i = np.arange(size)
    z = 1.0 - (i + 0.5) / size
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def reference_neighbors(size):
    """Brute-force folded neighbour table: each chunk of rows against the
    whole grid, the NEIGHBOR_COUNT largest proximities by argpartition."""
    dirs = spiral_directions(size)
    out = np.empty((size, metrics.NEIGHBOR_COUNT), dtype=np.int64)
    for start in range(0, size, 256):
        stop = min(start + 256, size)
        prox = np.abs(dirs[start:stop] @ dirs.T)
        prox[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        out[start:stop] = np.argpartition(prox, -metrics.NEIGHBOR_COUNT, axis=1)[:, -metrics.NEIGHBOR_COUNT:]
    return out


def assert_same_neighbor_sets(size):
    dirs, neighbors, _ = metrics._detection_setup.__wrapped__(size, ShBasis(0))
    assert np.array_equal(dirs, spiral_directions(size))
    assert neighbors.shape == (size, metrics.NEIGHBOR_COUNT)
    assert neighbors.T.flags.c_contiguous  # the neighbour-major layout local_maxima gathers over
    assert np.array_equal(np.sort(neighbors, axis=1), np.sort(reference_neighbors(size), axis=1))


def mixed_cohort(basis, rng):
    """Two- and three-fibre subjects, noisy copies, a zero row and a row
    whose grid maxima are all non-positive."""
    rows = [t.fodf for t in generate_cohort(basis, GenerativeConfig(), 6, 11)]
    for first, second, third in [(Z, X, Y), (X, Y, Y), (Z, Y, X)]:
        pair = generate_fodf(basis, GenerativeConfig(), rng, fixed_directions=(first, second))
        lone = generate_fodf(basis, GenerativeConfig(), rng, fixed_directions=(third, third))
        rows.append(pair.fodf + 0.8 * lone.fodf)
    rows += [r + 0.05 * np.abs(r).max() * rng.standard_normal(basis.dimension) for r in rows[:6]]
    rows.append(np.zeros(basis.dimension))
    rows.append(-rows[0])
    return rows


def assert_same_peaks(got, want):
    assert np.array_equal(got.directions, want.directions)
    assert np.array_equal(got.values, want.values)


def peak_set(*dirs_vals):
    dirs = np.array([d for d, _ in dirs_vals], dtype=float)
    vals = np.array([v for _, v in dirs_vals], dtype=float)
    return PeakSet(dirs, vals)


class TestIntegratedSquaredError:
    def test_zero_for_equal(self, rng):
        c = rng.standard_normal(15)
        assert integrated_squared_error(c, c) == 0.0

    def test_single_coefficient(self):
        a = np.zeros(15)
        b = np.zeros(15)
        b[3] = 2.0
        assert integrated_squared_error(a, b) == 4.0

    def test_matches_quadrature(self, basis8, rng):
        f = rng.standard_normal(basis8.dimension)
        g = rng.standard_normal(basis8.dimension)
        grid = make_grid("equiangular", 64)
        diff = basis8.evaluate(grid.directions) @ (f - g)
        oracle = grid.weights @ diff**2
        assert integrated_squared_error(f, g) == pytest.approx(oracle, abs=1e-6)

    def test_symmetric_and_relaxed_triangle(self, rng):
        f, g, h = (rng.standard_normal(10) for _ in range(3))
        assert integrated_squared_error(f, g) == integrated_squared_error(g, f)
        assert integrated_squared_error(f, h) <= 2 * (
            integrated_squared_error(f, g) + integrated_squared_error(g, h)
        )

    def test_basis_mismatch(self, rng):
        with pytest.raises(ValidationError):
            integrated_squared_error(np.zeros(15), np.zeros(45))


class TestFindPeaks:
    def test_zonal_single_fiber(self, basis8):
        truth = generate_fodf(
            basis8, GenerativeConfig(), np.random.default_rng(0), fixed_directions=(Z, Z)
        )
        peaks = find_peaks(truth.fodf, basis8)
        assert len(peaks) == 1
        assert np.degrees(np.arccos(abs(peaks.directions[0] @ Z))) < 1.0

    def test_two_fibers_at_ninety_degrees(self, basis8):
        truth = generate_fodf(
            basis8, GenerativeConfig(), np.random.default_rng(0), fixed_directions=(Z, X)
        )
        peaks = find_peaks(truth.fodf, basis8)
        assert len(peaks) == 2
        assert peak_angle_degrees(peaks) == pytest.approx(90.0, abs=3.0)

    def test_constant_function_no_peaks(self, basis8):
        c = np.zeros(basis8.dimension)
        c[0] = 1.0
        assert len(find_peaks(c, basis8)) == 0

    def test_values_positive_and_sorted(self, basis8):
        truth = generate_fodf(basis8, GenerativeConfig(), np.random.default_rng(3))
        peaks = find_peaks(truth.fodf, basis8)
        assert np.all(peaks.values > 0)
        assert np.all(np.diff(peaks.values) <= 0)

    def test_rotation_equivariance(self, basis8):
        # rotate by projecting the rotated band-limited function exactly
        truth = generate_fodf(
            basis8, GenerativeConfig(), np.random.default_rng(1), fixed_directions=(Z, X)
        )
        angle = 0.7
        rot = np.array(
            [
                [1, 0, 0],
                [0, np.cos(angle), -np.sin(angle)],
                [0, np.sin(angle), np.cos(angle)],
            ]
        )
        grid = make_grid("equiangular", 64)
        rotated_values = basis8.evaluate(grid.directions @ rot) @ truth.fodf
        rotated_coeffs = project_to_basis(rotated_values, grid, basis8)
        base = find_peaks(truth.fodf, basis8)
        moved = find_peaks(rotated_coeffs, basis8)
        assert len(base) == len(moved)
        for direction in base.directions:
            target = rot @ direction
            best = min(
                np.degrees(np.arccos(np.clip(abs(target @ d), 0, 1))) for d in moved.directions
            )
            assert best < 3.0

    def test_threshold_drops_secondary_peak(self, basis8, monkeypatch):
        cfg = GenerativeConfig(weights=(0.9, 0.1))
        truth = generate_fodf(
            basis8, cfg, np.random.default_rng(0), fixed_directions=(Z, X)
        )
        monkeypatch.setattr(metrics, "RELATIVE_THRESHOLD", 0.9)
        strict = find_peaks(truth.fodf, basis8)
        monkeypatch.setattr(metrics, "RELATIVE_THRESHOLD", 0.05)
        loose = find_peaks(truth.fodf, basis8)
        assert len(strict) == 1
        assert len(loose) >= 2

    def test_empty_grid_rejected(self, basis8):
        with pytest.raises(ValidationError):
            find_peaks(np.zeros(basis8.dimension), basis8, grid_size=0)

    def test_non_finite_coefficients_rejected(self, basis8):
        with pytest.raises(ValidationError):
            find_peaks(np.full(basis8.dimension, np.nan), basis8)
        bad = np.zeros(basis8.dimension)
        bad[3] = np.inf
        with pytest.raises(ValidationError):
            find_peaks_batch([np.zeros(basis8.dimension), bad], basis8)


class TestDetectionGrid:
    @pytest.mark.parametrize("size", [*range(9, 65), 321, 512, 1024, 4096, 16384])
    def test_neighbor_table_equals_brute_force(self, size):
        assert_same_neighbor_sets(size)

    @pytest.mark.parametrize("size", [9, 10, 33, 64, 321, 1024, 4096])
    def test_widening_passes_equal_brute_force(self, size, monkeypatch):
        # a first radius of a quarter cap leaves rows uncertified, so the
        # search must widen before the table is complete
        monkeypatch.setattr(metrics, "_NEIGHBOR_FIRST_RADII", 0.25)
        first = 0.25 * np.sqrt(2.0 * (metrics.NEIGHBOR_COUNT + 1) / size)
        dirs = spiral_directions(size)
        ref = reference_neighbors(size)
        kth = np.abs(np.einsum("ik,ijk->ij", dirs, dirs[ref])).min(axis=1)
        assert (kth <= np.cos(first) + 1e-12).any()
        assert_same_neighbor_sets(size)

    @pytest.mark.parametrize("size", [1, 7, 8])
    def test_grid_without_room_for_neighbors_rejected(self, basis4, size):
        with pytest.raises(ValidationError, match="at least 9 points"):
            find_peaks(np.ones(basis4.dimension), basis4, grid_size=size)
        with pytest.raises(ValidationError, match="at least 9 points"):
            find_peaks_batch([np.ones(basis4.dimension)], basis4, grid_size=size)

    def test_smallest_grid_detects(self, basis4):
        truth = generate_fodf(basis4, GenerativeConfig(), np.random.default_rng(0), fixed_directions=(Z, X))
        got = find_peaks(truth.fodf, basis4, grid_size=9)
        assert len(got) >= 1
        assert_same_peaks(got, reference_find_peaks(truth.fodf, basis4, grid_size=9))


class TestFindPeaksBatch:
    def test_batch_equals_one_row_at_a_time(self, basis8, rng):
        rows = mixed_cohort(basis8, rng)
        counts = [len(p) for p in find_peaks_batch(rows, basis8)]
        assert {0, 1, 2, 3} <= set(counts)  # the cohort covers every case
        for got, want in zip(find_peaks_batch(rows, basis8), [find_peaks(r, basis8) for r in rows]):
            assert_same_peaks(got, want)

    def test_batch_equals_serial_reference(self, basis8, rng):
        rows = mixed_cohort(basis8, rng)
        batch = find_peaks_batch(np.asarray(rows), basis8, grid_size=1024)
        for got, row in zip(batch, rows):
            assert_same_peaks(got, reference_find_peaks(row, basis8, grid_size=1024))

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.9])
    def test_batch_equals_serial_reference_at_other_thresholds(self, basis8, rng, threshold, monkeypatch):
        monkeypatch.setattr(metrics, "RELATIVE_THRESHOLD", threshold)
        rows = mixed_cohort(basis8, rng)
        batch = find_peaks_batch(rows, basis8, grid_size=1024)
        for got, row in zip(batch, rows):
            assert_same_peaks(got, reference_find_peaks(row, basis8, grid_size=1024))

    def test_empty_batch(self, basis8):
        assert find_peaks_batch([], basis8) == []

    def test_row_shape_checked(self, basis8):
        with pytest.raises(ValidationError):
            find_peaks_batch([np.zeros(basis8.dimension), np.zeros(15)], basis8)


class TestFalsePeakFraction:
    def test_identical(self):
        sets = [peak_set((Z, 1.0)), peak_set((X, 1.0), (Z, 0.5))]
        assert false_peak_fraction(sets, sets) == 0.0

    def test_all_wrong(self):
        est = [peak_set((Z, 1.0))] * 4
        truth = [peak_set((Z, 1.0), (X, 0.5))] * 4
        assert false_peak_fraction(est, truth) == 1.0

    def test_half_wrong(self):
        one = peak_set((Z, 1.0))
        two = peak_set((Z, 1.0), (X, 0.5))
        assert false_peak_fraction([one, one, two, two], [one, two, two, one]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            false_peak_fraction([peak_set((Z, 1.0))], [])


class TestAngularError:
    def test_both_single_peak(self):
        assert angular_error(peak_set((Z, 1.0)), peak_set((X, 1.0))) == 0.0

    def test_ninety_vs_eighty(self):
        truth = peak_set((Z, 1.0), (X, 0.9))
        est_dir = np.array([np.sin(np.radians(80)), 0.0, np.cos(np.radians(80))])
        est = peak_set((Z, 1.0), (est_dir, 0.9))
        assert angular_error(est, truth) == pytest.approx(10.0, abs=1e-9)

    def test_single_truth_two_peak_estimate(self):
        truth = peak_set((Z, 1.0))
        est_dir = np.array([np.sin(np.radians(60)), 0.0, np.cos(np.radians(60))])
        est = peak_set((Z, 1.0), (est_dir, 0.9))
        assert angular_error(est, truth) == pytest.approx(60.0, abs=1e-9)

    def test_empty_estimate_counts_as_single_fiber(self):
        truth = peak_set((Z, 1.0), (X, 0.5))
        empty = PeakSet(np.zeros((0, 3)), np.zeros(0))
        assert angular_error(empty, truth) == pytest.approx(90.0)

    def test_angles_folded_to_ninety(self):
        near_anti = np.array([np.sin(np.radians(170)), 0.0, np.cos(np.radians(170))])
        est = peak_set((Z, 1.0), (near_anti, 0.9))
        assert peak_angle_degrees(est) == pytest.approx(10.0, abs=1e-9)

    def test_empty_truth_rejected(self):
        empty = PeakSet(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValidationError):
            angular_error(peak_set((Z, 1.0)), empty)
