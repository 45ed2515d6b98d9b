"""Evaluation metrics: integrated squared error, peak detection, peak-count
mismatch rate and angular error between dominant peak pairs.

Integrated squared error is computed exactly in coefficient space (the
basis is orthonormal, so Parseval applies). Peaks are strict local maxima
over a spiral detection grid whose adjacency folds antipodes together,
refined by a few tangent-plane ascent steps on the harmonic expansion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .sphere import ShBasis

DEFAULT_PEAK_GRID_SIZE = 4096
NEIGHBOR_COUNT = 8
RELATIVE_THRESHOLD = 0.3
REFINE_STEPS = 10
REFINE_STEP_DEGREES = 0.5
PEAK_MERGE_DEGREES = 5.0


def check_peak_grid_size(grid_size: int) -> None:
    """A ValidationError unless the detection grid has a point beyond every
    point's NEIGHBOR_COUNT neighbours."""
    if grid_size <= NEIGHBOR_COUNT:
        raise ValidationError(
            f"detection grid needs at least {NEIGHBOR_COUNT + 1} points, got {grid_size}"
        )


def integrated_squared_error(coeffs_a, coeffs_b) -> float:
    """Exact integral of the squared difference of two expansions."""
    a = np.asarray(coeffs_a, dtype=float)
    b = np.asarray(coeffs_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("coefficient vectors must share one basis")
    diff = a - b
    return float(diff @ diff)


@dataclass
class PeakSet:
    """Detected peaks sorted by descending value, one axis per antipodal pair."""

    directions: np.ndarray  # (P, 3), hemisphere representatives
    values: np.ndarray  # (P,), strictly positive

    def __len__(self):
        return self.directions.shape[0]


# Rows of the neighbour table are searched in blocks of this many, so a
# block's proximity matrix stays near 0.6 MB at the default grid size.
_NEIGHBOR_BLOCK_ROWS = 64
# The first search radius, in radii sqrt(2 (NEIGHBOR_COUNT + 1) / size) of a
# cap that holds about NEIGHBOR_COUNT + 1 grid points. At every size from 9
# to 1499, and at 4096 and 16384, each point's NEIGHBOR_COUNT-th neighbour
# lies within 1.2 such radii, so the first pass certifies every row and the
# widening passes are a guarantee rather than a cost.
_NEIGHBOR_FIRST_RADII = 2.0


@functools.lru_cache(maxsize=None)
def _detection_setup(size: int, basis: ShBasis):
    """Detection directions (size, 3), their folded neighbour table
    (size, NEIGHBOR_COUNT) and the basis matrix at them (size, J).

    Hemisphere spiral with antipodally folded adjacency: even expansions
    are fully determined by one hemisphere, and keeping exact antipodal
    twins out of the grid lets strict local maxima survive. The arrays are
    shared between callers, hence read-only.

    Row i of the table lists the NEIGHBOR_COUNT points j != i of largest
    folded proximity |d_i . d_j| (needs size > NEIGHBOR_COUNT), found
    without the size x size proximity matrix. The heights
    z_i = 1 - (i + 1/2) / size are linear in the index and non-negative,
    and the angle between two unit vectors is at least the difference of
    their heights, so angle(d_i, d_j) >= |i - j| / size and
    angle(d_i, -d_j) >= z_i + z_j >= |i - j| / size. Every j within angle
    delta of d_i or of its antipode therefore lies in the index window
    |i - j| <= ceil(delta * size), folded twins at the end of the grid
    included. Rows are searched in blocks of `_NEIGHBOR_BLOCK_ROWS` over
    their window only. A row is certified once its NEIGHBOR_COUNT-th
    proximity exceeds cos(delta) + 1e-12 (the margin is far above the
    rounding of a 3-term dot product): no point outside the window can
    then beat it, so the row holds the same set as a search of the whole
    grid. Rows that are not certified go round again with delta doubled;
    at delta >= 2 the window is the whole grid and every proximity (>= 0)
    exceeds cos(delta), so the search ends. The first delta is
    `_NEIGHBOR_FIRST_RADII` times the radius of a cap that holds about
    NEIGHBOR_COUNT + 1 grid points, 2 sqrt(18 / size), so a block scans at
    most `_NEIGHBOR_BLOCK_ROWS` + 4 sqrt(18 size) columns (1150 of 4096 at
    the default size) and the table costs O(size^1.5) instead of
    O(size^2).
    """
    i = np.arange(size)
    z = 1.0 - (i + 0.5) / size
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    neighbors = np.empty((size, NEIGHBOR_COUNT), dtype=np.int64)
    for start in range(0, size, _NEIGHBOR_BLOCK_ROWS):
        rows = i[start : start + _NEIGHBOR_BLOCK_ROWS]
        delta = _NEIGHBOR_FIRST_RADII * np.sqrt(2.0 * (NEIGHBOR_COUNT + 1) / size)
        while rows.size:
            reach = int(np.ceil(delta * size))
            lo = max(0, rows[0] - reach)
            hi = min(size, rows[-1] + reach + 1)
            prox = np.abs(dirs[rows] @ dirs[lo:hi].T)  # folded angular proximity
            prox[np.arange(rows.size), rows - lo] = -np.inf
            top = np.argpartition(prox, -NEIGHBOR_COUNT, axis=1)[:, -NEIGHBOR_COUNT:]
            kth = np.take_along_axis(prox, top, axis=1).min(axis=1)
            done = kth > np.cos(delta) + 1e-12
            neighbors[rows[done]] = top[done] + lo
            rows = rows[~done]
            delta *= 2.0
    tables = (dirs, neighbors, basis.evaluate(dirs))
    for table in tables:
        table.setflags(write=False)
    return tables


def _dots(a, b):
    """Dot products a_i . b_i of the rows of two (N, d) stacks, as (N,)."""
    return _kernels.row_products(a[:, None, :], b)[:, 0]


def _ascend(coeffs, points, values, basis: ShBasis):
    """Tangent-plane ascent of every seed at once, in lockstep.

    Seed i climbs the expansion `coeffs[i]` (one row per seed) from
    `points[i]`, whose value is `values[i]`; returns the refined points
    (P, 3), folded to the upper hemisphere, and their values (P,). Each
    step evaluates the basis once at the four finite-difference probes of
    every live seed and once at every candidate, so the basis call count
    depends on `REFINE_STEPS`, not on the seed count, and runs every
    per-seed operation as one array operation over the live seeds. The
    arithmetic is the serial ascent's, operation for operation: cross
    products and vector updates are elementwise; every norm, candidate
    value and 4-probe value set is a `row_products` call, with the bits of
    the one-seed product; the probes keep their row-norm normalisation; and
    basis rows do not depend on the batch they are evaluated in.
    """
    points = np.array(points, dtype=float)
    values = np.array(values, dtype=float)
    step = np.full(len(points), np.radians(REFINE_STEP_DEGREES))
    live = np.arange(len(points))
    fd = 1e-5
    for _ in range(REFINE_STEPS):
        if not live.size:
            break
        point = points[live]
        helper = np.where(np.abs(point[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        e1 = np.cross(point, helper)
        e1 /= np.sqrt(_dots(e1, e1))[:, None]
        e2 = np.cross(point, e1)
        probes = np.stack([point + fd * e1, point - fd * e1, point + fd * e2, point - fd * e2], axis=1)
        probes = probes.reshape(-1, 3)
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probe_basis = basis.evaluate(probes).reshape(len(live), 4, -1)
        vals = _kernels.row_products(probe_basis, coeffs[live])
        grad = ((vals[:, 0] - vals[:, 1]) / (2 * fd))[:, None] * e1 + (
            (vals[:, 2] - vals[:, 3]) / (2 * fd)
        )[:, None] * e2
        norm = np.sqrt(_dots(grad, grad))
        moving = ~(norm < 1e-14)
        live = live[moving]
        if not live.size:
            break
        candidate = points[live] + step[live, None] * (grad[moving] / norm[moving, None])
        candidate /= np.sqrt(_dots(candidate, candidate))[:, None]
        cand_value = _dots(basis.evaluate(candidate), coeffs[live])
        better = cand_value > values[live]
        points[live[better]], values[live[better]] = candidate[better], cand_value[better]
        step[live[~better]] *= 0.5
    flip = (points[:, 2] < 0.0) | ((points[:, 2] == 0.0) & (points[:, 0] < 0.0))
    points[flip] *= -1.0
    return points, values


def find_peaks_batch(coeff_rows, basis: ShBasis, grid_size: int = DEFAULT_PEAK_GRID_SIZE) -> list[PeakSet]:
    """Peaks of many harmonic expansions, one :class:`PeakSet` per row.

    Same rules as :func:`find_peaks`, applied to each row of `coeff_rows`
    (a sequence of coefficient vectors, or an (N, J) array): the grid
    values of all rows come from one `row_products` call and their maxima
    from one `local_maxima` gather, then all their seeds are refined
    together (`REFINE_STEPS` ascent steps from `REFINE_STEP_DEGREES`), so a
    batch costs as many basis evaluations as one row. Peaks of a row closer
    than `PEAK_MERGE_DEGREES` keep only the higher one.
    """
    check_peak_grid_size(grid_size)
    rows = [basis.check_coefficients(c, f"coefficient row {r}") for r, c in enumerate(coeff_rows)]
    if not rows:
        return []
    dirs, neighbors, grid_basis = _detection_setup(grid_size, basis)
    coeffs = np.array(rows)
    grid_values = _kernels.row_products(grid_basis, coeffs)
    masks = _kernels.local_maxima(grid_values, neighbors)
    cutoffs, owners, seeds, seed_values = [], [], [], []
    for r, (values, mask) in enumerate(zip(grid_values, masks)):
        order = np.argsort(values[mask])[::-1]
        cutoff = RELATIVE_THRESHOLD * float(values.max())
        cutoffs.append(cutoff)
        row_seeds, row_values = dirs[mask][order], values[mask][order]
        # grid maxima sit within ~2 degrees of the refined peak, so ascent
        # gains only a few percent; seeds far below threshold cannot recover
        keep = (row_values > 0.0) & ~((cutoff > 0.0) & (row_values < 0.5 * cutoff))
        owners += [r] * int(keep.sum())
        seeds.append(row_seeds[keep])
        seed_values.append(row_values[keep])
    peaks, peak_values = _ascend(coeffs[owners], np.concatenate(seeds), np.concatenate(seed_values), basis)
    cos_merge = np.cos(np.radians(PEAK_MERGE_DEGREES))
    kept = [([], []) for _ in rows]
    # seeds of a row are visited in descending grid value, as the merge rule needs
    for r, direction, value in zip(owners, peaks, peak_values):
        if value <= 0.0 or value < cutoffs[r]:
            continue
        kept_dirs, kept_vals = kept[r]
        if any(abs(direction @ d) > cos_merge for d in kept_dirs):
            continue
        kept_dirs.append(direction)
        kept_vals.append(value)
    out = []
    for kept_dirs, kept_vals in kept:
        if kept_dirs:
            vals = np.asarray(kept_vals)
            order = np.argsort(vals)[::-1]
            out.append(PeakSet(np.asarray(kept_dirs)[order], vals[order]))
        else:
            out.append(PeakSet(np.zeros((0, 3)), np.zeros(0)))
    return out


def find_peaks(coeffs, basis: ShBasis, grid_size: int = DEFAULT_PEAK_GRID_SIZE) -> PeakSet:
    """Local maxima of a harmonic expansion, folded over antipodes.

    Grid points strictly greater than their 8 angularly-nearest neighbors
    (antipodal proximity) seed tangent-ascent refinement (`REFINE_STEPS`
    steps, the first `REFINE_STEP_DEGREES` long, halved after each
    rejected step); peaks below `RELATIVE_THRESHOLD` times the global
    maximum or with non-positive values are discarded, and refined peaks
    closer than `PEAK_MERGE_DEGREES` keep only the higher one. One row of
    :func:`find_peaks_batch`.
    """
    return find_peaks_batch([coeffs], basis, grid_size)[0]


def peak_angle_degrees(peaks: PeakSet) -> float:
    """Angle between the two highest peaks, folded to [0, 90]; 0 for < 2 peaks."""
    if len(peaks) < 2:
        return 0.0
    cosang = np.clip(abs(float(peaks.directions[0] @ peaks.directions[1])), 0.0, 1.0)
    return float(np.degrees(np.arccos(cosang)))


def false_peak_fraction(estimates, truths) -> float:
    """Share of items whose detected peak count differs from the truth's."""
    if len(estimates) != len(truths):
        raise ValidationError("estimate and truth lists must have equal length")
    if not truths:
        raise ValidationError("need at least one item")
    wrong = sum(1 for e, t in zip(estimates, truths) if len(e) != len(t))
    return wrong / len(truths)


def angular_error(estimate: PeakSet, truth: PeakSet) -> float:
    """Absolute difference of the dominant-pair angles, in degrees.

    The angle of a peak set is 0 when it has fewer than two peaks (an empty
    estimate therefore counts as single-fiber); the truth must be non-empty.
    """
    if len(truth) < 1:
        raise ValidationError("truth peak set must be non-empty")
    return abs(peak_angle_degrees(estimate) - peak_angle_degrees(truth))
