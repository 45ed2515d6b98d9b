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
DEFAULT_RELATIVE_THRESHOLD = 0.3
NEIGHBOR_COUNT = 8
REFINE_STEPS = 10
REFINE_STEP_DEGREES = 0.5
PEAK_MERGE_DEGREES = 5.0


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
    grid_size: int

    def __len__(self):
        return self.directions.shape[0]


@functools.lru_cache(maxsize=None)
def _detection_setup(size: int, basis: ShBasis):
    """Detection directions (size, 3), their folded neighbour table
    (size, NEIGHBOR_COUNT) and the basis matrix at them (size, J).

    Hemisphere spiral with antipodally folded adjacency: even expansions
    are fully determined by one hemisphere, and keeping exact antipodal
    twins out of the grid lets strict local maxima survive. The arrays are
    shared between callers, hence read-only.
    """
    i = np.arange(size)
    z = 1.0 - (i + 0.5) / size
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    neighbors = np.empty((size, NEIGHBOR_COUNT), dtype=np.int64)
    chunk = 512
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        prox = np.abs(dirs[start:stop] @ dirs.T)  # folded angular proximity
        prox[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        neighbors[start:stop] = np.argpartition(prox, -NEIGHBOR_COUNT, axis=1)[
            :, -NEIGHBOR_COUNT:
        ]
    tables = (dirs, neighbors, basis.evaluate(dirs))
    for table in tables:
        table.setflags(write=False)
    return tables


def _cross3(a, b):
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _ascend(coeff_rows, owners, points, values, basis: ShBasis):
    """Tangent-plane ascent of every seed at once, in lockstep.

    Seed i climbs the expansion `coeff_rows[owners[i]]` from `points[i]`,
    whose value is `values[i]`. Each step evaluates the basis once at the
    four finite-difference probes of every live seed and once at every
    candidate, so the basis call count depends on `REFINE_STEPS`, not on the seed
    count. The per-seed arithmetic is the serial ascent's, operation for
    operation: basis rows do not depend on the batch they are evaluated in,
    and each probe value is a 4-row product and each candidate value a 1-D
    dot product, as when seeds were refined one at a time.
    """
    points = [np.array(p, dtype=float) for p in points]
    values = [float(v) for v in values]
    step = [np.radians(REFINE_STEP_DEGREES)] * len(points)
    live = list(range(len(points)))
    fd = 1e-5
    for _ in range(REFINE_STEPS):
        if not live:
            break
        frames = []
        probes = np.empty((4 * len(live), 3))
        for k, i in enumerate(live):
            point = points[i]
            helper = np.array([1.0, 0.0, 0.0]) if abs(point[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            e1 = _cross3(point, helper)
            e1 /= np.linalg.norm(e1)
            e2 = _cross3(point, e1)
            probes[4 * k : 4 * k + 4] = [
                point + fd * e1, point - fd * e1, point + fd * e2, point - fd * e2
            ]
            frames.append((e1, e2))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probe_basis = basis.evaluate(probes)
        moving, candidates = [], []
        for k, i in enumerate(live):
            vals = probe_basis[4 * k : 4 * k + 4] @ coeff_rows[owners[i]]
            e1, e2 = frames[k]
            grad = (vals[0] - vals[1]) / (2 * fd) * e1 + (vals[2] - vals[3]) / (2 * fd) * e2
            norm = np.linalg.norm(grad)
            if norm < 1e-14:
                continue
            candidate = points[i] + step[i] * (grad / norm)
            candidate /= np.linalg.norm(candidate)
            moving.append(i)
            candidates.append(candidate)
        live = moving
        if not live:
            break
        cand_basis = basis.evaluate(np.asarray(candidates))
        for k, i in enumerate(live):
            cand_value = float(cand_basis[k] @ coeff_rows[owners[i]])
            if cand_value > values[i]:
                points[i], values[i] = candidates[k], cand_value
            else:
                step[i] *= 0.5
    for point in points:
        if point[2] < 0.0 or (point[2] == 0.0 and point[0] < 0.0):
            point *= -1.0
    return points, values


def find_peaks_batch(
    coeff_rows,
    basis: ShBasis,
    grid_size: int = DEFAULT_PEAK_GRID_SIZE,
    relative_threshold: float = DEFAULT_RELATIVE_THRESHOLD,
) -> list[PeakSet]:
    """Peaks of many harmonic expansions, one :class:`PeakSet` per row.

    Same rules as :func:`find_peaks`, applied to each row of `coeff_rows`
    (a sequence of coefficient vectors, or an (N, J) array): the grid
    maxima of every row are found first, then all their seeds are refined
    together (`REFINE_STEPS` ascent steps from `REFINE_STEP_DEGREES`), so a
    batch costs as many basis evaluations as one row. Peaks of a row closer
    than `PEAK_MERGE_DEGREES` keep only the higher one.
    """
    if grid_size < 1:
        raise ValidationError("detection grid must be non-empty")
    if not 0.0 <= relative_threshold <= 1.0:
        raise ValidationError("relative_threshold must lie in [0, 1]")
    rows = [basis.check_coefficients(c, f"coefficient row {r}") for r, c in enumerate(coeff_rows)]
    dirs, neighbors, grid_basis = _detection_setup(grid_size, basis)
    cutoffs, owners, seeds, seed_values = [], [], [], []
    for r, coeffs in enumerate(rows):
        values = grid_basis @ coeffs
        mask = _kernels.local_maxima(values, neighbors)
        order = np.argsort(values[mask])[::-1]
        cutoff = relative_threshold * float(values.max())
        cutoffs.append(cutoff)
        for seed, seed_value in zip(dirs[mask][order], values[mask][order]):
            # grid maxima sit within ~2 degrees of the refined peak, so ascent
            # gains only a few percent; seeds far below threshold cannot recover
            if seed_value <= 0.0 or (cutoff > 0.0 and seed_value < 0.5 * cutoff):
                continue
            owners.append(r)
            seeds.append(seed)
            seed_values.append(seed_value)
    peaks, peak_values = _ascend(rows, owners, seeds, seed_values, basis)
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
            out.append(PeakSet(np.asarray(kept_dirs)[order], vals[order], grid_size))
        else:
            out.append(PeakSet(np.zeros((0, 3)), np.zeros(0), grid_size))
    return out


def find_peaks(
    coeffs,
    basis: ShBasis,
    grid_size: int = DEFAULT_PEAK_GRID_SIZE,
    relative_threshold: float = DEFAULT_RELATIVE_THRESHOLD,
) -> PeakSet:
    """Local maxima of a harmonic expansion, folded over antipodes.

    Grid points strictly greater than their 8 angularly-nearest neighbors
    (antipodal proximity) seed tangent-ascent refinement (`REFINE_STEPS`
    steps, the first `REFINE_STEP_DEGREES` long, halved after each
    rejected step); peaks below `relative_threshold` times the global
    maximum or with non-positive values are discarded, and refined peaks
    closer than `PEAK_MERGE_DEGREES` keep only the higher one. One row of
    :func:`find_peaks_batch`.
    """
    return find_peaks_batch([coeffs], basis, grid_size, relative_threshold)[0]


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
