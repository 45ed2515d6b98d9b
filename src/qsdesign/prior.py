"""Per-voxel Gaussian-process priors over basis coefficients.

A prior is an empirical mean vector and coefficient covariance estimated
from a population of dense fits, truncated to its leading eigen-structure.
Fields of priors over a voxel grid interpolate to arbitrary continuous
coordinates: means combine linearly, covariances combine as a weighted
Karcher mean under the log-Euclidean metric (which keeps determinants from
swelling), and the eigen-truncation is recomputed afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ._kernels import basis_dimension
from .errors import DegeneracyError, ValidationError

SYMMETRY_TOL = 1e-12
ORTHO_TOL = 1e-10
EIGENVALUE_FLOOR_FACTOR = 1e-12

_MAGIC = b"QPFLD001"
# `load_prior_field` decomposes its voxels in blocks of at most this many
# covariance entries (512 kB): 32 voxels a block at degree 8. Measured with
# tracemalloc on the 216-voxel perfbench field: the load's peak went from
# 12.5 MB in one piece to 6.9 MB, 4.3 MB of it the priors it returns; at 4096
# voxels from 238 MB to 118 MB, 81 MB of it the priors and 35 MB the file.
_LOAD_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RankRule:
    """How to pick the truncation rank: fixed count or explained-variance share."""

    kind: str  # "fixed" | "fraction"
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed", "fraction"):
            raise ValidationError(f"rank rule kind must be 'fixed' or 'fraction', got {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValidationError(f"rank rule value must be finite, got {self.value!r}")
        if self.kind == "fixed":
            if int(self.value) != self.value or self.value < 1:
                raise ValidationError("fixed rank must be a positive integer")
            object.__setattr__(self, "value", int(self.value))
        else:
            if not 0.0 < self.value <= 1.0:
                raise ValidationError("variance fraction must lie in (0, 1]")
            object.__setattr__(self, "value", float(self.value))


DEFAULT_RANK_RULE = RankRule("fraction", 0.90)


def empirical_moments(coeff_rows):
    """Sample mean and unbiased covariance of coefficient vectors.

    Parameters
    ----------
    coeff_rows : array_like, shape (n, J)
        One fitted coefficient vector per subject, n >= 2.

    Returns
    -------
    (mean (J,), covariance (J, J))
    """
    rows = np.asarray(coeff_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValidationError("need at least two coefficient vectors of equal length")
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (rows.shape[0] - 1)
    return mean, 0.5 * (cov + cov.T)


def truncate_rank(covariance, rule: RankRule):
    """Leading eigenpairs of a symmetric PSD matrix, sorted by eigenvalue.

    A "fixed" rule keeps K = its value; a "fraction" rule keeps the smallest
    K whose eigenvalues explain at least that share of the total variance.
    Eigenvalues below 1e-12 times the largest are never included.

    Returns
    -------
    (eigenvalues (K,), eigenvectors (J, K)) with orthonormal columns.
    """
    return _truncate_ranks(np.asarray(covariance, dtype=float)[None], rule)[0]


def _truncate_ranks(covariances, rule: RankRule) -> list:
    """`truncate_rank` of every matrix of an (N, J, J) stack.

    The finiteness and symmetry checks run once on the stack, and one
    stacked `eigh` gives each matrix the bits of its own call; the rank
    rule then runs matrix by matrix.
    """
    sigma = np.asarray(covariances, dtype=float)
    if sigma.ndim != 3 or sigma.shape[1] != sigma.shape[2]:
        raise ValidationError("covariance must be a square matrix")
    if not np.isfinite(sigma).all():
        raise ValidationError("covariance must be finite")
    sigma_t = sigma.swapaxes(1, 2)
    scale = SYMMETRY_TOL * np.maximum(1.0, np.abs(sigma).max(axis=(1, 2)))
    if np.any(np.abs(sigma - sigma_t).max(axis=(1, 2)) > scale):
        raise ValidationError("covariance must be symmetric")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (sigma + sigma_t))
    except np.linalg.LinAlgError as exc:  # e.g. entries spanning hundreds of decades
        raise DegeneracyError(f"covariance eigendecomposition failed: {exc}") from exc
    return [_leading_eigenpairs(*pair, rule) for pair in zip(evals, evecs)]


def _leading_eigenpairs(evals, evecs, rule: RankRule):
    """The rank rule of `truncate_rank` on one matrix's ascending eigenpairs."""
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0.0:
        raise DegeneracyError("covariance has no positive eigenvalue; rank is degenerate")
    usable = evals > EIGENVALUE_FLOOR_FACTOR * evals[0]
    if rule.kind == "fixed":
        k = rule.value
        if k > evals.shape[0]:
            raise ValidationError(f"rank must be in [1, {evals.shape[0]}]")
    else:
        total = float(np.sum(np.maximum(evals, 0.0)))
        cum = np.cumsum(np.maximum(evals, 0.0)) / total
        k = int(np.searchsorted(cum, rule.value - 1e-12) + 1)
    k = min(k, int(np.count_nonzero(usable)))
    return evals[:k].copy(), evecs[:, :k].copy()


@dataclass(frozen=True)
class VoxelPrior:
    """Gaussian-process prior on one voxel's coefficient vector."""

    mean: np.ndarray  # (J,)
    covariance: np.ndarray  # (J, J)
    eigenvalues: np.ndarray  # (K,) positive, non-increasing
    eigenvectors: np.ndarray  # (J, K) orthonormal columns
    noise_variance: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        evals = np.asarray(self.eigenvalues, dtype=float)
        evecs = np.asarray(self.eigenvectors, dtype=float)
        j = mean.shape[0]
        if cov.shape != (j, j):
            raise ValidationError("covariance shape does not match the mean length")
        if not all(np.isfinite(a).all() for a in (mean, cov, evals, evecs)):
            raise ValidationError("prior mean, covariance and eigenpairs must be finite")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL * max(1.0, np.abs(cov).max()):
            raise ValidationError("covariance must be symmetric")
        if evals.ndim != 1 or evals.size < 1 or np.any(evals <= 0.0):
            raise ValidationError("eigenvalues must be strictly positive")
        if np.any(np.diff(evals) > 0.0):
            raise ValidationError("eigenvalues must be non-increasing")
        if evecs.shape != (j, evals.size):
            raise ValidationError("eigenvector matrix shape mismatch")
        gram = evecs.T @ evecs
        if np.abs(gram - np.eye(evals.size)).max() > ORTHO_TOL:
            raise ValidationError("eigenvector columns must be orthonormal")
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValidationError(f"noise variance must be finite and positive, got {self.noise_variance!r}")
        object.__setattr__(self, "mean", mean)
        # exact symmetrization (idempotent) so the lower triangle determines
        # the matrix bitwise, which serialization relies on
        object.__setattr__(self, "covariance", 0.5 * (cov + cov.T))
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @functools.cached_property
    def log_covariance(self) -> np.ndarray:
        """Matrix log of the (regularized) covariance, computed on first use
        and kept, read-only, because every interpolation query touching this
        voxel blends the same log."""
        out = spd_log(regularize_spd(self.covariance))
        out.setflags(write=False)
        return out

    @classmethod
    def from_moments(cls, mean, covariance, noise_variance, rank_rule: RankRule = DEFAULT_RANK_RULE):
        """The prior with this mean and covariance, truncated by `rank_rule`."""
        covariances = np.asarray(covariance, dtype=float)[None]
        return cls.from_moments_batch([mean], covariances, [noise_variance], rank_rule)[0]

    @classmethod
    def from_moments_batch(cls, means, covariances, noise_variances, rank_rule: RankRule = DEFAULT_RANK_RULE):
        """`from_moments` of every voxel: one mean, one (J, J) covariance of
        the (N, J, J) stack and one noise variance each. The covariances are
        checked and decomposed as one stack; each prior then goes through the
        rank rule and its own checks, with the bits of its own call."""
        covariances = np.asarray(covariances, dtype=float)
        pairs = _truncate_ranks(covariances, rank_rule)
        return [
            cls(mean, cov, evals, evecs, float(noise_variance))
            for mean, cov, (evals, evecs), noise_variance in zip(
                means, covariances, pairs, noise_variances, strict=True
            )
        ]


def spd_log(matrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix via its eigendecomposition."""
    m = np.asarray(matrix, dtype=float)
    if np.abs(m - m.T).max() > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
        raise ValidationError("matrix must be symmetric")
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    if evals.min() <= 0.0:
        raise DegeneracyError(
            f"matrix is not SPD (min eigenvalue {evals.min():.3e}); "
            "regularize with +eps*I, eps = 1e-10*trace/J, before taking the log"
        )
    out = (evecs * np.log(evals)) @ evecs.T
    return 0.5 * (out + out.T)


def spd_exp(matrix) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via its eigendecomposition."""
    m = np.asarray(matrix, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    out = (evecs * np.exp(evals)) @ evecs.T
    return 0.5 * (out + out.T)


def regularize_spd(matrix) -> np.ndarray:
    """Add eps*I (eps = 1e-10*trace/J) when the smallest eigenvalue is <= 0."""
    m = np.asarray(matrix, dtype=float)
    evals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if evals.min() > 0.0:
        return m
    eps = 1e-10 * np.trace(m) / m.shape[0]
    if eps <= 0.0:
        raise DegeneracyError("matrix trace is non-positive; cannot regularize to SPD")
    return m + (eps - min(evals.min(), 0.0)) * np.eye(m.shape[0])


def log_euclidean_mean(matrices, weights) -> np.ndarray:
    """Weighted Karcher mean of SPD matrices under the log-Euclidean metric.

    Closed form: exp(sum_i w_i log(M_i)). The determinant of the result is
    the weighted geometric mean of the input determinants, so averaging
    never inflates the overall variance volume.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    w = np.asarray(weights, dtype=float)
    if len(mats) < 1 or w.shape != (len(mats),):
        raise ValidationError("need one weight per matrix and at least one matrix")
    if np.any(w <= 0.0):
        raise ValidationError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValidationError("weights must sum to 1")
    return _blend_logs([spd_log(m) for m in mats], w)


def _blend_logs(logs, weights) -> np.ndarray:
    """exp(sum_i w_i L_i) of symmetric matrix logs L_i, accumulated in order."""
    acc = np.zeros_like(logs[0])
    for wi, log in zip(weights, logs):
        acc += wi * log
    return spd_exp(acc)


@dataclass
class PriorField:
    """Voxel-indexed collection of priors whose dimension is that of the
    degree-`max_degree` basis."""

    shape: tuple
    priors: dict = field(default_factory=dict)  # (i, j, k) -> VoxelPrior
    max_degree: int = 8
    rank_rule: RankRule = DEFAULT_RANK_RULE

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValidationError("field shape must be three positive integers")
        if self.max_degree < 0 or self.max_degree % 2:
            raise ValidationError(f"field basis degree must be even and non-negative, got {self.max_degree}")
        for prior in self.priors.values():
            self._check_dimension(prior)

    def __len__(self):
        return len(self.priors)

    def _check_dimension(self, prior: VoxelPrior):
        j = basis_dimension(self.max_degree)
        if prior.dimension != j:
            raise ValidationError(
                f"prior dimension {prior.dimension} does not match the degree-{self.max_degree} basis (dimension {j})"
            )

    def add(self, index, prior: VoxelPrior):
        index = tuple(int(i) for i in index)
        if len(index) != 3 or any(i < 0 or i >= s for i, s in zip(index, self.shape)):
            raise ValidationError(f"voxel index {index} outside field shape {self.shape}")
        self._check_dimension(prior)
        self.priors[index] = prior


def _trilinear_weights(query, shape):
    q = np.asarray(query, dtype=float)
    if q.shape != (3,):
        raise ValidationError("query must be a 3-vector of continuous voxel coordinates")
    if not np.isfinite(q).all():
        raise ValidationError(f"query {q.tolist()} is not finite")
    hi = np.asarray(shape, dtype=float) - 1.0
    if np.any(q < -1e-12) or np.any(q > hi + 1e-12):
        raise ValidationError(f"query {tuple(q)} outside field bounding box {tuple(int(h) for h in hi)}")
    q = np.clip(q, 0.0, hi)
    base = np.minimum(np.floor(q).astype(int), np.maximum(hi.astype(int) - 1, 0))
    frac = q - base
    out = []
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = (
                    (frac[0] if di else 1.0 - frac[0])
                    * (frac[1] if dj else 1.0 - frac[1])
                    * (frac[2] if dk else 1.0 - frac[2])
                )
                if w > 1e-12:
                    out.append(((int(base[0]) + di, int(base[1]) + dj, int(base[2]) + dk), w))
    total = sum(w for _, w in out)
    return [(idx, w / total) for idx, w in out]


def interpolate_prior(field: PriorField, query) -> VoxelPrior:
    """Prior at a continuous coordinate inside the field's bounding box.

    Means interpolate trilinearly; covariances combine as a log-Euclidean
    Karcher mean of each corner's cached `log_covariance` with the same
    trilinear weights (zero-weight corners are dropped); the eigen-truncation
    is recomputed on the blended covariance with the field's rank rule. A
    query exactly on a grid point returns that voxel's stored prior.
    """
    contributions = _trilinear_weights(query, field.shape)
    missing = [idx for idx, _ in contributions if idx not in field.priors]
    if missing:
        raise ValidationError(f"incomplete neighborhood: missing voxel priors at {missing}")
    items = [(field.priors[idx], w) for idx, w in contributions]
    if len(items) == 1:
        return items[0][0]
    weights = np.array([w for _, w in items])
    mean = sum(w * p.mean for p, w in items)
    cov = _blend_logs([p.log_covariance for p, _ in items], weights)
    sigma2 = float(sum(w * p.noise_variance for p, w in items))
    return VoxelPrior.from_moments(mean, cov, sigma2, field.rank_rule)


# ---------------------------------------------------------------------------
# serialization: binary payload + JSON sidecar, bit-exact round trip


def save_prior_field(field_: PriorField, path):
    """Write a field to `path` (binary) and `path + '.json'` (metadata)."""
    path = str(path)
    j = next(iter(field_.priors.values())).dimension if field_.priors else 0
    ntri = j * (j + 1) // 2
    rank_kind_code = 0 if field_.rank_rule.kind == "fraction" else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IIId3II",
                j,
                field_.max_degree,
                rank_kind_code,
                float(field_.rank_rule.value),
                *field_.shape,
                len(field_.priors),
            )
        )
        for index in sorted(field_.priors):
            prior = field_.priors[index]
            fh.write(struct.pack("<3i", *index))
            fh.write(struct.pack("<d", prior.noise_variance))
            fh.write(np.ascontiguousarray(prior.mean, dtype="<f8").tobytes())
            tril = prior.covariance[np.tril_indices(j)]
            assert tril.size == ntri
            fh.write(np.ascontiguousarray(tril, dtype="<f8").tobytes())
    sidecar = {
        "format": _MAGIC.decode(),
        "basis_max_degree": field_.max_degree,
        "dimension": j,
        "rank_rule": {"kind": field_.rank_rule.kind, "value": field_.rank_rule.value},
        "grid_shape": list(field_.shape),
        "voxel_count": len(field_.priors),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_exact(fh, n: int, path) -> bytes:
    """Read exactly `n` bytes, or raise ValidationError naming the file.

    The size is checked against what is left of the file before reading, so
    a corrupt header cannot ask for more memory than the file holds.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValidationError(
            f"{path} is truncated: needs {n} more bytes at offset {fh.tell()}, has {left}"
        )
    return fh.read(n)


def load_prior_field(path) -> PriorField:
    """Read a field written by :func:`save_prior_field`.

    The whole file is read and its structure checked before any voxel is
    decomposed, with the covariance triangles in one (count, J(J+1)/2)
    array. The covariances are then built and sent through
    `VoxelPrior.from_moments_batch` in voxel blocks of at most
    `_LOAD_BLOCK_ENTRIES` covariance entries, so the load's temporaries
    beyond the file's own bytes stay that size whatever the voxel count.
    Stacked `eigh` makes one LAPACK call per matrix, so every voxel gets the
    bits of its own `from_moments` call, whatever the block.
    """
    path = str(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read prior field {path}: {exc}") from exc
    with fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValidationError(f"{path} is not a prior-field file (bad magic {magic!r})")
        j, max_degree, rank_kind_code, rank_value, sx, sy, sz, count = struct.unpack(
            "<IIId3II", _read_exact(fh, struct.calcsize("<IIId3II"), path)
        )
        if rank_kind_code not in (0, 1):
            raise ValidationError(f"{path} has unknown rank-rule kind code {rank_kind_code}")
        if max_degree % 2 or (count and j != basis_dimension(max_degree)):
            raise ValidationError(f"{path} header is inconsistent: dimension {j}, basis degree {max_degree}")
        rule = RankRule("fraction" if rank_kind_code == 0 else "fixed", rank_value)
        field_ = PriorField((sx, sy, sz), {}, max_degree, rule)
        ntri = j * (j + 1) // 2
        # only whole records land in `trils`, so its size is bounded by the file's
        rows = min(count, (os.fstat(fh.fileno()).st_size - fh.tell()) // (20 + 8 * j + 8 * ntri))
        trils = bytearray(rows * 8 * ntri)
        indices, sigma2s, means = {}, [], []  # indices: voxel index -> its place in the file
        for v in range(count):
            index = struct.unpack("<3i", _read_exact(fh, 12, path))
            if index in indices:
                raise ValidationError(f"{path} repeats voxel {index}")
            indices[index] = v
            sigma2s.append(struct.unpack("<d", _read_exact(fh, 8, path))[0])
            means.append(np.frombuffer(_read_exact(fh, 8 * j, path), dtype="<f8").copy())
            trils[8 * ntri * v : 8 * ntri * (v + 1)] = _read_exact(fh, 8 * ntri, path)
        extra = fh.read(1)
        if extra:
            raise ValidationError(f"{path} has trailing bytes; file is corrupt")
    if not count:
        return field_
    trils = np.frombuffer(trils, dtype="<f8").reshape(count, ntri)
    order, lower = list(indices), np.tril_indices(j)
    step = max(1, _LOAD_BLOCK_ENTRIES // (j * j))
    for start in range(0, count, step):
        block = slice(start, min(start + step, count))
        covs = np.zeros((block.stop - start, j, j))
        covs[(slice(None), *lower)] = trils[block]
        covs += np.tril(covs, -1).swapaxes(1, 2)
        priors = VoxelPrior.from_moments_batch(means[block], covs, sigma2s[block], rule)
        for index, prior in zip(order[block], priors):
            field_.add(index, prior)
    return field_
