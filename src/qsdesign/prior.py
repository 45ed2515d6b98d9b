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


def truncate_rank(covariance, rank: int | None = None, fraction: float | None = None):
    """Leading eigenpairs of a symmetric PSD matrix, sorted by eigenvalue.

    Exactly one of `rank` (fixed K) or `fraction` (smallest K whose
    eigenvalues explain at least that share of the total variance) must be
    given. Eigenvalues below 1e-12 times the largest are never included.

    Returns
    -------
    (eigenvalues (K,), eigenvectors (J, K)) with orthonormal columns.
    """
    sigma = np.asarray(covariance, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError("covariance must be a square matrix")
    if not np.isfinite(sigma).all():
        raise ValidationError("covariance must be finite")
    if np.abs(sigma - sigma.T).max() > SYMMETRY_TOL * max(1.0, np.abs(sigma).max()):
        raise ValidationError("covariance must be symmetric")
    if (rank is None) == (fraction is None):
        raise ValidationError("give exactly one of rank= or fraction=")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    except np.linalg.LinAlgError as exc:  # e.g. entries spanning hundreds of decades
        raise DegeneracyError(f"covariance eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0.0:
        raise DegeneracyError("covariance has no positive eigenvalue; rank is degenerate")
    usable = evals > EIGENVALUE_FLOOR_FACTOR * evals[0]
    n_usable = int(np.count_nonzero(usable))
    if rank is not None:
        k = int(rank)
        if k < 1 or k > sigma.shape[0]:
            raise ValidationError(f"rank must be in [1, {sigma.shape[0]}]")
        k = min(k, n_usable)
    else:
        total = float(np.sum(np.maximum(evals, 0.0)))
        cum = np.cumsum(np.maximum(evals, 0.0)) / total
        k = int(np.searchsorted(cum, fraction - 1e-12) + 1)
        k = min(k, n_usable)
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
        if rank_rule.kind == "fixed":
            evals, evecs = truncate_rank(covariance, rank=int(rank_rule.value))
        else:
            evals, evecs = truncate_rank(covariance, fraction=float(rank_rule.value))
        return cls(mean, np.asarray(covariance, dtype=float), evals, evecs, float(noise_variance))


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
    """Voxel-indexed collection of priors sharing one basis dimension."""

    shape: tuple
    priors: dict = field(default_factory=dict)  # (i, j, k) -> VoxelPrior
    max_degree: int = 8
    rank_rule: RankRule = DEFAULT_RANK_RULE

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValidationError("field shape must be three positive integers")
        dims = {p.dimension for p in self.priors.values()}
        if len(dims) > 1:
            raise ValidationError("all priors in a field must share one dimension")

    def __len__(self):
        return len(self.priors)

    def add(self, index, prior: VoxelPrior):
        index = tuple(int(i) for i in index)
        if len(index) != 3 or any(i < 0 or i >= s for i, s in zip(index, self.shape)):
            raise ValidationError(f"voxel index {index} outside field shape {self.shape}")
        if self.priors and prior.dimension != next(iter(self.priors.values())).dimension:
            raise ValidationError("prior dimension differs from the field's")
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
    """Read a field written by :func:`save_prior_field`."""
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
        for _ in range(count):
            index = struct.unpack("<3i", _read_exact(fh, 12, path))
            if index in field_.priors:
                raise ValidationError(f"{path} repeats voxel {index}")
            (sigma2,) = struct.unpack("<d", _read_exact(fh, 8, path))
            mean = np.frombuffer(_read_exact(fh, 8 * j, path), dtype="<f8").copy()
            tril = np.frombuffer(_read_exact(fh, 8 * ntri, path), dtype="<f8")
            cov = np.zeros((j, j))
            cov[np.tril_indices(j)] = tril
            cov = cov + np.tril(cov, -1).T
            field_.add(index, VoxelPrior.from_moments(mean, cov, sigma2, rule))
        extra = fh.read(1)
        if extra:
            raise ValidationError(f"{path} has trailing bytes; file is corrupt")
    return field_
