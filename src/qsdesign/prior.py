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
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ._kernels import basis_dimension, blocks
from .errors import DegeneracyError, ValidationError

SYMMETRY_TOL = 1e-12
ORTHO_TOL = 1e-10
EIGENVALUE_FLOOR_FACTOR = 1e-12

_MAGIC = b"QPFLD001"
# after the magic: J, basis degree, rank-rule kind code, rank-rule value,
# grid shape, voxel count
_HEADER = struct.Struct("<IIId3II")


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
    """Gaussian-process prior on one voxel's coefficient vector.

    `rank_rule` is the rule that truncated the eigenpairs, as recorded by
    `from_moments`, or None for a prior built by hand."""

    mean: np.ndarray  # (J,)
    covariance: np.ndarray  # (J, J)
    eigenvalues: np.ndarray  # (K,) positive, non-increasing
    eigenvectors: np.ndarray  # (J, K) orthonormal columns
    noise_variance: float
    rank_rule: RankRule | None = None

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
        """The prior with this mean and covariance, truncated by `rank_rule`,
        which it records."""
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
            cls(mean, cov, evals, evecs, float(noise_variance), rank_rule)
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
    degree-`max_degree` basis, each truncated by the field's `rank_rule` or
    built by hand (a `VoxelPrior` whose `rank_rule` is None)."""

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
        priors, self.priors = self.priors, {}
        for index, prior in priors.items():
            self.add(index, prior)

    def __len__(self):
        return len(self.priors)

    def _voxel_index(self, index) -> tuple:
        """`index` as a tuple of ints, or ValidationError when it is not a
        voxel of this field."""
        index = tuple(int(i) for i in index)
        if len(index) != 3 or any(i < 0 or i >= s for i, s in zip(index, self.shape)):
            raise ValidationError(f"voxel index {index} outside field shape {self.shape}")
        return index

    def add(self, index, prior: VoxelPrior):
        index = self._voxel_index(index)
        j = basis_dimension(self.max_degree)
        if prior.dimension != j:
            raise ValidationError(
                f"prior dimension {prior.dimension} does not match the degree-{self.max_degree} basis (dimension {j})"
            )
        if prior.rank_rule not in (None, self.rank_rule):
            raise ValidationError(f"prior truncated by {prior.rank_rule}, not by the field's {self.rank_rule}")
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


def _record_fields(j: int) -> list:
    """One voxel's record as `np.dtype` fields, packed and little-endian: its
    index, noise variance, mean and the row-order lower triangle of its
    covariance."""
    return [("index", "<i4", (3,)), ("noise", "<f8", ()), ("mean", "<f8", (j,)), ("tril", "<f8", (j * (j + 1) // 2,))]


def save_prior_field(field_: PriorField, path):
    """Write a field to `path` (binary) and `path + '.json'` (metadata).

    The voxel records are filled and written in `blocks` of J^2 entries a
    voxel, as `load_prior_field` reads them, so the temporaries beyond the
    field stay that size.
    """
    path = str(path)
    order = sorted(field_.priors)
    j = basis_dimension(field_.max_degree) if order else 0
    lower = np.tril_indices(j)
    rank_kind_code = 0 if field_.rank_rule.kind == "fraction" else 1
    header = _HEADER.pack(j, field_.max_degree, rank_kind_code, field_.rank_rule.value, *field_.shape, len(order))
    with open(path, "wb") as fh:
        fh.write(_MAGIC + header)
        for block in blocks(len(order), j * j):
            priors = [field_.priors[index] for index in order[block]]
            records = np.zeros(len(priors), _record_fields(j))
            records["index"] = order[block]
            records["noise"] = [p.noise_variance for p in priors]
            records["mean"] = [p.mean for p in priors]
            records["tril"] = [p.covariance[lower] for p in priors]
            records.tofile(fh)
    sidecar = {
        "format": _MAGIC.decode(),
        "basis_max_degree": field_.max_degree,
        "dimension": j,
        "rank_rule": {"kind": field_.rank_rule.kind, "value": field_.rank_rule.value},
        "grid_shape": list(field_.shape),
        "voxel_count": len(order),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_fits(path, offset: int, sizes, left: int):
    """ValidationError naming the first of the consecutive fields of `sizes`
    bytes, from `offset` on, that the `left` bytes there do not hold."""
    for size in sizes:
        if size > left:
            raise ValidationError(f"{path} is truncated: needs {size} more bytes at offset {offset}, has {left}")
        offset, left = offset + size, left - size


def load_prior_field(path) -> PriorField:
    """Read a field written by :func:`save_prior_field`.

    The file's size is checked against its header, the voxel records are
    read with one `np.fromfile`, and every voxel index is checked before any
    voxel is decomposed. The covariances then go through
    `VoxelPrior.from_moments_batch` in `blocks` of J^2 entries a voxel, so
    the temporaries beyond the records stay that size. Stacked
    `eigh` makes one LAPACK call per matrix, so every voxel gets the bits of
    its own `from_moments` call, whatever the block.
    """
    path = str(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read prior field {path}: {exc}") from exc
    with fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValidationError(f"{path} is not a prior-field file (bad magic {magic!r})")
        size = os.fstat(fh.fileno()).st_size
        _check_fits(path, fh.tell(), [_HEADER.size], size - fh.tell())
        j, max_degree, rank_kind_code, rank_value, sx, sy, sz, count = _HEADER.unpack(fh.read(_HEADER.size))
        if rank_kind_code not in (0, 1):
            raise ValidationError(f"{path} has unknown rank-rule kind code {rank_kind_code}")
        if max_degree % 2 or j != (basis_dimension(max_degree) if count else 0):
            raise ValidationError(f"{path} header is inconsistent: dimension {j}, basis degree {max_degree}")
        rule = RankRule("fraction" if rank_kind_code == 0 else "fixed", rank_value)
        field_ = PriorField((sx, sy, sz), {}, max_degree, rule)
        fields = _record_fields(j)
        sizes = [np.dtype(fmt).itemsize * math.prod(shape) for _, fmt, shape in fields]
        record, body = sum(sizes), size - fh.tell()
        whole = min(count, body // record)  # the records the file holds in full
        if whole < count:
            _check_fits(path, fh.tell() + whole * record, sizes, body - whole * record)
        if body > count * record:
            raise ValidationError(f"{path} has trailing bytes; file is corrupt")
        records = np.fromfile(fh, np.dtype(fields), count)
    order, seen = [tuple(index) for index in records["index"].tolist()], set()
    for index in order:
        if index in seen:
            raise ValidationError(f"{path} repeats voxel {index}")
        seen.add(field_._voxel_index(index))
    lower = np.tril_indices(j)
    for block in blocks(count, j * j):
        covs = np.zeros((len(order[block]), j, j))
        covs[(slice(None), *lower)] = records["tril"][block]
        covs += np.tril(covs, -1).swapaxes(1, 2)
        means = np.array(records["mean"][block], dtype=float)  # copied, so no prior keeps `records` alive
        priors = VoxelPrior.from_moments_batch(means, covs, records["noise"][block].tolist(), rule)
        field_.priors.update(zip(order[block], priors))  # indices checked above
    return field_
