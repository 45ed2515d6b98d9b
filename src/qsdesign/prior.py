"""Per-voxel Gaussian-process priors over basis coefficients.

A prior is an empirical mean vector and coefficient covariance estimated
from a population of dense fits, truncated to its leading eigen-structure.
Fields of priors over a voxel grid interpolate to arbitrary continuous
coordinates: means combine linearly, covariances combine as a weighted
Karcher mean under the log-Euclidean metric (which keeps determinants from
swelling), and the eigen-truncation is recomputed afterwards.

Design reads only the eigen form of its priors, stacked: `load_eigen_stack`
reads a `.qpf` straight into one `EigenStack` of zero-padded eigenpairs and
noise variances, with no per-voxel prior and no covariance.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import InitVar, dataclass, field

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
_RECORDS_OFFSET = len(_MAGIC) + _HEADER.size


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
    evals, evecs, ranks, _ = _truncate_ranks(np.asarray(covariance, dtype=float)[None], rule)
    return evals[0, : ranks[0]].copy(), evecs[0, :, : ranks[0]].copy()


def _truncate_ranks(covariances, rule: RankRule):
    """`truncate_rank` of every matrix of an (N, J, J) stack, as stacks.

    The finiteness and symmetry checks run once on the stack, and one
    stacked `eigh` gives each matrix the bits of its own call; the rank
    rule then runs on the whole stack. Returns the leading K eigenvalues of
    every matrix (N, K), non-increasing, and their eigenvectors (N, J, K),
    with K the largest rank, then every matrix's rank (N,) and the sum of
    its non-negative eigenvalues (N,).
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
    return _truncate_eigenpairs(evals, evecs, rule)


def _truncate_eigenpairs(evals, evecs, rule: RankRule):
    """`_truncate_ranks` of N matrices from their `eigh` eigenvalues (N, J)
    and eigenvectors (N, J, J), in any order."""
    order = np.argsort(evals, axis=1)[:, ::-1]
    evals = np.take_along_axis(evals, order, 1)
    j = evals.shape[1]
    # each matrix's checks in turn: the first one's degeneracy, then the rule's rank, then the others'
    degenerate, too_many = evals[:, 0] <= 0.0, rule.kind == "fixed" and rule.value > j
    if degenerate.any() and (degenerate[0] or not too_many):
        raise DegeneracyError("covariance has no positive eigenvalue; rank is degenerate")
    if too_many:
        raise ValidationError(f"rank must be in [1, {j}]")
    usable = np.count_nonzero(evals > EIGENVALUE_FLOOR_FACTOR * evals[:, :1], axis=1)
    spectrum = np.maximum(evals, 0.0)
    totals = np.sum(spectrum, axis=1)
    if rule.kind == "fixed":
        ranks = np.full(len(evals), rule.value)
    else:  # a row is non-decreasing, so its count below the share is the first index at or above it
        ranks = np.count_nonzero(np.cumsum(spectrum, axis=1) / totals[:, None] < rule.value - 1e-12, axis=1) + 1
    ranks = np.minimum(ranks, usable)
    kmax = int(ranks.max(initial=0))
    return evals[:, :kmax], np.take_along_axis(evecs, order[:, None, :kmax], 2), ranks, totals


def _check_eigen_form(means, eigenvalues, eigenvectors, noise_variances, ranks):
    """The eigen-form checks of B priors, prior by prior in `VoxelPrior`'s
    order: ValidationError with the message of the first check that the
    first failing prior fails. Prior b holds the leading `ranks[b]`
    eigenpairs of its row of `eigenvalues` (B, K) and `eigenvectors`
    (B, J, K); `noise_variances` is a sequence of B numbers."""
    kept = np.arange(eigenvalues.shape[1]) < np.asarray(ranks)[:, None]
    evals, evecs = np.where(kept, eigenvalues, 0.0), np.where(kept[:, None, :], eigenvectors, 0.0)
    noise = np.asarray(noise_variances, dtype=float)
    gram = evecs.transpose(0, 2, 1) @ evecs
    checks = (
        (np.isfinite(means).all(axis=1) & np.isfinite(evals).all(axis=1) & np.isfinite(evecs).all(axis=(1, 2)),
         "prior mean, covariance and eigenpairs must be finite"),
        (~((evals <= 0.0) & kept).any(axis=1), "eigenvalues must be strictly positive"),
        (~((np.diff(evals, axis=1) > 0.0) & kept[:, 1:]).any(axis=1), "eigenvalues must be non-increasing"),
        (np.abs(gram - kept[:, :, None] * np.eye(kept.shape[1])).max(axis=(1, 2)) <= ORTHO_TOL,
         "eigenvector columns must be orthonormal"),
        (np.isfinite(noise) & (noise > 0.0), "noise variance must be finite and positive, got {!r}"),
    )
    passed = np.array([ok for ok, _ in checks])
    if not passed.all():
        first = int(np.flatnonzero(~passed.all(axis=0))[0])
        message = next(message for ok, message in checks if not ok[first])
        raise ValidationError(message.format(noise_variances[first]))


@dataclass(frozen=True)
class VoxelPrior:
    """Gaussian-process prior on one voxel's coefficient vector.

    The constructor takes the (J, J) covariance and keeps its lower
    triangle, `covariance_tril`, packed in `np.tril_indices(J)` row order:
    the `tril` field of a `.qpf` record. `covariance` rebuilds the symmetric
    matrix, a new array at each read.

    `rank_rule` and `spectrum_total` are the rule that truncated the
    eigenpairs and the sum of the non-negative eigenvalues it truncated, or
    None for a prior built by hand. `interpolate_prior`'s eigenpairs come
    from the blended log, not from `covariance`, so may differ in last bits."""

    mean: np.ndarray  # (J,)
    covariance: InitVar[np.ndarray]  # (J, J)
    eigenvalues: np.ndarray  # (K,) positive, non-increasing
    eigenvectors: np.ndarray  # (J, K) orthonormal columns
    noise_variance: float
    rank_rule: RankRule | None = None
    spectrum_total: float | None = None
    covariance_tril: np.ndarray = field(init=False)  # (J (J + 1) / 2,)

    def __post_init__(self, covariance):
        mean, cov, evals, evecs = (
            np.asarray(a, dtype=float) for a in (self.mean, covariance, self.eigenvalues, self.eigenvectors)
        )
        j = mean.shape[0]
        if cov.shape != (j, j):
            raise ValidationError("covariance shape does not match the mean length")
        if not np.isfinite(cov).all():
            raise ValidationError("prior mean, covariance and eigenpairs must be finite")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL * max(1.0, np.abs(cov).max()):
            raise ValidationError("covariance must be symmetric")
        if evals.ndim != 1 or evals.size < 1:
            raise ValidationError("eigenvalues must be strictly positive")
        if evecs.shape != (j, evals.size):
            raise ValidationError("eigenvector matrix shape mismatch")
        _check_eigen_form(mean[None], evals[None], evecs[None], [self.noise_variance], [evals.size])
        object.__setattr__(self, "mean", mean)
        # exact symmetrization (idempotent), so the lower triangle determines
        # the matrix bitwise
        object.__setattr__(self, "covariance_tril", (0.5 * (cov + cov.T))[_tril_indices(j)])
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
        covariance = np.asarray(covariance, dtype=float)
        evals, evecs, ranks, totals = _truncate_ranks(covariance[None], rank_rule)
        k = ranks[0]
        return cls(mean, covariance, evals[0, :k].copy(), evecs[0, :, :k].copy(), float(noise_variance), rank_rule,
                   float(totals[0]))


def _covariance(prior: VoxelPrior) -> np.ndarray:
    """The symmetric (J, J) covariance, rebuilt from `covariance_tril`: a new
    array at each read, bitwise the matrix the constructor symmetrized."""
    j = prior.dimension
    rows, cols = _tril_indices(j)
    cov = np.empty((j, j))
    cov[cols, rows] = cov[rows, cols] = prior.covariance_tril
    return cov


# set after the class body, where `covariance` names the constructor's InitVar
VoxelPrior.covariance = property(_covariance, doc=_covariance.__doc__)


@functools.cache
def _tril_indices(j: int):
    """`np.tril_indices(j)`, the row order of a packed lower triangle, read-only."""
    rows, cols = np.tril_indices(j)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class EigenStack:
    """The eigen form of V voxel priors, stacked, which is all design reads.

    Row v holds voxel v's eigenvalues, `eigenvalues` (V, K), and
    eigenvectors, `eigenvectors` (V, J, K), zero-padded from its rank to the
    largest rank K, and its noise variance, `noise_variances` (V, 1). A
    voxel's rank is its count of positive eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    noise_variances: np.ndarray

    @classmethod
    def of(cls, prior: VoxelPrior) -> EigenStack:
        """The one-voxel stack of `prior`, which shares its eigenpairs."""
        return cls(prior.eigenvalues[None], prior.eigenvectors[None], np.array([[prior.noise_variance]]))

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def ranks(self) -> np.ndarray:
        return np.count_nonzero(self.eigenvalues > 0.0, axis=1)


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


@dataclass
class PriorField:
    """Voxel-indexed collection of priors whose dimension is that of the
    degree-`max_degree` basis, each truncated by the field's own
    `rank_rule`: a saved field stores covariances, which reload truncated by
    that rule, so a prior built by hand (`rank_rule` None) is rejected."""

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
        if prior.rank_rule != self.rank_rule:
            made = "built by hand" if prior.rank_rule is None else f"truncated by {prior.rank_rule}"
            raise ValidationError(f"prior {made}, not by the field's {self.rank_rule}")
        self.priors[index] = prior


def _trilinear_weights(query, shape):
    q = np.asarray(query, dtype=float)
    if q.shape != (3,):
        raise ValidationError("query must be a 3-vector of continuous voxel coordinates")
    if not np.isfinite(q).all():
        raise ValidationError(f"query {q.tolist()} is not finite")
    hi = np.asarray(shape, dtype=float) - 1.0
    if np.any(q < -1e-12) or np.any(q > hi + 1e-12):
        raise ValidationError(f"query {q.tolist()} outside field bounding box {tuple(int(h) for h in hi)}")
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


def corner_weights(field: PriorField, query) -> list:
    """The (voxel index, weight) pairs `interpolate_prior` blends at `query`,
    once the query lies in the field's bounding box and every corner of
    nonzero weight holds a prior; ValidationError otherwise."""
    contributions = _trilinear_weights(query, field.shape)
    missing = [idx for idx, _ in contributions if idx not in field.priors]
    if missing:
        raise ValidationError(f"incomplete neighborhood: missing voxel priors at {missing}")
    return contributions


def interpolate_prior(field: PriorField, query) -> VoxelPrior:
    """Prior at a continuous coordinate inside the field's bounding box.

    Means interpolate trilinearly; covariances as a log-Euclidean Karcher
    mean of the corners' cached `log_covariance` (zero-weight corners
    dropped). One `eigh` of the blended log L = V diag(lam) V' gives the
    covariance V exp(lam) V' and the eigenpairs the rank rule truncates. A
    query exactly on a grid point returns that voxel's stored prior.
    """
    items = [(field.priors[idx], w) for idx, w in corner_weights(field, query)]
    if len(items) == 1:
        return items[0][0]
    mean = sum(w * p.mean for p, w in items)
    log = sum(w * p.log_covariance for p, w in items)
    evals, evecs = np.linalg.eigh(0.5 * (log + log.T))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
        spectrum = np.exp(evals)
        cov = (evecs * spectrum) @ evecs.T
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise ValidationError("covariance must be finite")
    evals, evecs, _, totals = _truncate_eigenpairs(spectrum[None], evecs[None], field.rank_rule)  # K is its rank
    sigma2 = float(sum(w * p.noise_variance for p, w in items))
    return VoxelPrior(mean, cov, evals[0], evecs[0], sigma2, field.rank_rule, float(totals[0]))


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
            records["tril"] = [p.covariance_tril for p in priors]
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


def field_header(path):
    """The empty field, dimension J and voxel count that a file written by
    :func:`save_prior_field` declares, once its size matches its header."""
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
    record, body = sum(sizes), size - _RECORDS_OFFSET
    whole = min(count, body // record)  # the records the file holds in full
    if whole < count:
        _check_fits(path, _RECORDS_OFFSET + whole * record, sizes, body - whole * record)
    if body > count * record:
        raise ValidationError(f"{path} has trailing bytes; file is corrupt")
    return field_, j, count


def _sorted_order(path, indices, shape) -> np.ndarray:
    """The order that sorts the (V, 3) voxel `indices` of `path`, once every
    index lies inside `shape` and none repeats; ValidationError naming the
    first index in file order that does not."""
    outside = ((indices < 0) | (indices >= np.array(shape))).any(axis=1)
    order = np.lexsort(indices.T[::-1])  # stable: a repeat sorts after its first occurrence
    repeat = np.zeros(len(indices), dtype=bool)
    repeat[order[1:]] = (indices[order[1:]] == indices[order[:-1]]).all(axis=1)
    bad = np.flatnonzero(outside | repeat)
    if bad.size:  # a repeat's first occurrence lies inside, or it would fail first
        index = tuple(indices[bad[0]].tolist())
        if repeat[bad[0]]:
            raise ValidationError(f"{path} repeats voxel {index}")
        raise ValidationError(f"voxel index {index} outside field shape {tuple(shape)}")
    return order


def _field_blocks(path, voxel=None):
    """What both readers read of a file written by :func:`save_prior_field`:
    the empty field its header declares, its voxel indices (V, 3) in file
    order, the order that sorts them, and an iterator over its voxel blocks.

    The records are read in `blocks` of J^2 entries a voxel, so they are
    never held whole: once for the indices, which are all checked here with
    every record's covariance, mean and noise variance, before any voxel is
    decomposed, then a block at each step of the iterator, which yields the
    block's slice, records, covariances and their `_truncate_ranks`.
    Stacked `eigh` makes one LAPACK call per matrix, so each voxel has the
    bits of its own `VoxelPrior.from_moments` whatever the block. A reader
    drops a block before it takes the next one. With `voxel`, the position
    in index order or the index (i, j, k) of one voxel, the order holds that
    voxel alone and the iterator yields its record alone.
    """
    path = str(path)
    field_, j, count = field_header(path)
    dtype, parts = np.dtype(_record_fields(j)), blocks(count, j * j)

    def read(block):
        offset = _RECORDS_OFFSET + block.start * dtype.itemsize
        return np.fromfile(path, dtype, min(block.stop, count) - block.start, offset=offset)

    def checked_indices(block):  # the record checks `VoxelPrior` makes first, with its messages
        records = read(block)
        if not np.isfinite(records["tril"]).all():
            raise ValidationError("covariance must be finite")
        finite, noise = np.isfinite(records["mean"]).all(axis=1), records["noise"]
        bad = np.flatnonzero(~finite | ~(np.isfinite(noise) & (noise > 0.0)))
        if bad.size and not finite[bad[0]]:
            raise ValidationError("prior mean, covariance and eigenpairs must be finite")
        if bad.size:
            raise ValidationError(f"noise variance must be finite and positive, got {float(noise[bad[0]])!r}")
        return records["index"].copy()

    indices = np.concatenate([checked_indices(block) for block in parts] or [np.empty((0, 3), dtype=int)])
    order = _sorted_order(path, indices, field_.shape)
    if isinstance(voxel, tuple):
        # an index outside the field is in no row, and may not fit the rows' integers
        inside = all(0 <= i < s for i, s in zip(voxel, field_.shape))
        hits = np.flatnonzero((indices[order] == voxel).all(axis=1)) if inside else []
        if not len(hits):
            raise ValidationError(f"voxel {voxel} not present in the field")
        voxel = int(hits[0])
    if voxel is not None:
        order = order[voxel : voxel + 1]
        parts = [slice(order[0], order[0] + 1)]
    rows, cols = _tril_indices(j)

    def decomposed(block):
        records = read(block)
        covs = np.empty((len(records), j, j))
        covs[:, cols, rows] = covs[:, rows, cols] = records["tril"]
        return block, records, covs, _truncate_ranks(covs, field_.rank_rule)

    return field_, indices, order, map(decomposed, parts)


def load_prior_field(path) -> PriorField:
    """Read a field written by :func:`save_prior_field`, in `_field_blocks`:
    every voxel's prior, with the bits of its record's own
    `VoxelPrior.from_moments`, in file order."""
    field_, indices, _, parts = _field_blocks(path)
    keys = list(map(tuple, indices.tolist()))
    for block, records, covs, (evals, evecs, ranks, totals) in parts:
        means = np.array(records["mean"], dtype=float)  # copied, so no prior keeps `records` alive
        field_.priors.update(
            (index, VoxelPrior(mean, cov, values[:k].copy(), vectors[:, :k].copy(), noise, field_.rank_rule, total))
            for index, mean, cov, values, vectors, k, total, noise in zip(
                keys[block], means, covs, evals, evecs, ranks.tolist(), totals.tolist(), records["noise"].tolist(),
                strict=True,
            )
        )
        del records, covs
    return field_


def load_eigen_stack(path, voxel=None):
    """Read the eigen form of a field written by :func:`save_prior_field`,
    which is all design reads: the empty field its header declares, its
    voxel indices (V, 3) in sorted order and their `EigenStack`. With
    `voxel`, the position in index order or the index (i, j, k) of one
    voxel, only that voxel's record is decoded, and the stack holds it
    alone, unpadded: the stack `EigenStack.of` its prior.

    It reads through `_field_blocks`, as `load_prior_field` does, so each
    voxel's eigenpairs and noise variance have the bits of its prior there,
    and a file one reader refuses the other refuses with the same error.
    Each block gets `VoxelPrior`'s eigen-form checks at once
    (`_check_eigen_form`) and goes into the stack, which widens when a block
    holds a rank above its width. No mean, covariance or per-voxel object
    is kept.
    """
    field_, indices, order, parts = _field_blocks(path, voxel)
    position = np.empty(len(indices), dtype=int)
    position[order] = np.arange(len(order))
    voxels, j = len(order), basis_dimension(field_.max_degree)
    evals, evecs, noise = np.zeros((voxels, 0)), np.zeros((voxels, j, 0)), np.empty((voxels, 1))
    for block, records, _, (values, vectors, ranks, _) in parts:
        _check_eigen_form(records["mean"], values, vectors, records["noise"].tolist(), ranks)
        k = values.shape[1]
        if k > evals.shape[1]:
            evals = np.pad(evals, [(0, 0), (0, k - evals.shape[1])])
            evecs = np.pad(evecs, [(0, 0), (0, 0), (0, k - evecs.shape[2])])
        kept, rows = np.arange(k) < ranks[:, None], position[block]
        evals[rows, :k] = np.where(kept, values, 0.0)
        evecs[rows, :, :k] = np.where(kept[:, None, :], vectors, 0.0)
        noise[rows, 0] = records["noise"]
        del records
    return field_, indices[order], EigenStack(evals, evecs, noise)
