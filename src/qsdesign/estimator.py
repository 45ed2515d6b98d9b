"""Signal reconstruction from directional samples.

Two estimators are provided. `shls_fit` is the classic penalized
least-squares fit of basis coefficients with a Laplace-Beltrami roughness
penalty (smoothing level chosen by generalized cross validation). For
sparse samples, `conditional_fit` shrinks toward a Gaussian-process prior:
it computes the conditional mean of the leading prior eigen-coefficients
given the observed values and maps it back to the full coefficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import DegeneracyError, ValidationError
from .prior import VoxelPrior
from .sphere import ShBasis, as_unit_vectors, laplace_beltrami_penalty

DEFAULT_GCV_GRID = np.logspace(-7.0, -1.0, 20)


@dataclass
class FitResult:
    """Fitted coefficient vector plus estimator-specific extras."""

    coefficients: np.ndarray
    scores: np.ndarray | None = None  # conditional mean of the latent coefficients
    lambda_used: float | None = None  # smoothing level (penalized fits only)


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    pts, _ = as_unit_vectors(np.atleast_2d(pts), "observation points")
    return pts


def _check_value_rows(value_rows, count: int) -> np.ndarray:
    """Observation rows as an (N, count) array: lengths first, then one finiteness check."""
    flat = [np.asarray(v, dtype=float).ravel() for v in value_rows]
    if any(v.shape[0] != count for v in flat):
        raise ValidationError("number of values must match number of points")
    vals = np.asarray(flat).reshape(len(flat), count)
    if not np.isfinite(vals).all():
        raise ValidationError("observation values must be finite")
    return vals


def _check_observations(points, values):
    pts = _check_points(points)
    return pts, _check_value_rows([values], pts.shape[0])[0]


def shls_fit(points, values, basis: ShBasis, smoothing: float = 0.0) -> FitResult:
    """Penalized least-squares coefficients from observed directional samples.

    Solves (Phi' Phi + smoothing * R) c = Phi' s exactly, with R the
    diagonal Laplace-Beltrami penalty. With smoothing = 0 at least J
    observations are required and the design must have full column rank.
    """
    pts, vals = _check_observations(points, values)
    if smoothing < 0.0:
        raise ValidationError("smoothing must be non-negative")
    m = pts.shape[0]
    if m < 1:
        raise ValidationError("need at least one observation")
    if smoothing == 0.0 and m < basis.dimension:
        raise ValidationError(
            f"unpenalized fit needs at least {basis.dimension} observations, got {m}"
        )
    phi = basis.evaluate(pts)
    normal = phi.T @ phi + smoothing * laplace_beltrami_penalty(basis)
    try:
        factor = linalg.cho_factor(normal, check_finite=False)
    except linalg.LinAlgError as exc:
        raise DegeneracyError(f"singular normal equations (smoothing={smoothing:g})") from exc
    coeffs = linalg.cho_solve(factor, phi.T @ vals, check_finite=False)
    return FitResult(coefficients=coeffs, lambda_used=float(smoothing))


def gcv_select(points, values, basis: ShBasis, grid=None):
    """Pick the smoothing level minimizing generalized cross validation.

    GCV(lambda) = M * RSS(lambda) / (M - trace H(lambda))^2 over the given
    grid; grid values whose effective dof trace reaches M are skipped; ties
    resolve toward the larger lambda.

    Returns
    -------
    (lambda_star, FitResult)
    """
    return gcv_select_batch(points, [values], basis, grid)[0]


def gcv_select_batch(points, value_rows, basis: ShBasis, grid=None):
    """`gcv_select` for several value rows observed at the same points.

    The rows share the design, so each grid value's Cholesky factor and
    hat-matrix trace are computed once for all of them; each row then costs
    one triangular solve and one residual per grid value. Every row gets
    the same bits as a `gcv_select` call of its own.

    Returns
    -------
    list of (lambda_star, FitResult), one per row
    """
    pts = _check_points(points)
    m = pts.shape[0]
    rows = _check_value_rows(value_rows, m)
    lambdas = np.sort(np.asarray(DEFAULT_GCV_GRID if grid is None else grid, dtype=float))
    if lambdas.size < 1 or np.any(lambdas <= 0.0):
        raise ValidationError("GCV grid must be non-empty with positive entries")
    phi = basis.evaluate(pts)
    gram = phi.T @ phi
    penalty = laplace_beltrami_penalty(basis)
    # one matrix-vector product per row: a stacked right-hand side would
    # go through a matrix product and can round differently
    rhs = [phi.T @ vals for vals in rows]
    best = [None] * len(rows)
    for lam in lambdas:
        normal = gram + lam * penalty
        try:
            factor = linalg.cho_factor(normal, check_finite=False)
        except linalg.LinAlgError:
            continue
        trace_h = float(np.trace(linalg.cho_solve(factor, gram, check_finite=False)))
        dof_gap = m - trace_h
        if dof_gap <= 1e-9 * m:
            continue
        for i, (vals, b) in enumerate(zip(rows, rhs)):
            coeffs = linalg.cho_solve(factor, b, check_finite=False)
            rss = float(np.sum((vals - phi @ coeffs) ** 2))
            score = m * rss / dof_gap**2
            if best[i] is None or score <= best[i][0]:
                best[i] = (score, float(lam), coeffs)
    if None in best:
        raise DegeneracyError("GCV degenerate: every grid value exhausts the degrees of freedom")
    return [(lam, FitResult(coefficients=coeffs, lambda_used=lam)) for _, lam, coeffs in best]


def conditional_scores(points, values, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    """Conditional mean of the prior's latent eigen-coefficients given data.

    With zero observations this is the zero vector (the prior mean carries
    the whole estimate). The observation Gram matrix is inverted through a
    Cholesky factorization; it is positive definite whenever the prior
    noise variance is positive.
    """
    pts, vals = _check_observations(points, values)
    if basis.dimension != prior.dimension:
        raise ValidationError("prior dimension does not match the basis")
    k = prior.rank
    if pts.shape[0] == 0:
        return np.zeros(k)
    phi = basis.evaluate(pts)
    psi = phi @ prior.eigenvectors  # (M, K) eigenfunction values
    lam = prior.eigenvalues
    gram = (psi * lam) @ psi.T + prior.noise_variance * np.eye(pts.shape[0])
    residual = vals - phi @ prior.mean
    try:
        factor = linalg.cho_factor(gram, check_finite=False)
    except linalg.LinAlgError as exc:  # unreachable for positive noise variance
        raise DegeneracyError("observation Gram matrix is not positive definite") from exc
    return lam * (psi.T @ linalg.cho_solve(factor, residual, check_finite=False))


def conditional_fit(points, values, prior: VoxelPrior, basis: ShBasis) -> FitResult:
    """Posterior-mean coefficients: prior mean plus the latent update.

    The estimate always lies in the affine subspace spanned by the prior's
    leading eigenvectors around its mean.
    """
    scores = conditional_scores(points, values, prior, basis)
    coeffs = prior.mean + prior.eigenvectors @ scores
    return FitResult(coefficients=coeffs, scores=scores)
