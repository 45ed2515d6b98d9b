"""Signal reconstruction from directional samples.

Two estimators are provided. `shls_fit` is the classic penalized
least-squares fit of basis coefficients with a Laplace-Beltrami roughness
penalty (smoothing level chosen by generalized cross validation). For
sparse samples, `conditional_fit` shrinks toward a Gaussian-process prior:
it computes the conditional mean of the leading prior eigen-coefficients
given the observed values and maps it back to the full coefficient vector.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from ._kernels import row_products
from .errors import DegeneracyError, ValidationError
from .prior import VoxelPrior
from .sphere import ShBasis, as_unit_vectors, laplace_beltrami_penalty

DEFAULT_GCV_GRID = np.logspace(-7.0, -1.0, 20)


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


def shls_fit(points, values, basis: ShBasis, smoothing: float = 0.0) -> np.ndarray:
    """Penalized least-squares coefficients (J,) from observed directional samples.

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
    return linalg.cho_solve(factor, phi.T @ vals, check_finite=False)


def gcv_select(points, values, basis: ShBasis):
    """Pick the smoothing level minimizing generalized cross validation.

    GCV(lambda) = M * RSS(lambda) / (M - trace H(lambda))^2 over the
    ascending `DEFAULT_GCV_GRID`; grid values whose effective dof trace
    reaches M are skipped; ties resolve toward the larger lambda.

    Returns
    -------
    (lambda_star, coefficients (J,))
    """
    lambdas, coeffs = gcv_select_batch(points, [values], basis)
    return float(lambdas[0]), coeffs[0]


def gcv_select_batch(points, value_rows, basis: ShBasis):
    """`gcv_select` for several value rows observed at the same points.

    The rows share the design, so each grid value's Cholesky factor and
    hat-matrix trace are computed once, and one triangular solve takes every
    row as a column of its right-hand side. Each column gets the bits of its
    own one-vector solve, and the right-hand sides and residuals come from
    `row_products`, so every row gets the same bits as a `gcv_select` call
    of its own.

    Returns
    -------
    (lambda_star (N,), coefficients (N, J)), row i for value row i
    """
    pts = _check_points(points)
    m = pts.shape[0]
    rows = _check_value_rows(value_rows, m)
    n = rows.shape[0]
    found = np.zeros(n, dtype=bool)
    best_score, best_lam = np.zeros(n), np.zeros(n)
    best_coeffs = np.zeros((n, basis.dimension))
    if not n:
        return best_lam, best_coeffs
    phi = basis.evaluate(pts)
    gram = phi.T @ phi
    penalty = laplace_beltrami_penalty(basis)
    rhs = row_products(phi.T, rows).T
    for lam in DEFAULT_GCV_GRID:
        normal = gram + lam * penalty
        try:
            factor = linalg.cho_factor(normal, check_finite=False)
        except linalg.LinAlgError:
            continue
        trace_h = float(np.trace(linalg.cho_solve(factor, gram, check_finite=False)))
        dof_gap = m - trace_h
        if dof_gap <= 1e-9 * m:
            continue
        coeffs = np.ascontiguousarray(linalg.cho_solve(factor, rhs, check_finite=False).T)
        rss = np.sum((rows - row_products(phi, coeffs)) ** 2, axis=1)
        score = m * rss / dof_gap**2
        take = ~found | (score <= best_score)  # ties resolve toward the larger lambda
        found |= take
        best_score[take], best_lam[take], best_coeffs[take] = score[take], lam, coeffs[take]
    if not found.all():
        raise DegeneracyError("GCV degenerate: every grid value exhausts the degrees of freedom")
    return best_lam, best_coeffs


def conditional_scores(points, values, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    """Conditional mean of the prior's latent eigen-coefficients given data.

    With zero observations this is the zero vector (the prior mean carries
    the whole estimate). The observation Gram matrix is inverted through a
    Cholesky factorization; it is positive definite whenever the prior
    noise variance is positive.
    """
    return _conditional_scores_batch(points, [values], prior, basis)[0]


def _conditional_scores_batch(points, value_rows, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    """`conditional_scores` for several value rows observed at the same
    points, one row of scores each.

    The observation Gram matrix is factored once; one triangular solve takes
    every residual as a column, and the products are `row_products`, so
    every row has the bits of its own `conditional_scores`.
    """
    pts = _check_points(points)
    m = pts.shape[0]
    rows = _check_value_rows(value_rows, m)
    if basis.dimension != prior.dimension:
        raise ValidationError("prior dimension does not match the basis")
    k = prior.rank
    if m == 0 or not rows.shape[0]:
        return np.zeros((rows.shape[0], k))
    phi = basis.evaluate(pts)
    psi = phi @ prior.eigenvectors  # (M, K) eigenfunction values
    lam = prior.eigenvalues
    gram = (psi * lam) @ psi.T + prior.noise_variance * np.eye(m)
    residuals = rows - phi @ prior.mean
    try:
        factor = linalg.cho_factor(gram, check_finite=False)
    except linalg.LinAlgError as exc:  # unreachable for positive noise variance
        raise DegeneracyError("observation Gram matrix is not positive definite") from exc
    solved = np.ascontiguousarray(linalg.cho_solve(factor, residuals.T, check_finite=False).T)
    return lam * row_products(psi.T, solved)


def conditional_fit(points, values, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    """Posterior-mean coefficients (J,): prior mean plus the latent update.

    The estimate always lies in the affine subspace spanned by the prior's
    leading eigenvectors around its mean.
    """
    return conditional_fit_batch(points, [values], prior, basis)[0]


def conditional_fit_batch(points, value_rows, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    """`conditional_fit` for several value rows observed at the same points:
    coefficients (N, J), each row with the bits of its own call."""
    scores = _conditional_scores_batch(points, value_rows, prior, basis)
    return prior.mean + row_products(prior.eigenvectors, scores)
