"""Signal reconstruction from directional samples.

Two estimators are provided. `shls_fit` is the classic penalized
least-squares fit of basis coefficients with a Laplace-Beltrami roughness
penalty (smoothing level chosen by generalized cross validation). For
sparse samples, `conditional_fit` shrinks toward a Gaussian-process prior:
it computes the conditional mean of the leading prior eigen-coefficients
given the observed values and maps it back to the full coefficient vector.

Every fit factors one matrix with LAPACK `dpotrf` and solves with `dpotrs`
(upper triangle, column-major copies, as `scipy.linalg.cho_factor` and
`cho_solve` call them). Both come from the LAPACK numpy already loads, so
a fitting process loads neither scipy nor a second OpenBLAS: one cached
resolver, `_numpy_function`, binds every symbol this module uses through
`ctypes` from numpy's `_umath_linalg` module, here the ILP64 symbols
`scipy_dpotrf_64_` and `scipy_dpotrs_64_` of its OpenBLAS wheel. Where
numpy exports no such symbols (Accelerate or a system LAPACK), the same
two calls go through `scipy.linalg`, imported then. `one_blas_thread` pins
the same OpenBLAS to one thread, through its
`scipy_openblas_set_num_threads64_`, around every run and command, so
their bits do not depend on the thread count, and `host_class` reads its
core name from `scipy_openblas_get_corename64_`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from ._kernels import row_products
from .errors import DegeneracyError, ValidationError
from .prior import VoxelPrior
from .sphere import ShBasis, as_unit_vectors, laplace_beltrami_penalty

DEFAULT_GCV_GRID = np.logspace(-7.0, -1.0, 20)


@functools.lru_cache(maxsize=None)
def _numpy_function(name: str, restype, *argtypes):
    """The symbol `name` of the LAPACK and BLAS numpy links, resolved through
    its `_umath_linalg` module, as a ctypes function of these types, or None
    where numpy exports no such symbol."""
    from numpy.linalg import _umath_linalg

    try:
        function = getattr(ctypes.CDLL(_umath_linalg.__file__), name)
    except (OSError, AttributeError):  # no library, or no such symbol
        return None
    function.restype, function.argtypes = restype, argtypes
    return function


@functools.lru_cache(maxsize=None)
def _numpy_lapack():
    """numpy's own `dpotrf` and `dpotrs`, or None when its LAPACK does not
    export them under the names of the OpenBLAS wheels."""
    # Fortran calling convention: every argument by reference, then the
    # hidden length of each character argument
    ptr = ctypes.c_void_p
    potrf = _numpy_function("scipy_dpotrf_64_", None, ctypes.c_char_p, *[ptr] * 4, ctypes.c_size_t)
    potrs = _numpy_function("scipy_dpotrs_64_", None, ctypes.c_char_p, *[ptr] * 7, ctypes.c_size_t)
    return (potrf, potrs) if potrf and potrs else None


def host_class() -> dict:
    """What on this host decides how the outputs round, as `report.json`'s
    `host`: `simd_found`, the SIMD extensions numpy dispatches to, as
    `np.show_config(mode="dicts")` lists them (numpy's AVX-512 `np.power`
    loop rounds some ESR `dist**-3` differently from libm's `pow`);
    `openblas_core`, the core numpy's OpenBLAS runs its kernels for, such as
    "SkylakeX", which decides how the batched solves round; each None where
    numpy does not say; and `cholesky`, where the fits' `dpotrf` and
    `dpotrs` come from: "numpy lapack" or "scipy.linalg fallback"."""
    try:
        simd = list(np.show_config(mode="dicts")["SIMD Extensions"].get("found", []))
    except (TypeError, KeyError):  # a numpy without the dicts mode or the section
        simd = None
    core = _numpy_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    cholesky = "numpy lapack" if _numpy_lapack() is not None else "scipy.linalg fallback"
    return {"simd_found": simd, "openblas_core": core().decode() if core else None, "cholesky": cholesky}


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore the
    previous count after it. OpenBLAS splits a product differently at
    other thread counts, and so rounds it differently. Yields the count in
    effect, or None where numpy's BLAS exports no thread control, in which
    case nothing is changed."""
    get = _numpy_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    put = _numpy_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if get is None or put is None:
        yield None
        return
    previous = get()
    put(1)
    try:
        yield get()
    finally:
        put(previous)


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U of a symmetric positive definite (n, n) matrix,
    A = U'U, in a column-major copy whose strict lower triangle keeps A's
    entries: the array `scipy.linalg.cho_factor(a)[0]` returns, with its bits.
    Raises `np.linalg.LinAlgError` when A is not positive definite."""
    c = np.array(a, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size:
        raise ValueError(f"need a non-empty square matrix, got shape {c.shape}")
    lapack = _numpy_lapack()
    if lapack is None:
        from scipy import linalg

        return linalg.cho_factor(c, check_finite=False)[0]
    n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
    ref = ctypes.byref
    lapack[0](b"U", ref(n), c.ctypes.data, ref(n), ref(info), 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor of the array is not positive definite")
    if info.value < 0:
        raise ValueError(f"LAPACK dpotrf rejected argument {-info.value}")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a vector b (n,) or the columns of b (n, k), given
    `c = _cho_factor(A)`: the array `scipy.linalg.cho_solve((c, False), b)`
    returns (column-major for a matrix b), with its bits."""
    c = np.asfortranarray(c, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or x.ndim not in (1, 2) or x.shape[0] != c.shape[0] or not x.size:
        raise ValueError(f"need a square factor and non-empty matching right-hand sides, got {c.shape} and {x.shape}")
    lapack = _numpy_lapack()
    if lapack is None:
        from scipy import linalg

        return linalg.cho_solve((c, False), x, check_finite=False)
    n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
    nrhs = ctypes.c_int64(1 if x.ndim == 1 else x.shape[1])
    ref = ctypes.byref
    lapack[1](b"U", ref(n), ref(nrhs), c.ctypes.data, ref(n), x.ctypes.data, ref(n), ref(info), 1)
    if info.value != 0:
        raise ValueError(f"LAPACK dpotrs rejected argument {-info.value}")
    return x


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
    if not (np.isfinite(smoothing) and smoothing >= 0.0):
        raise ValidationError(f"smoothing must be finite and non-negative, got {smoothing}")
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
        factor = _cho_factor(normal)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"singular normal equations (smoothing={smoothing:g})") from exc
    return _cho_solve(factor, phi.T @ vals)


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
    row as a column of its right-hand side. The right-hand sides and
    residuals come from `row_products`, so every row gets the same bits as
    a `gcv_select` call of its own where each column of the solve gets the
    bits of its own one-vector solve: on OpenBLAS cores whose `dpotrs`
    solves each right-hand side alone (`host_class`), such as
    "SkylakeX", but not "Haswell" for a basis of J >= 20 functions, where a
    row's last bits depend on the rows it is solved with.

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
            factor = _cho_factor(normal)
        except np.linalg.LinAlgError:
            continue
        trace_h = float(np.trace(_cho_solve(factor, gram)))
        dof_gap = m - trace_h
        if dof_gap <= 1e-9 * m:
            continue
        coeffs = np.ascontiguousarray(_cho_solve(factor, rhs).T)
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
    every residual as a column, and the products are `row_products`. Every
    row has the bits of its own `conditional_scores` where the solve gives
    each column the bits of its one-vector solve: on OpenBLAS cores whose
    `dpotrs` solves each right-hand side alone (`host_class`), such as
    "SkylakeX", but not "Haswell" from 20 points on, where a row's last
    bits depend on the rows it is solved with.
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
        factor = _cho_factor(gram)
    except np.linalg.LinAlgError as exc:  # unreachable for positive noise variance
        raise DegeneracyError("observation Gram matrix is not positive definite") from exc
    solved = np.ascontiguousarray(_cho_solve(factor, residuals.T).T)
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
