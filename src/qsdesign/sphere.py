"""Real symmetric spherical-harmonic machinery on the unit 2-sphere.

Provides the even-degree real orthonormal basis, the great-circle
(Funk-Radon) transform and its inverse, the Laplace-Beltrami roughness
penalty, and quadrature grids. A signal expanded in this basis is
automatically antipodally symmetric, which is why odd degrees never appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
UNIT_NORM_TOL = 1e-10


def as_unit_vectors(points, name: str = "points"):
    """Coerce to a float64 (n, 3) array of unit vectors.

    Returns (array, was_single) where `was_single` records whether the
    input was a single 3-vector.
    """
    arr = np.asarray(points, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (3,) or (n, 3), got {arr.shape}")
    sq = np.einsum("ij,ij->i", arr, arr)
    worst = float(np.max(np.abs(sq - 1.0))) if arr.size else 0.0
    # written so that a NaN deviation (a non-finite row) fails the check too
    if not worst <= UNIT_NORM_TOL:
        raise ValidationError(
            f"{name} must be finite unit vectors (worst squared-norm deviation {worst:.3e})"
        )
    return np.ascontiguousarray(arr), single


def normalized(points) -> np.ndarray:
    """Project vectors onto the unit sphere (rescale the last axis to unit norm)."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError("cannot normalize a zero vector")
    out = arr / norms
    return out[0] if np.asarray(points).ndim == 1 else out


def legendre_at_zero(degree: int) -> float:
    """P_l(0) for even degree l: (-1)^(l/2) (l-1)!! / l!!."""
    if degree < 0 or degree % 2 != 0:
        raise ValidationError(f"degree must be even and non-negative, got {degree}")
    value = 1.0
    for i in range(2, degree + 1, 2):
        value *= (i - 1.0) / i
    return value if (degree // 2) % 2 == 0 else -value


class ShBasis:
    """Real, symmetric, orthonormal spherical-harmonic basis up to `max_degree`.

    Only even degrees appear; index j runs over (l, m) pairs with
    l = 0, 2, ..., max_degree and m = -l..l, giving dimension
    J = (L+1)(L+2)/2. The m<0 entries are sqrt(2)*sin components, m>0 are
    sqrt(2)*cos components, and m=0 is the zonal harmonic.
    """

    def __init__(self, max_degree: int):
        if max_degree < 0 or max_degree % 2 != 0:
            raise ValidationError(f"max_degree must be even and >= 0, got {max_degree}")
        self.max_degree = int(max_degree)
        self.dimension = _kernels.basis_dimension(self.max_degree)
        degrees, orders = [], []
        for l in range(0, self.max_degree + 1, 2):
            for m in range(-l, l + 1):
                degrees.append(l)
                orders.append(m)
        self.degrees = np.asarray(degrees, dtype=int)
        self.orders = np.asarray(orders, dtype=int)
        self._frt = 2.0 * np.pi * np.array([legendre_at_zero(l) for l in self.degrees])

    def __repr__(self):
        return f"ShBasis(max_degree={self.max_degree})"

    def __eq__(self, other):
        return isinstance(other, ShBasis) and other.max_degree == self.max_degree

    def __hash__(self):
        return hash(("ShBasis", self.max_degree))

    def index_of(self, degree: int, order: int) -> int:
        """Flat index j of the (degree, order) basis function."""
        hits = np.nonzero((self.degrees == degree) & (self.orders == order))[0]
        if hits.size != 1:
            raise ValidationError(f"(degree={degree}, order={order}) not in basis")
        return int(hits[0])

    @property
    def funk_radon_multipliers(self) -> np.ndarray:
        """Per-index eigenvalues 2*pi*P_l(0) of the great-circle transform."""
        return self._frt

    def evaluate(self, points) -> np.ndarray:
        """Evaluate all J basis functions at unit vectors.

        Parameters
        ----------
        points : array_like, shape (3,) or (n, 3)
            Unit direction(s); non-unit input raises ValidationError.

        Returns
        -------
        np.ndarray, shape (J,) or (n, J)
        """
        arr, single = as_unit_vectors(points)
        out = _kernels.sh_matrix(arr, self.max_degree)
        return out[0] if single else out

    def check_coefficients(self, coeffs, name: str = "coefficients") -> np.ndarray:
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValidationError(
                f"{name} must have shape ({self.dimension},), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite")
        return arr


def funk_radon(coeffs, basis: ShBasis) -> np.ndarray:
    """Great-circle integral transform: scales degree-l blocks by 2*pi*P_l(0)."""
    return basis.check_coefficients(coeffs) * basis.funk_radon_multipliers


def inverse_funk_radon(coeffs, basis: ShBasis) -> np.ndarray:
    """Exact inverse of :func:`funk_radon` (even-degree P_l(0) never vanish)."""
    return basis.check_coefficients(coeffs) / basis.funk_radon_multipliers


def laplace_beltrami_penalty(basis: ShBasis) -> np.ndarray:
    """Diagonal roughness penalty with entries (l*(l+1))^2 per index."""
    l = basis.degrees.astype(float)
    return np.diag((l * (l + 1.0)) ** 2)


@dataclass(frozen=True)
class SphericalGrid:
    """Evaluation/quadrature grid: unit directions with positive weights."""

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        dirs, _ = as_unit_vectors(self.directions, "grid directions")
        object.__setattr__(self, "directions", dirs)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (dirs.shape[0],):
            raise ValidationError("weights must match the number of directions")
        if np.any(w <= 0.0):
            raise ValidationError("quadrature weights must be strictly positive")
        if abs(float(w.sum()) - 4.0 * np.pi) > 1e-8:
            raise ValidationError("quadrature weights must sum to 4*pi")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.directions.shape[0]

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _spiral_points(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _band_weights(n: int) -> np.ndarray:
    # Exact quadrature weights for int_0^pi f(theta) sin(theta) dtheta at the
    # equiangular band midpoints theta_j=(2j+1)pi/(2n): solving the cosine
    # moment conditions through DCT orthogonality gives a Fejer-type rule,
    # exact for cosine polynomials up to degree n-1 and strictly positive.
    theta = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
    k = np.arange(2, n, 2, dtype=float)
    corr = np.zeros(n)
    if k.size:
        corr = 2.0 * (np.cos(np.outer(theta, k)) / (1.0 - k * k)).sum(axis=1)
    return (2.0 / n) * (1.0 + corr), theta


def make_grid(kind: str, n: int) -> SphericalGrid:
    """Build a spherical grid.

    Parameters
    ----------
    kind : {"spiral", "equiangular"}
        "spiral" places `n` golden-section spiral points with uniform
        weights 4*pi/n. "equiangular" builds an n x n grid (n latitude
        bands at equal theta spacing times n azimuths) whose band weights
        integrate all band-limited functions of degree < n exactly.
    n : int
        Point count (spiral) or per-axis resolution (equiangular).
    """
    if n < 1:
        raise ValidationError(f"grid size must be >= 1, got {n}")
    if kind == "spiral":
        dirs = _spiral_points(n)
        weights = np.full(n, 4.0 * np.pi / n)
        return SphericalGrid(dirs, weights)
    if kind == "equiangular":
        wtheta, theta = _band_weights(n)
        phi = 2.0 * np.pi * np.arange(n) / n
        st, ct = np.sin(theta), np.cos(theta)
        dirs = np.empty((n * n, 3))
        weights = np.empty(n * n)
        for j in range(n):
            rows = slice(j * n, (j + 1) * n)
            dirs[rows, 0] = st[j] * np.cos(phi)
            dirs[rows, 1] = st[j] * np.sin(phi)
            dirs[rows, 2] = ct[j]
            weights[rows] = wtheta[j] * (2.0 * np.pi / n)
        return SphericalGrid(dirs, weights)
    raise ValidationError(f"unknown grid kind {kind!r}")


def project_to_basis(values, grid: SphericalGrid, basis: ShBasis) -> np.ndarray:
    """Quadrature projection of sampled function values onto the basis."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(grid),):
        raise ValidationError("values must match the grid size")
    phi = basis.evaluate(grid.directions)
    return phi.T @ (grid.weights * vals)
