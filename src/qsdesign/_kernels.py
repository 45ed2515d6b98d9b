"""Hot numeric inner loops, numba-compiled with pure-numpy fallbacks.

The numba path is used whenever numba imports cleanly; set QSPACE_NO_NUMBA=1
to force the numpy implementations. Both paths compute the same quantities
(cross-checked in tests/test_kernels.py) and benchmarks/bench_kernels.py
times one against the other. All jitted kernels are serial or use disjoint
writes only, so results are bitwise deterministic run to run.
"""

import functools
import os

import numpy as np

INV_SQRT_4PI = 0.28209479177387814


def numba_disabled_by_env() -> bool:
    return os.environ.get("QSPACE_NO_NUMBA", "").strip().lower() in ("1", "true", "yes", "on")


def basis_dimension(max_degree: int) -> int:
    return (max_degree + 1) * (max_degree + 2) // 2


# ---------------------------------------------------------------------------
# numpy implementations


@functools.lru_cache(maxsize=None)
def _sh_tables(max_degree: int):
    """Per-degree recurrence constants and output index arrays, built once.

    Every constant is computed with the same scalar expression as the
    textbook loop, so the vectorised recurrence below reproduces it bit for
    bit. The arrays are shared between callers, hence read-only.
    """
    L = max_degree
    diag = np.zeros(L + 1)
    sub = np.zeros(L + 1)
    a = np.zeros((L + 1, L + 1))
    b = np.zeros((L + 1, L + 1))
    for m in range(1, L + 1):
        diag[m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
    for m in range(L):
        sub[m] = np.sqrt(2.0 * m + 3.0)
    for m in range(max(L - 1, 0)):
        for l in range(m + 2, L + 1):
            a[l, m] = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b[l, m] = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    rows = np.concatenate([np.full(2 * l + 1, l) for l in range(0, L + 1, 2)])
    orders = np.concatenate([np.arange(-l, l + 1) for l in range(0, L + 1, 2)])
    cols = np.abs(orders)
    # the zonal harmonic (m = 0) is pbar itself; the others carry sqrt(2)
    scale = np.where(orders == 0, 1.0, np.sqrt(2.0))[:, None]
    trig_rows = np.where(orders < 0, L + cols, cols)
    tables = (diag, sub[:L, None], a[:, :, None], b[:, :, None], scale, rows, cols, trig_rows)
    for table in tables:
        table.setflags(write=False)
    return tables


def sh_matrix_numpy(xyz: np.ndarray, max_degree: int) -> np.ndarray:
    """Real symmetric (even-degree) orthonormal SH values, shape (n, J).

    Fully normalized associated Legendre values come from the standard
    stable three-term upward recurrence in degree, vectorised over order.
    Each output row depends on its own point only, so rows do not change
    with the batch they are evaluated in. The result is C-contiguous.
    """
    L = max_degree
    diag, sub, a, b, scale, rows, cols, trig_rows = _sh_tables(L)
    n = xyz.shape[0]
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    s = np.hypot(x, y)
    phi = np.arctan2(y, x)

    pbar = np.zeros((L + 1, L + 1, n))
    pbar[0, 0] = INV_SQRT_4PI
    for m in range(1, L + 1):
        pbar[m, m] = diag[m] * s * pbar[m - 1, m - 1]
    below = np.arange(L)
    pbar[below + 1, below] = sub * z * pbar[below, below]
    for l in range(2, L + 1):
        m = slice(0, l - 1)
        pbar[l, m] = a[l, m] * (z * pbar[l - 1, m] - b[l, m] * pbar[l - 2, m])

    # trig rows: 1 for m = 0, then cos(m phi) for m = 1..L, then sin(m phi)
    mphi = np.multiply.outer(np.arange(1.0, L + 1.0), phi)
    trig = np.concatenate([np.ones((1, n)), np.cos(mphi), np.sin(mphi)])
    values = pbar[rows, cols] * scale * trig[trig_rows]
    return np.ascontiguousarray(values.T)


def greedy_gains_numpy(psi: np.ndarray, dmat: np.ndarray, noise_variance: float) -> np.ndarray:
    """Objective increase for appending each candidate row of `psi`.

    `dmat` is the current posterior score covariance Lambda - G; the gain of
    a candidate with eigenfunction row v is ||dmat v||^2 / (sigma^2 + v' dmat v).
    """
    v = psi @ dmat
    num = np.einsum("ij,ij->i", v, v)
    den = noise_variance + np.einsum("ij,ij->i", psi, v)
    return num / den


def coulomb_energy_grad_numpy(points: np.ndarray):
    """Antipodally symmetric Coulomb energy and its Euclidean gradient."""
    diff = points[:, None, :] - points[None, :, :]
    ssum = points[:, None, :] + points[None, :, :]
    dm = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dp = np.sqrt(np.einsum("ijk,ijk->ij", ssum, ssum))
    np.fill_diagonal(dm, np.inf)
    np.fill_diagonal(dp, np.inf)
    energy = 0.5 * float(np.sum(1.0 / dm) + np.sum(1.0 / dp))
    grad = -np.einsum("ij,ijk->ik", dm**-3, diff) - np.einsum("ij,ijk->ik", dp**-3, ssum)
    return energy, grad


def local_maxima_numpy(values: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mask of entries strictly greater than all their listed neighbors."""
    return values > values[neighbors].max(axis=1)


# ---------------------------------------------------------------------------
# numba implementations (same math, explicit loops)

USING_NUMBA = False
sh_matrix_numba = None
greedy_gains_numba = None
coulomb_energy_grad_numba = None
local_maxima_numba = None

if not numba_disabled_by_env():
    try:
        from numba import njit

        # Serial kernels throughout: call overhead stays in the microseconds
        # (the refinement path evaluates many tiny batches) and results are
        # bitwise reproducible.

        @njit(cache=True, nogil=True)
        def sh_matrix_numba(xyz, max_degree):  # pragma: no cover - timed via tests
            L = max_degree
            n = xyz.shape[0]
            J = (L + 1) * (L + 2) // 2
            out = np.empty((n, J))
            root2 = np.sqrt(2.0)
            for i in range(n):
                x = xyz[i, 0]
                y = xyz[i, 1]
                z = xyz[i, 2]
                s = np.hypot(x, y)
                phi = np.arctan2(y, x)
                pbar = np.zeros((L + 1, L + 1))
                pbar[0, 0] = INV_SQRT_4PI
                for m in range(1, L + 1):
                    pbar[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pbar[m - 1, m - 1]
                for m in range(L):
                    pbar[m + 1, m] = np.sqrt(2.0 * m + 3.0) * z * pbar[m, m]
                for m in range(max(L - 1, 0)):
                    for l in range(m + 2, L + 1):
                        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                        pbar[l, m] = a * (z * pbar[l - 1, m] - b * pbar[l - 2, m])
                j = 0
                for l in range(0, L + 1, 2):
                    for m in range(-l, l + 1):
                        if m < 0:
                            out[i, j] = root2 * pbar[l, -m] * np.sin(-m * phi)
                        elif m == 0:
                            out[i, j] = pbar[l, 0]
                        else:
                            out[i, j] = root2 * pbar[l, m] * np.cos(m * phi)
                        j += 1
            return out

        @njit(cache=True, nogil=True)
        def greedy_gains_numba(psi, dmat, noise_variance):  # pragma: no cover
            n, k = psi.shape
            gains = np.empty(n)
            for i in range(n):
                num = 0.0
                den = noise_variance
                for a in range(k):
                    va = 0.0
                    for b in range(k):
                        va += psi[i, b] * dmat[b, a]
                    num += va * va
                    den += psi[i, a] * va
                gains[i] = num / den
            return gains

        @njit(cache=True, nogil=True)
        def coulomb_energy_grad_numba(points):  # pragma: no cover
            n = points.shape[0]
            energy = 0.0
            grad = np.zeros((n, 3))
            for i in range(n):
                for j in range(i + 1, n):
                    dx = points[i, 0] - points[j, 0]
                    dy = points[i, 1] - points[j, 1]
                    dz = points[i, 2] - points[j, 2]
                    sx = points[i, 0] + points[j, 0]
                    sy = points[i, 1] + points[j, 1]
                    sz = points[i, 2] + points[j, 2]
                    dm = np.sqrt(dx * dx + dy * dy + dz * dz)
                    dp = np.sqrt(sx * sx + sy * sy + sz * sz)
                    energy += 1.0 / dm + 1.0 / dp
                    cm = dm ** -3
                    cp = dp ** -3
                    grad[i, 0] -= dx * cm + sx * cp
                    grad[i, 1] -= dy * cm + sy * cp
                    grad[i, 2] -= dz * cm + sz * cp
                    grad[j, 0] += dx * cm - sx * cp
                    grad[j, 1] += dy * cm - sy * cp
                    grad[j, 2] += dz * cm - sz * cp
            return energy, grad

        @njit(cache=True, nogil=True)
        def local_maxima_numba(values, neighbors):  # pragma: no cover
            n = values.shape[0]
            mask = np.empty(n, np.bool_)
            for i in range(n):
                vi = values[i]
                ok = True
                for k in range(neighbors.shape[1]):
                    if values[neighbors[i, k]] >= vi:
                        ok = False
                        break
                mask[i] = ok
            return mask

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - exercised via QSPACE_NO_NUMBA
        pass


if USING_NUMBA:
    sh_matrix = sh_matrix_numba
    greedy_gains = greedy_gains_numba
    coulomb_energy_grad = coulomb_energy_grad_numba
    local_maxima = local_maxima_numba
else:
    sh_matrix = sh_matrix_numpy
    greedy_gains = greedy_gains_numpy
    coulomb_energy_grad = coulomb_energy_grad_numpy
    local_maxima = local_maxima_numpy
