"""Hot numeric inner loops, one numpy implementation each.

The pipeline calls these four kernels by name: `sh_matrix`, `greedy_gains`,
`coulomb_energy_grad` and `local_maxima`. tests/test_kernels.py checks them
against loop references, and benchmarks/bench_kernels.py times them. Every
kernel is a pure function of its inputs, so results are bitwise
deterministic run to run.
"""

import functools

import numpy as np

INV_SQRT_4PI = 0.28209479177387814


def basis_dimension(max_degree: int) -> int:
    return (max_degree + 1) * (max_degree + 2) // 2


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


def sh_matrix(xyz: np.ndarray, max_degree: int) -> np.ndarray:
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


def greedy_gains(psi: np.ndarray, dmat: np.ndarray, noise_variance: float) -> np.ndarray:
    """Objective increase for appending each candidate row of `psi`.

    `dmat` is the current posterior score covariance Lambda - G; the gain of
    a candidate with eigenfunction row v is ||dmat v||^2 / (sigma^2 + v' dmat v).
    """
    v = psi @ dmat
    num = np.einsum("ij,ij->i", v, v)
    den = noise_variance + np.einsum("ij,ij->i", psi, v)
    return num / den


# Stacks are evaluated in blocks of at most this many point pairs, so the
# (block, n, n, 3) temporaries stay near 200 kB. Larger blocks were slower
# at n = 90: their temporaries went back to the operating system after
# every call and page-faulted in again on the next.
_COULOMB_BLOCK_PAIRS = 8192


def coulomb_energy_grad(points: np.ndarray):
    """Antipodally symmetric Coulomb energy and its Euclidean gradient.

    `points` is one configuration (n, 3), giving (float, (n, 3)), or a
    stack (R, n, 3), giving energies (R,) and gradients (R, n, 3). Each
    configuration of a stack gets the same bits as on its own.
    """
    if points.ndim == 2:
        energy, grad = _coulomb_block(points[None])
        return float(energy[0]), grad[0]
    step = max(1, _COULOMB_BLOCK_PAIRS // points.shape[1] ** 2)
    blocks = [_coulomb_block(points[s : s + step]) for s in range(0, points.shape[0], step)]
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([e for e, _ in blocks]), np.concatenate([g for _, g in blocks])


def _coulomb_block(stack: np.ndarray):
    count, n = stack.shape[0], stack.shape[1]
    diff = stack[:, :, None, :] - stack[:, None, :, :]
    ssum = stack[:, :, None, :] + stack[:, None, :, :]
    dm = np.sqrt(np.einsum("rijk,rijk->rij", diff, diff))
    dp = np.sqrt(np.einsum("rijk,rijk->rij", ssum, ssum))
    diag = np.arange(n)
    dm[:, diag, diag] = np.inf
    dp[:, diag, diag] = np.inf
    # each energy sums its flattened n x n block, as np.sum does for one
    inv_m = (1.0 / dm).reshape(count, -1).sum(axis=1)
    inv_p = (1.0 / dp).reshape(count, -1).sum(axis=1)
    energy = 0.5 * (inv_m + inv_p)
    grad = -np.einsum("rij,rijk->rik", dm**-3, diff) - np.einsum("rij,rijk->rik", dp**-3, ssum)
    return energy, grad


def local_maxima(values: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mask of entries strictly greater than all their listed neighbors."""
    return values > values[neighbors].max(axis=1)
