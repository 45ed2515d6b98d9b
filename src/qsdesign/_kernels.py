"""Hot numeric inner loops, one numpy implementation each.

The pipeline calls these kernels by name: `sh_matrix`, `row_products`,
`greedy_gains`, `coulomb_energy_grad` (and its trial form
`coulomb_energy_grad_below`) and `local_maxima`. tests/test_kernels.py
checks them against loop references, and
`benchmarks/bench_pipeline.py --workload kernels` times them. Every
kernel is a pure function of its inputs, so results are bitwise
deterministic run to run.

Whole-array forms here keep the bits of the loops they replaced: the
Coulomb kernel runs over coordinate-major (R, 2, 3, n, n) pair arrays but
rounds every sum as the (R, n, n, 3) einsum form did, and `local_maxima`
takes a maximum, which is exact, for all rows at once.
"""

import functools

import numpy as np

INV_SQRT_4PI = 0.28209479177387814

# Every bounded-memory loop takes its slices from `blocks`: at most this many
# float64 entries (512 kB) of its largest per-item temporary a block, so the
# temporaries stay that size whatever the item count. Block size is a cost
# even where memory is not short: in a fresh process the allocator hands
# temporaries of this order back to the operating system when they are
# freed, so `esr_design` page-faults its Coulomb pair arrays in again at
# every descent step, more of them the larger the block.
_BLOCK_ENTRIES = 1 << 16


def blocks(count: int, item_entries: int) -> list:
    """Slices that cover `count` items in order, in blocks of at most
    `_BLOCK_ENTRIES` entries at `item_entries` an item, and of one item
    where an item holds more."""
    step = max(1, _BLOCK_ENTRIES // max(1, item_entries))
    return [slice(start, start + step) for start in range(0, count, step)]


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
    with the batch they are evaluated in, and the points are evaluated in
    `blocks` of (L + 1)^2 recurrence entries a point. The result is
    C-contiguous.
    """
    out = np.empty((xyz.shape[0], basis_dimension(max_degree)))
    for block in blocks(xyz.shape[0], (max_degree + 1) ** 2):
        out[block] = _sh_rows(xyz[block], max_degree)
    return out


def _sh_rows(xyz: np.ndarray, max_degree: int) -> np.ndarray:
    """`sh_matrix` of one block of points, as an (n, J) view of a (J, n) array."""
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
    return (pbar[rows, cols] * scale * trig[trig_rows]).T


def row_products(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Matrix-vector products `a @ x`, one per row x of `rows` (N, d), as (N, m).

    `a` is one (m, d) matrix that every row shares, or a stack (N, m, d)
    with one matrix per row. This is the one place the batches of the
    pipeline round: numpy's stacked matmul hands each slice to the BLAS
    call (gemv, or dot for m = 1) that `a_i @ x_i` makes on one vector, so
    row i has the bits of its own one-vector product whatever N is. One
    matrix product over the batch (`rows @ a.T`) or an elementwise or
    einsum sum can round differently.
    """
    return np.matmul(a, rows[..., None])[..., 0]


def greedy_gains(psi: np.ndarray, dmat: np.ndarray, noise_variance) -> np.ndarray:
    """Objective increase for appending each candidate row of `psi`.

    `dmat` is the current posterior score covariance Lambda - G; the gain of
    a candidate with eigenfunction row v is ||dmat v||^2 / (sigma^2 + v' dmat v).
    One voxel is `psi` (N, K), `dmat` (K, K) and a float noise variance,
    giving gains (N,). A stack is `psi` (V, N, K), `dmat` (V, K, K) and noise
    variances (V, 1), giving gains (V, N); it is scored in voxel `blocks`,
    at the N K entries of `psi @ dmat` a voxel. Stacked matmul makes one
    BLAS call per voxel and the row sums never cross voxels, so every voxel
    gets the bits of its own one-voxel call, whatever the block.
    """
    if psi.ndim == 2:
        return _gains(psi, dmat, noise_variance)
    gains = np.empty(psi.shape[:2])
    for block in blocks(psi.shape[0], psi.shape[1] * psi.shape[2]):
        gains[block] = _gains(psi[block], dmat[block], noise_variance[block])
    return gains


def _gains(psi, dmat, noise_variance):
    v = psi @ dmat
    num = np.einsum("...ij,...ij->...i", v, v)
    den = noise_variance + np.einsum("...ij,...ij->...i", psi, v)
    return num / den


def coulomb_energy_grad(points: np.ndarray):
    """Antipodally symmetric Coulomb energy and its Euclidean gradient.

    `points` is one configuration (n, 3), giving (float, (n, 3)), or a
    stack (R, n, 3), giving energies (R,) and C-contiguous gradients
    (R, n, 3). A stack is evaluated in `blocks` of the 6 n^2 entries of a
    configuration's pair array. Each configuration of a stack gets the same
    bits as on its own, and the same bits as the (R, n, n, 3) einsum form
    of the kernel (`_coulomb_terms` and `_coulomb_grad` say why).
    """
    if points.ndim == 2:
        energy, grad = coulomb_energy_grad(points[None])
        return float(energy[0]), grad[0]
    energies, grads = [], []
    for rows in blocks(points.shape[0], 6 * points.shape[1] ** 2):
        energy, pairs, dist = _coulomb_terms(points[rows])
        energies.append(energy)
        grads.append(_coulomb_grad(pairs, dist))
    return np.concatenate(energies), np.concatenate(grads)


def coulomb_energy_grad_below(points: np.ndarray, bound: np.ndarray):
    """Energies (R,) of a stack (R, n, 3), and the gradients (k, n, 3) of
    the k configurations whose energy is below `bound` (R,), in stack order.

    Electrostatic repulsion keeps a trial only where its energy drops, so
    it needs no gradient for the others. Bits as `coulomb_energy_grad`.
    """
    energies, grads = [], []
    for rows in blocks(points.shape[0], 6 * points.shape[1] ** 2):
        energy, pairs, dist = _coulomb_terms(points[rows])
        energies.append(energy)
        lower = energy < bound[rows]
        if lower.all():
            grads.append(_coulomb_grad(pairs, dist))
        elif lower.any():
            grads.append(_coulomb_grad(pairs[lower], dist[lower]))
    grad = np.concatenate(grads) if grads else np.empty((0, points.shape[1], 3))
    return np.concatenate(energies), grad


def _coulomb_terms(block: np.ndarray):
    """Energies (B,) of a block (B, n, 3) and the pair arrays of its gradients.

    The pair array is coordinate-major, (B, 2, 3, n, n): pairs[r, 0, k] is
    p_i[k] - p_j[k] and pairs[r, 1, k] is p_i[k] + p_j[k], so every
    operation runs once over n x n planes instead of over inner loops of
    length 3, and once for both signs. The values are those of the
    (B, n, n, 3) form. The distances dist (B, 2, n, n) pair the squares as
    (x0^2 + x2^2) + x1^2, which is how numpy's einsum "rijk,rijk->rij"
    rounds them (pinned by the reference in tests/test_kernels.py); each
    energy sums its flattened n x n planes, as np.sum does for one
    configuration.
    """
    count, n = block.shape[0], block.shape[1]
    comp = np.ascontiguousarray(block.transpose(0, 2, 1))[:, None, :, :, None]
    pairs = np.empty((count, 2, 3, n, n))
    np.subtract(comp, comp.swapaxes(3, 4), out=pairs[:, :1])
    np.add(comp, comp.swapaxes(3, 4), out=pairs[:, 1:])
    squares = pairs * pairs
    dist = squares[:, :, 0] + squares[:, :, 2]
    dist += squares[:, :, 1]
    np.sqrt(dist, out=dist)
    planes = dist.reshape(count, 2, n * n)
    planes[:, :, :: n + 1] = np.inf  # the diagonals
    inverse = (1.0 / planes).sum(axis=2)
    return 0.5 * (inverse[:, 0] + inverse[:, 1]), pairs, dist


def _coulomb_grad(pairs, dist) -> np.ndarray:
    """Gradients (B, n, 3) from the arrays of `_coulomb_terms`; overwrites
    `pairs`.

    grad_i = -sum_j dm_ij^-3 (p_i - p_j) - sum_j dp_ij^-3 (p_i + p_j). The
    distances are exactly symmetric and p_i - p_j exactly antisymmetric,
    so each sum over j equals, up to an exact sign, a sum over the first
    pair axis, which numpy adds plane by plane in j order, as the einsum
    it replaces did.
    """
    pairs *= (dist**-3)[:, :, None]
    sums = pairs.sum(axis=3)
    grad = sums[:, 0] - sums[:, 1]
    return np.ascontiguousarray(grad.transpose(0, 2, 1))


def local_maxima(values: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mask of entries strictly greater than all their listed neighbors.

    `values` is one row (G,) or a stack of rows (N, G) over the same grid;
    `neighbors` (G, k) indexes the grid, and one gather serves every row.
    A maximum is exact, so each row gets the mask it gets on its own.
    """
    return values > values[..., neighbors].max(axis=-1)
