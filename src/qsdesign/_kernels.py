"""Hot numeric inner loops, one numpy implementation each.

The pipeline calls these kernels by name: `sh_matrix`, `row_products`,
`greedy_gains`, `coulomb_energy_grad` and `local_maxima`.
tests/test_kernels.py checks them against loop references, and
`benchmarks/bench_pipeline.py --workload kernels` times them. Every
kernel is a pure function of its inputs, so results are bitwise
deterministic run to run.

Whole-array forms here keep the bits of the loops they replaced: the
Coulomb kernel runs over coordinate-major pair arrays of configurations of
any sizes but rounds every sum as the one-configuration (n, n, 3) einsum
form did, and `local_maxima` takes a maximum, which is exact, over row
blocks.

The peak-detection grid phase is bounded by the same rule: `local_maxima`
and `metrics.find_peaks_batch` take their rows in `blocks` of G k entries
a row (the (B, k, G) neighbour gather of a block), so the grid values, the
gather and the seed selection of a batch stay within `_BLOCK_ENTRIES`
whatever its row count; the seeds of all rows are then refined together.
"""

import functools
import itertools

import numpy as np

INV_SQRT_4PI = 0.28209479177387814

# The most memory, in bytes, that the arrays one size setting sizes may take:
# a larger request fails before any work instead of in an allocation.
SIZE_CEILING_BYTES = 1 << 30

# Every bounded-memory loop takes its slices from `blocks`: at most this many
# float64 entries (512 kB) of its largest per-item temporary a block, so the
# temporaries stay that size whatever the item count. Block size is a cost
# even where memory is not short: in a fresh process glibc hands temporaries
# of this order back to the operating system when they are freed, and the
# next allocation faults them in again. A loop that runs many short steps
# over the same sizes keeps its blocks' arrays instead, as the ESR descent
# keeps its `CoulombWorkspace`.
_BLOCK_ENTRIES = 1 << 16


def blocks(count: int, item_entries) -> list:
    """Slices that cover `count` items in order, in blocks of at most
    `_BLOCK_ENTRIES` entries at `item_entries` an item, and of one item
    where an item holds more. `item_entries` is one number for every item,
    or a list of one number an item, whose blocks each take as many of the
    next items as fit."""
    if not isinstance(item_entries, list):
        step = max(1, _BLOCK_ENTRIES // max(1, item_entries))
        return [slice(start, start + step) for start in range(0, count, step)]
    slices, start, held = [], 0, 0
    for item, entries in enumerate(item_entries):
        if item > start and held + entries > _BLOCK_ENTRIES:
            slices.append(slice(start, item))
            start, held = item, 0
        held += entries
    return slices + [slice(start, count)] if start < count else slices


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
    variances (V, 1), giving gains (V, N); the region greedy passes one
    voxel block of its `blocks` loop. Stacked matmul makes one BLAS call per
    voxel and the row sums never cross voxels, so every voxel gets the bits
    of its own one-voxel call, whatever the stack.
    """
    v = psi @ dmat
    num = np.einsum("...ij,...ij->...i", v, v)
    den = noise_variance + np.einsum("...ij,...ij->...i", psi, v)
    return num / den


class CoulombWorkspace:
    """Layout and buffers of `coulomb_energy_grad` for one set of configurations.

    `sizes` holds each configuration's point count. The points of all of
    them are coordinate-major, (3, P) with P = sum(sizes), one configuration
    after the other. The configurations are evaluated in `blocks` of the
    6 n^2 entries of a configuration's pair array, so small configurations
    share a group and one of more than half `_BLOCK_ENTRIES` entries takes a
    group alone. Within a group, each run of configurations of one size is a
    segment, whose pairs are one (B, n, n) stack a sign and coordinate. The
    buffers hold the largest group, and every call reuses them through the
    views each group and segment keeps, so a descent that keeps its
    workspace allocates nothing of a pair array's size at its steps.
    """

    def __init__(self, sizes):
        sizes = [int(n) for n in sizes]
        self.ends = ends = [0, *itertools.accumulate(sizes)]  # where each configuration's points start
        slices = blocks(len(sizes), [6 * n * n for n in sizes])
        entries = [sum(n * n for n in sizes[rows]) for rows in slices]
        largest = max(entries, default=0)
        self.pairs = np.empty((2, 3, largest))
        self.dist = np.empty((2, largest))
        self.work = np.empty((2, largest))
        self.plane_sums = np.empty((2, len(sizes)))
        self.energy = np.empty(len(sizes))
        self.signed = np.empty((2, 3, ends[-1]))  # the points and their negatives
        self.sums = np.empty((2, 3, ends[-1]))
        self.grad = np.empty((3, ends[-1]))
        self.groups = [_CoulombGroup(self, sizes, ends, rows, size) for rows, size in zip(slices, entries)]


class _CoulombGroup:
    """One group of a `CoulombWorkspace`: its configurations and points,
    its views of the workspace buffers and its segments."""

    def __init__(self, ws: CoulombWorkspace, sizes: list, ends, rows: slice, entries: int):
        self.configs, cols = rows, slice(ends[rows.start], ends[rows.stop])
        self.pairs = ws.pairs[:, :, :entries]
        self.dist, self.work = ws.dist[:, :entries], ws.work[:, :entries]
        self.energy, self.plane_sums = ws.energy[rows], ws.plane_sums[:, rows]
        self.sums, self.grad = ws.sums[:, :, cols], ws.grad[:, cols]
        # where each configuration's n x n plane starts among the group's entries
        self.entry_starts = list(itertools.accumulate((n * n for n in sizes[rows]), initial=0))
        self.segments, first = [], rows.start
        for k in range(rows.start + 1, rows.stop + 1):
            if k == rows.stop or sizes[k] != sizes[first]:
                self.segments.append(_CoulombSegment(ws, self, sizes[first], first, ends[first], k - first))
                first = k


class _CoulombSegment:
    """A run of `count` configurations of n points in a group, from the
    `first` configuration and the `col`-th point, as views of the workspace
    buffers."""

    def __init__(self, ws: CoulombWorkspace, group: _CoulombGroup, n: int, first: int, col: int, count: int):
        self.n, cols = n, slice(col, col + count * n)
        config = first - group.configs.start
        span = slice(group.entry_starts[config], group.entry_starts[config + count])
        self.stack = group.pairs[:, :, span].reshape(2, 3, count, n, n)
        self.rows = ws.signed[:1, :, cols].reshape(1, 3, count, n, 1)  # p_i
        self.signed_cols = ws.signed[:, :, cols].reshape(2, 3, count, 1, n)  # p_j and -p_j
        self.planes = group.work[:, span].reshape(2, count, n * n)
        self.diagonals = group.dist[:, span].reshape(2, count, n * n)[:, :, :: n + 1]
        self.plane_sums = group.plane_sums[:, config : config + count]
        self.sums = ws.sums[:, :, cols].reshape(2, 3, count, n)


def coulomb_energy_grad(points: np.ndarray, bound: np.ndarray | None = None, workspace=None):
    """Antipodally symmetric Coulomb energy and its Euclidean gradient.

    `points` is one configuration (n, 3), giving (float, (n, 3)): the
    one-configuration case of the workspace form. With a `CoulombWorkspace`,
    `points` is the coordinate-major (3, P) of its configurations, of any
    sizes, and the call gives the workspace's energy buffer (R,) and
    gradient buffer (3, P), which the next call overwrites. With energies
    `bound` (R,), a workspace group whose configurations all have an energy
    at or above their bound is skipped after its energies, and its gradient
    columns keep what the buffer held; every other group, and every group
    without a bound, takes the gradients of all its configurations.
    Electrostatic repulsion keeps a trial only where its energy drops, so
    it needs no gradient for the others, and discards those a group
    computes. Each configuration gets the same bits whatever shares the
    call with it, and the bits of the one-configuration (n, n, 3) einsum
    form of the kernel:

    - the pair array is coordinate-major: pairs[0, k] holds p_i[k] - p_j[k]
      and pairs[1, k] holds p_i[k] + p_j[k] over each configuration's n x n
      plane, so every operation runs once over the planes of a group instead
      of over inner loops of length 3, and once for both signs;
    - the distances pair the squares as (x0^2 + x2^2) + x1^2, which is how
      einsum "ijk,ijk->ij" rounds them (pinned by the reference in
      tests/test_kernels.py);
    - each energy sums its contiguous n x n planes, as np.sum does;
    - grad_i = -sum_j dm_ij^-3 (p_i - p_j) - sum_j dp_ij^-3 (p_i + p_j). The
      distances are exactly symmetric and p_i - p_j exactly antisymmetric,
      so each sum over j equals, up to an exact sign, a sum over the first
      pair axis, which numpy adds plane by plane in j order, as the einsum
      does. dist^-3 is taken over a whole group, for the groups that hold a
      configuration below its bound only.
    """
    if workspace is None:
        energy, grad = coulomb_energy_grad(np.ascontiguousarray(points.T), None, CoulombWorkspace([len(points)]))
        return float(energy[0]), np.ascontiguousarray(grad.T)
    np.copyto(workspace.signed[0], points)
    np.negative(points, out=workspace.signed[1])
    for group in workspace.groups:
        for seg in group.segments:  # p_i - (-p_j) is p_i + p_j exactly
            np.subtract(seg.rows, seg.signed_cols, out=seg.stack)
        pairs, dist, work = group.pairs, group.dist, group.work
        np.multiply(pairs[:, 0], pairs[:, 0], out=dist)
        np.multiply(pairs[:, 2], pairs[:, 2], out=work)
        dist += work
        np.multiply(pairs[:, 1], pairs[:, 1], out=work)
        dist += work
        np.sqrt(dist, out=dist)
        for seg in group.segments:
            seg.diagonals[...] = np.inf
        np.divide(1.0, dist, out=work)
        for seg in group.segments:
            np.add.reduce(seg.planes, axis=2, out=seg.plane_sums)
        np.add(group.plane_sums[0], group.plane_sums[1], out=group.energy)
        group.energy *= 0.5
        if bound is not None and not (group.energy < bound[group.configs]).any():
            continue
        np.power(dist, -3, out=work)
        pairs *= work[:, None]
        for seg in group.segments:
            np.add.reduce(seg.stack, axis=3, out=seg.sums)
        np.subtract(group.sums[0], group.sums[1], out=group.grad)
    return workspace.energy, workspace.grad


def local_maxima(values: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mask of entries strictly greater than all their listed neighbors.

    `values` is one row (G,) or a stack of rows (N, G) over the same grid,
    and `neighbors` (G, k) indexes the grid. A row is a one-row stack. The
    rows are compared in `blocks` of the G k entries of a row's gather: each
    block takes its neighbour values neighbour-major, as (B, k, G) over the
    transposed table, and reduces them across the k planes. The table of
    `metrics._detection_setup` is the transposed view of a C-contiguous
    (k, G) array, so no call copies it. A maximum is exact, so each row gets
    the mask it gets on its own, whatever the block.
    """
    rows = values.reshape(-1, values.shape[-1])
    table = neighbors.T
    mask = np.empty(rows.shape, dtype=bool)
    for block in blocks(rows.shape[0], table.size):
        part = rows[block]
        np.greater(part, np.take(part, table, axis=-1).max(axis=1), out=mask[block])
    return mask.reshape(values.shape)
