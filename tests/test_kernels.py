"""Kernel checks: each kernel against a loop or single-configuration reference."""

import numpy as np
import pytest

from qsdesign import _kernels

from conftest import random_unit_vectors


def reference_sh_matrix(xyz, max_degree):
    """The textbook loop form of the SH recurrence, one (l, m) at a time."""
    L = max_degree
    n = xyz.shape[0]
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    s = np.hypot(x, y)
    phi = np.arctan2(y, x)

    pbar = np.zeros((L + 1, L + 1, n))
    pbar[0, 0] = _kernels.INV_SQRT_4PI
    for m in range(1, L + 1):
        pbar[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pbar[m - 1, m - 1]
    for m in range(L):
        pbar[m + 1, m] = np.sqrt(2.0 * m + 3.0) * z * pbar[m, m]
    for m in range(max(L - 1, 0)):
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            pbar[l, m] = a * (z * pbar[l - 1, m] - b * pbar[l - 2, m])

    out = np.empty((n, _kernels.basis_dimension(L)))
    root2 = np.sqrt(2.0)
    j = 0
    for l in range(0, L + 1, 2):
        for m in range(-l, l + 1):
            if m < 0:
                out[:, j] = root2 * pbar[l, -m] * np.sin(-m * phi)
            elif m == 0:
                out[:, j] = pbar[l, 0]
            else:
                out[:, j] = root2 * pbar[l, m] * np.cos(m * phi)
            j += 1
    return out


SPECIAL_POINTS = np.array(
    [
        [0.0, 0.0, 1.0],  # poles: s = 0 and phi = 0
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],  # equator: z = 0, phi = 0, pi/2, pi, -pi/2
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
        [np.sqrt(0.5), np.sqrt(0.5), 0.0],
    ]
)


@pytest.mark.parametrize("max_degree", [0, 2, 4, 8, 12])
@pytest.mark.parametrize("n", [1, 4, 333])
def test_sh_matrix_numpy_equals_loop_reference(max_degree, n, rng):
    xyz = random_unit_vectors(rng, n)
    xyz[: min(n, len(SPECIAL_POINTS))] = SPECIAL_POINTS[:n]
    out = _kernels.sh_matrix(xyz, max_degree)
    assert out.flags.c_contiguous
    assert np.array_equal(out, reference_sh_matrix(xyz, max_degree))


def test_sh_matrix_numpy_rows_do_not_depend_on_batch(rng):
    xyz = random_unit_vectors(rng, 333)
    full = _kernels.sh_matrix(xyz, 8)
    for start, stop in [(0, 1), (17, 21), (200, 333)]:
        assert np.array_equal(_kernels.sh_matrix(xyz[start:stop], 8), full[start:stop])


@pytest.mark.parametrize("max_degree", [8, 12])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
def test_sh_matrix_blocks_equal_loop_reference(max_degree, blocks, extra, rng):
    block_points = _kernels.blocks(1, (max_degree + 1) ** 2)[0].stop  # points a block
    xyz = random_unit_vectors(rng, blocks * block_points + extra)
    xyz[: len(SPECIAL_POINTS)] = SPECIAL_POINTS
    out = _kernels.sh_matrix(xyz, max_degree)
    ref = reference_sh_matrix(xyz, max_degree)
    assert out.flags.c_contiguous and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def reference_greedy_gains(psi, dmat, noise_variance):
    """One candidate at a time: ||D v||^2 / (sigma^2 + v' D v)."""
    out = np.empty(psi.shape[0])
    for i, v in enumerate(psi):
        dv = dmat @ v
        out[i] = (dv @ dv) / (noise_variance + v @ dv)
    return out


@pytest.mark.parametrize("k", [1, 3, 8])
def test_greedy_gains_stack_equals_per_voxel_reference(k, rng):
    # the last voxel is padded: its final column and row are exactly zero
    psi = rng.standard_normal((3, 40, k))
    half = rng.standard_normal((3, k, k))
    dmat = half @ half.transpose(0, 2, 1) / k
    psi[-1, :, -1] = 0.0
    dmat[-1, -1, :] = dmat[-1, :, -1] = 0.0
    noise = np.array([[1e-4], [0.01], [0.2]])
    gains = _kernels.greedy_gains(psi, dmat, noise)
    assert gains.shape == (3, 40)
    for v in range(3):
        single = _kernels.greedy_gains(psi[v], dmat[v], float(noise[v, 0]))
        assert np.array_equal(gains[v], single)
        np.testing.assert_allclose(single, reference_greedy_gains(psi[v], dmat[v], noise[v, 0]), rtol=1e-12)
    if k > 1:
        unpadded = _kernels.greedy_gains(psi[-1, :, :-1], dmat[-1, :-1, :-1], 0.2)
        np.testing.assert_allclose(gains[-1], unpadded, rtol=1e-12)


def reference_coulomb_energy_grad(points):
    """The one-configuration Coulomb kernel: (n, 3) in, (float, (n, 3)) out."""
    diff = points[:, None, :] - points[None, :, :]
    ssum = points[:, None, :] + points[None, :, :]
    dm = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dp = np.sqrt(np.einsum("ijk,ijk->ij", ssum, ssum))
    np.fill_diagonal(dm, np.inf)
    np.fill_diagonal(dp, np.inf)
    energy = 0.5 * float(np.sum(1.0 / dm) + np.sum(1.0 / dp))
    grad = -np.einsum("ij,ijk->ik", dm**-3, diff) - np.einsum("ij,ijk->ik", dp**-3, ssum)
    return energy, grad


@pytest.mark.parametrize("n", [2, 3, 5, 17, 30, 45, 64, 90])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_coulomb_stack_equals_per_configuration_reference(count, n, rng):
    stack = np.stack([random_unit_vectors(rng, n) for _ in range(count)])
    energy, grad = _kernels.coulomb_energy_grad(stack)
    assert energy.shape == (count,) and grad.shape == (count, n, 3)
    for r in range(count):
        ref_energy, ref_grad = reference_coulomb_energy_grad(stack[r])
        assert energy[r] == ref_energy
        assert np.array_equal(grad[r], ref_grad)


@pytest.mark.parametrize("n", [2, 30, 90])
def test_coulomb_single_configuration_returns_float(n, rng):
    pts = random_unit_vectors(rng, n)
    energy, grad = _kernels.coulomb_energy_grad(pts)
    ref_energy, ref_grad = reference_coulomb_energy_grad(pts)
    assert type(energy) is float and energy == ref_energy
    assert grad.shape == (n, 3) and np.array_equal(grad, ref_grad)


def test_coulomb_gradient_matches_finite_differences(rng):
    pts = random_unit_vectors(rng, 8)
    energy, grad = _kernels.coulomb_energy_grad(pts)
    h = 1e-6
    for i in range(3):
        for k in range(3):
            bumped = pts.copy()
            bumped[i, k] += h
            e_plus, _ = _kernels.coulomb_energy_grad(bumped)
            bumped[i, k] -= 2 * h
            e_minus, _ = _kernels.coulomb_energy_grad(bumped)
            fd = (e_plus - e_minus) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_local_maxima_rows_equal_per_row_calls(rng):
    values = rng.standard_normal((6, 512))
    values[1] = 0.0  # all tied: no strict maximum
    values[2] = np.round(values[2])  # many ties
    values[3] = -values[0]
    neighbors = rng.integers(0, 512, size=(512, 8))
    masks = _kernels.local_maxima(values, neighbors)
    assert masks.shape == values.shape
    assert not masks[1].any()
    for row, mask in zip(values, masks):
        assert np.array_equal(mask, _kernels.local_maxima(row, neighbors))
        assert np.array_equal(mask, row > row[neighbors].max(axis=1))


# (m, d, N): basis matrices of the pipeline's designs, its candidate pool and
# its detection grid, at J = 45 and J = 15, and an empty batch
SHARED_SHAPES = [(90, 45, 100), (30, 45, 60), (5, 45, 16), (20, 15, 8), (321, 45, 3), (4096, 45, 16), (30, 45, 0)]


@pytest.mark.parametrize("m,d,n", SHARED_SHAPES)
def test_row_products_shared_matrix_equals_one_row_products(m, d, n, rng):
    a = rng.standard_normal((m, d))  # C-order, as a basis matrix
    rows = rng.standard_normal((n, d))
    got = _kernels.row_products(a, rows)
    want = np.array([a @ x for x in rows]).reshape(n, m)
    assert got.shape == (n, m)
    assert got.tobytes() == want.tobytes()
    # the transposed view, as `phi.T` takes rows of observed values
    rows_t = rng.standard_normal((n, m))
    got_t = _kernels.row_products(a.T, rows_t)
    want_t = np.array([a.T @ x for x in rows_t]).reshape(n, d)
    assert got_t.shape == (n, d)
    assert got_t.tobytes() == want_t.tobytes()


@pytest.mark.parametrize("m,d,n", [(4, 45, 60), (4, 15, 7), (1, 45, 9), (4, 45, 0)])
def test_row_products_stack_equals_one_row_products(m, d, n, rng):
    # (N, 4, J) is the peak ascent's probe stack, (N, 1, J) its candidate values
    a = rng.standard_normal((n, m, d))
    rows = rng.standard_normal((n, d))
    got = _kernels.row_products(a, rows)
    want = np.array([a_i @ x_i for a_i, x_i in zip(a, rows)]).reshape(n, m)
    assert got.shape == (n, m)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 100, 0])
def test_row_products_dots_equal_one_pair_dots(n, rng):
    # (N, 1, 3) views of (N, 3) stacks, as the peak ascent's norms take them
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((n, 3))
    got = _kernels.row_products(x[:, None, :], y)[:, 0]
    want = np.array([x_i @ y_i for x_i, y_i in zip(x, y)]).reshape(n)
    assert got.tobytes() == want.tobytes()
