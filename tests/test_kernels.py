"""Kernel checks: the numpy kernels against loop references, and the numba
kernels against the numpy ones."""

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
    out = _kernels.sh_matrix_numpy(xyz, max_degree)
    assert out.flags.c_contiguous
    assert np.array_equal(out, reference_sh_matrix(xyz, max_degree))


def test_sh_matrix_numpy_rows_do_not_depend_on_batch(rng):
    xyz = random_unit_vectors(rng, 333)
    full = _kernels.sh_matrix_numpy(xyz, 8)
    for start, stop in [(0, 1), (17, 21), (200, 333)]:
        assert np.array_equal(_kernels.sh_matrix_numpy(xyz[start:stop], 8), full[start:stop])

needs_numba = pytest.mark.skipif(
    not _kernels.USING_NUMBA, reason="numba disabled or unavailable"
)


@needs_numba
@pytest.mark.parametrize("max_degree", [0, 2, 4, 8, 12])
def test_sh_matrix_paths_agree(max_degree, rng):
    xyz = random_unit_vectors(rng, 500)
    a = _kernels.sh_matrix_numba(xyz, max_degree)
    b = _kernels.sh_matrix_numpy(xyz, max_degree)
    assert np.abs(a - b).max() < 1e-13


@needs_numba
def test_greedy_gains_paths_agree(rng):
    psi = rng.standard_normal((321, 15))
    half = rng.standard_normal((15, 15))
    dmat = half @ half.T / 15
    for sigma2 in (1e-4, 0.01, 1.0):
        a = _kernels.greedy_gains_numba(psi, dmat, sigma2)
        b = _kernels.greedy_gains_numpy(psi, dmat, sigma2)
        assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(b).max())


@needs_numba
def test_coulomb_paths_agree(rng):
    pts = random_unit_vectors(rng, 64)
    ea, ga = _kernels.coulomb_energy_grad_numba(pts)
    eb, gb = _kernels.coulomb_energy_grad_numpy(pts)
    assert ea == pytest.approx(eb, rel=1e-12)
    assert np.abs(ga - gb).max() < 1e-9


@needs_numba
def test_local_maxima_paths_agree(rng):
    values = rng.standard_normal(2048)
    neighbors = rng.integers(0, 2048, size=(2048, 8))
    a = _kernels.local_maxima_numba(values, neighbors)
    b = _kernels.local_maxima_numpy(values, neighbors)
    assert np.array_equal(a, b)


def test_coulomb_gradient_matches_finite_differences(rng):
    pts = random_unit_vectors(rng, 8)
    energy, grad = _kernels.coulomb_energy_grad_numpy(pts)
    h = 1e-6
    for i in range(3):
        for k in range(3):
            bumped = pts.copy()
            bumped[i, k] += h
            e_plus, _ = _kernels.coulomb_energy_grad_numpy(bumped)
            bumped[i, k] -= 2 * h
            e_minus, _ = _kernels.coulomb_energy_grad_numpy(bumped)
            fd = (e_plus - e_minus) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_env_flag_spelling():
    assert not _kernels.numba_disabled_by_env() or _kernels.sh_matrix is _kernels.sh_matrix_numpy
