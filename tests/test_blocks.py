"""The region path in voxel blocks: `load_prior_field` and the region
greedy give the bits of one block whatever the block size, fail on a bad
voxel in the last block as on one block, and keep their temporaries within
the block budget whatever the voxel count."""

import struct
import tracemalloc

import numpy as np
import pytest

from qsdesign import _kernels, prior
from qsdesign.cli import main
from qsdesign.design import default_candidates, greedy_design_region
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.prior import PriorField, RankRule, VoxelPrior, load_prior_field, save_prior_field

VOXELS = 10  # not a multiple of the 3-voxel blocks below
HEADER_BYTES = 8 + struct.calcsize("<IIId3II")


def mixed_rank_field(rng, voxels, degree=4, rule=RankRule("fraction", 0.9)):
    """A (voxels, 1, 1) field whose covariance spectra, and so ranks, differ."""
    j = _kernels.basis_dimension(degree)
    field = PriorField((voxels, 1, 1), {}, degree, rule)
    for v in range(voxels):
        q, _ = np.linalg.qr(rng.standard_normal((j, j)))
        spectrum = np.exp(-rng.uniform(0.2, 2.0) * np.arange(j))
        cov = (q * spectrum) @ q.T
        field.add((v, 0, 0), VoxelPrior.from_moments(rng.standard_normal(j), cov, rng.uniform(0.01, 0.1), rule))
    return field


@pytest.fixture
def field_path(rng, tmp_path):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, VOXELS), path)
    return path


def test_load_blocks_keep_the_bits(field_path, monkeypatch):
    whole = load_prior_field(field_path)  # 10 voxels of J = 15: one block
    assert prior._LOAD_BLOCK_ENTRIES >= VOXELS * 15 * 15
    monkeypatch.setattr(prior, "_LOAD_BLOCK_ENTRIES", 3 * 15 * 15)
    blocked = load_prior_field(field_path)
    assert list(blocked.priors) == list(whole.priors)
    for index, want in whole.priors.items():
        got = blocked.priors[index]
        for name in ("mean", "covariance", "eigenvalues", "eigenvectors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.noise_variance == want.noise_variance


def test_region_greedy_blocks_keep_the_bits(field_path, monkeypatch, basis4):
    field = load_prior_field(field_path)
    priors = [field.priors[index] for index in sorted(field.priors)]
    assert len({p.rank for p in priors}) > 1  # so some voxels are zero-padded
    weights = np.full(VOXELS, 1.0 / VOXELS)
    pool = default_candidates(60)
    whole = greedy_design_region(pool, priors, weights, basis4, 12)
    kmax = max(p.rank for p in priors)
    assert _kernels._GAINS_BLOCK_ENTRIES >= VOXELS * 60 * kmax
    monkeypatch.setattr(_kernels, "_GAINS_BLOCK_ENTRIES", 3 * 60 * kmax)
    blocked = greedy_design_region(pool, priors, weights, basis4, 12)
    assert blocked.selected == whole.selected
    assert blocked.objective_history.tobytes() == whole.objective_history.tobytes()


def test_stacked_gains_equal_one_voxel_calls_across_block_edges(rng, monkeypatch):
    n, k = 40, 5
    psi = rng.standard_normal((VOXELS, n, k))
    half = rng.standard_normal((VOXELS, k, k))
    dmat = half @ half.transpose(0, 2, 1) / k
    psi[-1, :, -1] = 0.0  # a padded voxel in the last block
    dmat[-1, -1, :] = dmat[-1, :, -1] = 0.0
    noise = rng.uniform(1e-4, 0.1, size=(VOXELS, 1))
    whole = _kernels.greedy_gains(psi, dmat, noise)
    monkeypatch.setattr(_kernels, "_GAINS_BLOCK_ENTRIES", 3 * n * k)
    blocked = _kernels.greedy_gains(psi, dmat, noise)
    assert blocked.shape == (VOXELS, n)
    assert blocked.tobytes() == whole.tobytes()
    for v in range(VOXELS):
        assert blocked[v].tobytes() == _kernels.greedy_gains(psi[v], dmat[v], float(noise[v, 0])).tobytes()


def corrupt_last_covariance(path, value):
    """Write `value` over every covariance entry of the file's last voxel."""
    data = bytearray(path.read_bytes())
    j, ntri = 15, 15 * 16 // 2
    record = 12 + 8 + 8 * j + 8 * ntri
    start = HEADER_BYTES + (VOXELS - 1) * record + 12 + 8 + 8 * j
    data[start : start + 8 * ntri] = np.full(ntri, value, dtype="<f8").tobytes()
    assert len(data) == HEADER_BYTES + VOXELS * record
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "value, error, code", [(np.nan, ValidationError, 2), (np.inf, ValidationError, 2), (0.0, DegeneracyError, 3)]
)
def test_bad_covariance_in_last_block_fails(field_path, monkeypatch, tmp_path, value, error, code):
    monkeypatch.setattr(prior, "_LOAD_BLOCK_ENTRIES", 3 * 15 * 15)
    corrupt_last_covariance(field_path, value)
    with pytest.raises(error):
        load_prior_field(field_path)
    argv = ["design", "--prior", str(field_path), "--mode", "region", "--budget", "3",
            "--candidates", "30", "--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert not (tmp_path / "out" / "design_region_003.json").exists()


# The memory bounds: tracemalloc's peak over what the call keeps (load) or
# over what the greedy must hold for V voxels (region design), against a
# small multiple of one block. At degree 8 the default blocks hold 32 voxels
# (load) and 25 voxels (greedy), so 48 and 384 voxels are both several blocks.
BLOCK_COPIES = 4


def traced(call):
    """(result, peak bytes over the start, bytes still held with the result alive)."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


@pytest.mark.parametrize("voxels", [48, 384])
def test_load_temporaries_stay_within_the_block_budget(rng, tmp_path, voxels):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8)), path)
    load_prior_field(path)  # first-use caches out of the traced call
    field, peak, kept = traced(lambda: load_prior_field(path))
    assert len(field) == voxels
    file_bytes = path.stat().st_size  # the records the load reads whole
    assert peak - kept - file_bytes <= BLOCK_COPIES * prior._LOAD_BLOCK_ENTRIES * 8


@pytest.mark.parametrize("voxels", [48, 384])
def test_region_greedy_temporaries_stay_within_the_block_budget(rng, voxels, basis8):
    field = mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8))
    priors = list(field.priors.values())
    weights = np.full(voxels, 1.0 / voxels)
    pool = default_candidates()
    greedy_design_region(pool, priors[:1], weights[:1] * voxels, basis8, 2)  # first-use caches
    _, peak, _ = traced(lambda: greedy_design_region(pool, priors, weights, basis8, 5))
    n, j, k = len(pool), basis8.dimension, 8
    # psi (V, N, K), the (V, J, K) eigenvectors it is built from, one gains
    # row per voxel and the (V, K, K) covariances and downdate terms
    held = voxels * (n * k + j * k + n + 4 * k * k) * 8
    assert peak - held <= BLOCK_COPIES * _kernels._GAINS_BLOCK_ENTRIES * 8
