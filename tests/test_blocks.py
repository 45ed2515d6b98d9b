"""Loops in blocks of `_kernels.blocks`: every result has the bits of one
block whatever the block size. On the region path, `load_prior_field` and
the region greedy fail on a bad voxel in the last block as on one block,
and the load, the save and the greedy keep their temporaries within the
block budget whatever the voxel count. The load checks every voxel index
before it decomposes any voxel, and keeps nothing but the priors."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from qsdesign import _kernels, design, prior
from qsdesign.cli import main
from qsdesign.design import default_candidates, esr_design, greedy_design_region
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.prior import PriorField, RankRule, VoxelPrior, load_prior_field, save_prior_field
from qsdesign.sphere import ShBasis

from conftest import random_unit_vectors

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


# Each case builds its inputs, then returns a call whose result is bytes.
def esr_case(count):
    return lambda rng, tmp_path: lambda: esr_design(count, seed=count).tobytes()


def sh_matrix_case(rng, tmp_path):
    xyz = random_unit_vectors(rng, 333)
    return lambda: _kernels.sh_matrix(xyz, 8).tobytes()


def candidates_case(rng, tmp_path):
    def run():
        points = default_candidates(321).points
        return points.tobytes() + struct.pack("<d", design._closest_cosine(points))

    return run


def region_case(rng, tmp_path):
    priors = list(mixed_rank_field(rng, VOXELS).priors.values())
    pool, basis = default_candidates(60), ShBasis(4)

    def run():
        result = greedy_design_region(pool, priors, basis, 12)
        return np.array(result.selected).tobytes() + result.objective_history.tobytes()

    return run


def save_case(rng, tmp_path):
    field = mixed_rank_field(rng, 48, degree=8)  # two blocks at the default budget
    path = tmp_path / "saved.qpf"

    def run():
        save_prior_field(field, path)
        return path.read_bytes() + (tmp_path / "saved.qpf.json").read_bytes()

    return run


def load_case(rng, tmp_path):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, 48, degree=8), path)
    names = ("mean", "covariance", "eigenvalues", "eigenvectors")

    def run():
        loaded = load_prior_field(path)
        parts = [np.array(list(loaded.priors)).tobytes()]
        for p in loaded.priors.values():
            parts += [getattr(p, name).tobytes() for name in names] + [struct.pack("<d", p.noise_variance)]
        return b"".join(parts)

    return run


@pytest.mark.parametrize(
    "case",
    [esr_case(20), esr_case(45), sh_matrix_case, candidates_case, region_case, save_case, load_case],
    ids=["esr 20", "esr 45", "sh_matrix", "candidates", "region greedy", "save", "load"],
)
def test_block_size_never_changes_a_result(case, rng, tmp_path, monkeypatch):
    run = case(rng, tmp_path)
    want = run()
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 1)  # one item a block in every loop
    assert run() == want


def test_load_blocks_keep_the_bits(field_path, monkeypatch):
    whole = load_prior_field(field_path)  # 10 voxels of J = 15: one block
    assert _kernels._BLOCK_ENTRIES >= VOXELS * 15 * 15
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
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
    pool = default_candidates(60)
    whole = greedy_design_region(pool, priors, basis4, 12)
    kmax = max(p.rank for p in priors)
    assert _kernels._BLOCK_ENTRIES >= VOXELS * 60 * kmax
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 60 * kmax)
    blocked = greedy_design_region(pool, priors, basis4, 12)
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
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * n * k)
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
    "index, message",
    [((VOXELS, 0, 0), f"voxel index ({VOXELS}, 0, 0) outside field shape ({VOXELS}, 1, 1)"),
     ((0, 0, 0), "repeats voxel (0, 0, 0)")],
    ids=["outside", "repeated"],
)
def test_bad_index_in_last_block_fails_before_any_decomposition(field_path, monkeypatch, index, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a voxel was decomposed before every index was checked")

    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    monkeypatch.setattr(prior, "_truncate_ranks", refuse)
    data = bytearray(field_path.read_bytes())
    record = (len(data) - HEADER_BYTES) // VOXELS
    struct.pack_into("<3i", data, HEADER_BYTES + (VOXELS - 1) * record, *index)
    field_path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_prior_field(field_path)


@pytest.mark.parametrize(
    "value, error, code", [(np.nan, ValidationError, 2), (np.inf, ValidationError, 2), (0.0, DegeneracyError, 3)]
)
def test_bad_covariance_in_last_block_fails(field_path, monkeypatch, tmp_path, value, error, code):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    corrupt_last_covariance(field_path, value)
    with pytest.raises(error):
        load_prior_field(field_path)
    argv = ["design", "--prior", str(field_path), "--mode", "region", "--budget", "3",
            "--candidates", "30", "--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert not (tmp_path / "out" / "design_region_003.json").exists()


# The memory bounds: tracemalloc's peak over what the call keeps (load and
# save) or over what the greedy must hold for V voxels (region design),
# against a small multiple of one block. At degree 8 the default blocks hold
# 32 voxels (load and save) and 25 voxels (greedy), so 48 and 384 voxels are
# both several blocks.
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
    assert peak - kept - file_bytes <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8


@pytest.mark.parametrize("voxels", [48, 384])
def test_save_temporaries_stay_within_the_block_budget(rng, tmp_path, voxels):
    field = mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8))
    path = tmp_path / "field.qpf"
    save_prior_field(field, path)  # first-use caches out of the traced call
    _, peak, kept = traced(lambda: save_prior_field(field, path))
    assert peak - kept <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8


# The Python objects around one loaded voxel's arrays: the VoxelPrior, its
# array headers, the index tuple and its dict slot (about 750 bytes measured).
PRIOR_OBJECT_BYTES = 1024


@pytest.mark.parametrize("voxels", [48, 384])
def test_load_keeps_only_the_priors(rng, tmp_path, voxels):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8)), path)
    load_prior_field(path)  # first-use caches out of the traced call
    field, _, kept = traced(lambda: load_prior_field(path))
    names = ("mean", "covariance", "eigenvalues", "eigenvectors")
    arrays = sum(getattr(p, name).nbytes for p in field.priors.values() for name in names)
    # a prior holding a view of the file's records would keep all of them
    assert kept - arrays <= voxels * PRIOR_OBJECT_BYTES < path.stat().st_size


@pytest.mark.parametrize("voxels", [48, 384])
def test_region_greedy_temporaries_stay_within_the_block_budget(rng, voxels, basis8):
    field = mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8))
    priors = list(field.priors.values())
    pool = default_candidates()
    greedy_design_region(pool, priors[:1], basis8, 2)  # first-use caches
    _, peak, _ = traced(lambda: greedy_design_region(pool, priors, basis8, 5))
    n, j, k = len(pool), basis8.dimension, 8
    # psi (V, N, K), the (V, J, K) eigenvectors it is built from, one gains
    # row per voxel and the (V, K, K) covariances and downdate terms
    held = voxels * (n * k + j * k + n + 4 * k * k) * 8
    assert peak - held <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8
