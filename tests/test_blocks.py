"""Loops in blocks of `_kernels.blocks`: every result has the bits of one
block whatever the block size. Peak detection keeps its grid phase within
one block whatever the row count. On the region path, both `.qpf` readers
(`load_prior_field`, and `load_eigen_stack`, which design reads with) and
the region greedy fail on a bad voxel in the last block as on one block,
and the loads, the save and the greedy keep their temporaries within the
block budget whatever the voxel count. The loads check every voxel index
before they decompose any voxel, never hold the file's records whole and
keep nothing but what they return: the priors, or the stacked eigen form
with no per-voxel object."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from qsdesign import _kernels, design, metrics, prior
from qsdesign.cli import main
from qsdesign.design import default_candidates, esr_design, greedy_design_region
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.metrics import find_peaks, find_peaks_batch
from qsdesign.prior import PriorField, RankRule, VoxelPrior, load_eigen_stack, load_prior_field, save_prior_field
from qsdesign.sim import GenerativeConfig, generate_cohort
from qsdesign.sphere import ShBasis

from conftest import random_unit_vectors, stack_of

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
    stack = stack_of(list(mixed_rank_field(rng, VOXELS).priors.values()))
    pool, basis = default_candidates(60), ShBasis(4)

    def run():
        result = greedy_design_region(pool, stack, basis, 12)
        return np.array(result.selected).tobytes() + result.objective_history.tobytes()

    return run


def save_case(rng, tmp_path):
    field = mixed_rank_field(rng, 48, degree=8)  # two blocks at the default budget
    path = tmp_path / "saved.qpf"

    def run():
        save_prior_field(field, path)
        return path.read_bytes() + (tmp_path / "saved.qpf.json").read_bytes()

    return run


def saved_field(rng, tmp_path):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, 48, degree=8), path)
    return path


def load_case(rng, tmp_path):
    path = saved_field(rng, tmp_path)

    def run():
        loaded = load_prior_field(path)
        parts = [np.array(list(loaded.priors)).tobytes()]
        for p in loaded.priors.values():
            parts += [getattr(p, name).tobytes() for name in ("mean", "covariance", "eigenvalues", "eigenvectors")]
            parts.append(struct.pack("<d", p.noise_variance))
        return b"".join(parts)

    return run


def eigen_load_case(rng, tmp_path):
    path = saved_field(rng, tmp_path)

    def run():
        _, indices, stack = load_eigen_stack(path)
        return b"".join(a.tobytes() for a in (indices, stack.eigenvalues, stack.eigenvectors, stack.noise_variances))

    return run


def fodf_rows(count):
    """Degree-8 fODF coefficient rows of a synthetic cohort, with a zero row last."""
    basis = ShBasis(8)
    rows = [t.fodf for t in generate_cohort(basis, GenerativeConfig(), count - 1, 5)]
    return np.array([*rows, np.zeros(basis.dimension)])


def peak_bytes(peak_sets):
    return b"".join(p.directions.tobytes() + p.values.tobytes() for p in peak_sets)


def peaks_case(rng, tmp_path):
    rows = fodf_rows(5)
    return lambda: peak_bytes(find_peaks_batch(rows, ShBasis(8), grid_size=1024))


@pytest.mark.parametrize(
    "case",
    [esr_case(20), esr_case(45), sh_matrix_case, candidates_case, region_case, save_case,
     load_case, eigen_load_case, peaks_case],
    ids=["esr 20", "esr 45", "sh_matrix", "candidates", "region greedy", "save", "load", "eigen load", "peaks"],
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


def assert_stack_is_the_full_load(field_path, full):
    """The `load_eigen_stack` of `field_path` holds the eigenpairs and noise
    variances of the field `full`, bit for bit, sorted by index and each
    zero-padded to the largest rank."""
    header, indices, stack = load_eigen_stack(field_path)
    assert (header.shape, header.max_degree, header.rank_rule, len(header)) == (
        full.shape, full.max_degree, full.rank_rule, 0)
    assert [tuple(index) for index in indices.tolist()] == sorted(full.priors)
    kmax = max(p.rank for p in full.priors.values())
    assert stack.eigenvalues.shape == (len(full), kmax) and stack.eigenvectors.shape[2] == kmax
    assert stack.noise_variances.shape == (len(full), 1)
    for v, index in enumerate(sorted(full.priors)):
        want, k = full.priors[index], full.priors[index].rank
        assert stack.ranks[v] == k
        assert stack.eigenvalues[v, :k].tobytes() == want.eigenvalues.tobytes()
        assert stack.eigenvectors[v, :, :k].copy().tobytes() == want.eigenvectors.tobytes()
        assert not stack.eigenvalues[v, k:].any() and not stack.eigenvectors[v, :, k:].any()
        assert stack.noise_variances[v, 0] == want.noise_variance
        for voxel in (v, index):  # its position in index order, or its index: its record alone, unpadded
            _, one_index, one = load_eigen_stack(field_path, voxel)
            assert one_index.tolist() == [list(index)]
            assert (one.eigenvalues.tobytes(), one.eigenvectors.tobytes(), one.noise_variances.tobytes()) == (
                want.eigenvalues.tobytes(), want.eigenvectors.tobytes(), np.array([[want.noise_variance]]).tobytes())


@pytest.mark.parametrize("voxels_a_block", [1, 3, 4, VOXELS])
def test_eigen_load_equals_the_full_load_bit_for_bit(field_path, monkeypatch, voxels_a_block):
    full = load_prior_field(field_path)
    assert len({p.rank for p in full.priors.values()}) > 1
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", voxels_a_block * 15 * 15)
    assert_stack_is_the_full_load(field_path, full)


def test_eigen_load_sorts_the_voxels_and_widens(rng, tmp_path, monkeypatch):
    # a file whose voxels are out of index order, and whose largest rank
    # comes in its last block: the stack sorts the rows and widens to it
    field = mixed_rank_field(rng, VOXELS)
    path = tmp_path / "field.qpf"
    save_prior_field(field, path)
    data = bytearray(path.read_bytes())
    record = (len(data) - HEADER_BYTES) // VOXELS
    records = [data[HEADER_BYTES + v * record : HEADER_BYTES + (v + 1) * record] for v in range(VOXELS)]
    ranks = [field.priors[(v, 0, 0)].rank for v in range(VOXELS)]
    order = sorted(range(VOXELS), key=lambda v: (ranks[v], -v))  # the largest rank last
    path.write_bytes(bytes(data[:HEADER_BYTES]) + b"".join(records[v] for v in order))
    full = load_prior_field(path)
    assert list(full.priors) != sorted(full.priors)
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    assert_stack_is_the_full_load(path, full)


def test_region_greedy_blocks_keep_the_bits(field_path, monkeypatch, basis4):
    _, _, stack = load_eigen_stack(field_path)
    assert len(set(stack.ranks)) > 1  # so some voxels are zero-padded
    pool = default_candidates(60)
    whole = greedy_design_region(pool, stack, basis4, 12)
    kmax = stack.eigenvalues.shape[1]
    assert _kernels._BLOCK_ENTRIES >= VOXELS * 60 * kmax
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 60 * kmax)
    blocked = greedy_design_region(pool, stack, basis4, 12)
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


def maxima_rows(rng, size):
    """Grid rows for `local_maxima`: random, all tied, many ties, one
    maximum at each end of the grid, signed zeros, and infinite and
    extreme finite values; none is NaN."""
    values = rng.standard_normal((9, size))
    values[1] = 0.0
    values[2] = np.round(values[2])
    values[3] = -1.0
    values[3, 0] = 0.0  # the only maximum, at the grid's first point
    values[4] = -1.0
    values[4, -1] = 0.0  # and at its last
    values[5] = np.where(values[5] < 0.0, -0.0, 0.0)  # equal zeros of both signs
    values[6, ::7] = np.inf
    values[7, ::5] = -np.inf
    values[8, ::3] = np.finfo(float).max
    values[8, 1::3] = -np.finfo(float).max
    return values


@pytest.mark.parametrize("budget_rows", [1, 2, 4])
def test_local_maxima_blocks_equal_whole_array_reference(rng, monkeypatch, budget_rows):
    size = 1024
    _, neighbors, _ = metrics._detection_setup(size, ShBasis(4))
    values = maxima_rows(rng, size)  # 9 rows: a part block at the end
    want = np.array([row > row[neighbors].max(axis=1) for row in values])
    assert not want[1].any() and not want[5].any()
    assert want[3, 0] and want[4, -1]
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", budget_rows * size * metrics.NEIGHBOR_COUNT)
    assert len(_kernels.blocks(len(values), size * metrics.NEIGHBOR_COUNT)) == -(-len(values) // budget_rows)
    assert np.array_equal(_kernels.local_maxima(values, neighbors), want)
    for row, mask in zip(values, want):
        assert np.array_equal(_kernels.local_maxima(row, neighbors), mask)


def test_peak_blocks_equal_one_row_calls(monkeypatch):
    rows = fodf_rows(7)
    want = [find_peaks(row, ShBasis(8), grid_size=1024) for row in rows]
    assert {len(p) for p in want} >= {0, 1, 2}
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 1024 * metrics.NEIGHBOR_COUNT)  # 3 rows a block
    got = find_peaks_batch(rows, ShBasis(8), grid_size=1024)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.directions.tobytes() == w.directions.tobytes()
        assert g.values.tobytes() == w.values.tobytes()


def corrupt_last_covariance(path, value):
    """Write `value` over every covariance entry of the file's last voxel."""
    data = bytearray(path.read_bytes())
    j, ntri = 15, 15 * 16 // 2
    record = 12 + 8 + 8 * j + 8 * ntri
    start = HEADER_BYTES + (VOXELS - 1) * record + 12 + 8 + 8 * j
    data[start : start + 8 * ntri] = np.full(ntri, value, dtype="<f8").tobytes()
    assert len(data) == HEADER_BYTES + VOXELS * record
    path.write_bytes(bytes(data))


def refuse_decomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a voxel was decomposed before every record was checked")

    monkeypatch.setattr(prior, "_truncate_ranks", refuse)


# a record: index (3 x <i4), noise variance (<f8), mean (15 x <f8), covariance triangle
@pytest.mark.parametrize(
    "offset, fmt, values, message",
    [(0, "<3i", (VOXELS, 0, 0), f"voxel index ({VOXELS}, 0, 0) outside field shape ({VOXELS}, 1, 1)"),
     (0, "<3i", (0, 0, 0), "repeats voxel (0, 0, 0)"),
     (20, "<d", (np.nan,), "prior mean, covariance and eigenpairs must be finite"),
     (12, "<d", (0.0,), "noise variance must be finite and positive, got 0.0"),
     (20 + 8 * 15, "<d", (np.nan,), "covariance must be finite")],
    ids=["outside", "repeated", "nan-mean", "zero-noise", "nan-covariance"],
)
def test_bad_index_in_last_block_fails_before_any_decomposition(field_path, monkeypatch, tmp_path, offset, fmt,
                                                                values, message):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    refuse_decomposition(monkeypatch)
    data = bytearray(field_path.read_bytes())
    record = (len(data) - HEADER_BYTES) // VOXELS
    struct.pack_into(fmt, data, HEADER_BYTES + (VOXELS - 1) * record + offset, *values)
    field_path.write_bytes(bytes(data))
    for load in (load_prior_field, load_eigen_stack):
        with pytest.raises(ValidationError, match=re.escape(message)):
            load(field_path)
    for mode in ("region", "single"):
        argv = ["design", "--prior", str(field_path), "--mode", mode, "--budget", "3", "--out", str(tmp_path / mode)]
        assert main(argv) == 2


@pytest.mark.parametrize(
    "argv, message",
    [(["prior-interp", "--query", "a,b,c"], "expected three comma-separated numbers, got 'a,b,c'"),
     (["prior-interp", "--query", f"{VOXELS},0,0"], f"query [{VOXELS}.0, 0.0, 0.0] outside field bounding box"),
     (["design", "--budget", "3", "--voxel", "a,b,c"], "expected three comma-separated integers, got 'a,b,c'")],
    ids=["text-query", "query-outside", "text-voxel"],
)
def test_bad_argument_fails_before_any_decomposition(field_path, monkeypatch, tmp_path, capsys, argv, message):
    refuse_decomposition(monkeypatch)
    assert main([*argv, "--prior", str(field_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_single_mode_decomposes_one_record(field_path, monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    seen, decompose = [], prior._truncate_ranks
    monkeypatch.setattr(prior, "_truncate_ranks", lambda covs, rule: seen.append(len(covs)) or decompose(covs, rule))
    for voxel in ([], ["--voxel", "7,0,0"]):
        seen.clear()
        argv = ["design", "--prior", str(field_path), "--budget", "3", "--candidates", "30", *voxel]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert seen == [1]


@pytest.mark.parametrize(
    "value, error, code", [(np.nan, ValidationError, 2), (np.inf, ValidationError, 2), (0.0, DegeneracyError, 3)]
)
def test_bad_covariance_in_last_block_fails(field_path, monkeypatch, tmp_path, value, error, code):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 3 * 15 * 15)
    corrupt_last_covariance(field_path, value)
    for load in (load_prior_field, load_eigen_stack):
        with pytest.raises(error):
            load(field_path)
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
    # the records are read a block at a time: at 384 voxels the whole file
    # (3.3 MB) would alone exceed this bound
    assert peak - kept <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8


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
    names = ("mean", "covariance_tril", "eigenvalues", "eigenvectors")
    arrays = sum(getattr(p, name).nbytes for p in field.priors.values() for name in names)
    # a prior holding a view of the file's records would keep all of them
    assert kept - arrays <= voxels * PRIOR_OBJECT_BYTES < path.stat().st_size


@pytest.mark.parametrize("voxels", [48, 384])
def test_eigen_load_keeps_only_the_eigen_form(rng, tmp_path, voxels):
    path = tmp_path / "field.qpf"
    save_prior_field(mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8)), path)
    load_eigen_stack(path)  # first-use caches out of the traced call
    (field, indices, stack), peak, kept = traced(lambda: load_eigen_stack(path))
    assert len(field) == 0 and len(stack) == voxels
    arrays = sum(a.nbytes for a in (indices, stack.eigenvalues, stack.eigenvectors, stack.noise_variances))
    # no per-voxel object: what is kept beyond the arrays is a few objects'
    # worth (under 7 kB at 3072 voxels), not one a voxel
    assert kept - arrays <= 8 * PRIOR_OBJECT_BYTES
    assert peak - kept <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8


# An interpolated degree-8 voxel of rank 8 keeps its mean, the packed lower
# triangle of its covariance, its eigenpairs and their objects: about 13 kB.
# A kept (J, J) covariance would alone take J^2 * 8 = 16,200 bytes.
def test_interpolated_field_keeps_less_than_a_full_covariance_a_voxel(rng):
    j, rule = _kernels.basis_dimension(8), RankRule("fixed", 8)
    coarse = PriorField((2, 2, 2), {}, 8, rule)
    for index in np.ndindex(2, 2, 2):
        q, _ = np.linalg.qr(rng.standard_normal((j, j)))
        cov = (q * np.exp(-rng.uniform(0.2, 2.0) * np.arange(j))) @ q.T
        coarse.add(index, VoxelPrior.from_moments(rng.standard_normal(j), cov, rng.uniform(0.01, 0.1), rule))
    prior.interpolate_prior(coarse, [0.5, 0.5, 0.5])  # the corners' cached logs, out of the traced call
    queries = rng.uniform(0.0, 1.0, size=(216, 3))

    def interpolated():
        fine = PriorField((6, 6, 6), {}, 8, rule)
        for index, query in zip(np.ndindex(6, 6, 6), queries):
            fine.add(index, prior.interpolate_prior(coarse, query))
        return fine

    fine, _, kept = traced(interpolated)
    assert len(fine) == 216
    assert kept / len(fine) < j * j * 8


# at 1024 voxels a (V, N) gains table (2.6 MB) would alone exceed the bound
@pytest.mark.parametrize("voxels", [48, 384, 1024])
def test_region_greedy_temporaries_stay_within_the_block_budget(rng, voxels, basis8):
    field = mixed_rank_field(rng, voxels, degree=8, rule=RankRule("fixed", 8))
    stack = stack_of(list(field.priors.values()))
    pool = default_candidates()
    greedy_design_region(pool, stack_of(list(field.priors.values())[:1]), basis8, 2)  # first-use caches
    _, peak, _ = traced(lambda: greedy_design_region(pool, stack, basis8, 5))
    k = 8
    # the (V, K, K) covariances; the stack's eigenvectors are read, not
    # copied, and psi, the gains and the downdate terms are one block's
    held = voxels * 4 * k * k * 8
    assert peak - held <= BLOCK_COPIES * _kernels._BLOCK_ENTRIES * 8


# Peak detection's traced peak may grow with the row count only through the
# ascent, whose arrays hold a few kB a row at degree 8. A whole-batch
# neighbour gather would grow by G k 8 bytes (256 kB) a row, 15.7 MB from
# 4 to 64 rows.
PEAK_GROWTH_BYTES = 2 * _kernels._BLOCK_ENTRIES * 8


def test_peak_detection_memory_does_not_grow_with_the_batch(basis8):
    rows = fodf_rows(64)
    find_peaks_batch(rows[:1], basis8)  # first-use caches out of the traced calls
    _, small, _ = traced(lambda: find_peaks_batch(rows[:4], basis8))
    _, large, _ = traced(lambda: find_peaks_batch(rows, basis8))
    assert large - small <= PEAK_GROWTH_BYTES
