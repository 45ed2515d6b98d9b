"""Seeded fuzz tests of the two file readers and of the size checks.

A corrupt `.qpf` prior field or cohort CSV must either load cleanly or
raise ValidationError/DegeneracyError (exit 2 or 3 from the CLI); any other
exception would reach the user as a traceback. A configuration's sizes must
be accepted exactly when the arrays they size fit the ceiling.
"""

import struct

import numpy as np
import pytest

from qsdesign._kernels import basis_dimension
from qsdesign.config import SIZE_CEILING_BYTES, SimConfig, check_field_size
from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.metrics import NEIGHBOR_COUNT
from qsdesign.prior import PriorField, RankRule, load_eigen_stack, load_prior_field, save_prior_field
from qsdesign.sim import PROJECTION_GRID_SIZE, GenerativeConfig, cohort_from_csv, cohort_to_csv, generate_cohort
from qsdesign.sphere import ShBasis

from conftest import random_prior

CASES = 800
HEADER = slice(8, 44)  # after the magic, before the first voxel record
RECORD = 12 + 8 + 8 * 6 + 8 * 21  # index, noise variance, mean, covariance triangle (J = 6)
SPECIAL = (float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e-300, 0.0, -1.0)


def _outcomes(path, blobs, load, check=lambda loaded, blob: None):
    """Write each blob to `path` and load it; count clean loads and rejections.
    `check` asserts what a clean load must satisfy."""
    loaded = rejected = 0
    for label, blob in blobs:
        path.write_bytes(blob)
        try:
            result = load(path)
        except (ValidationError, DegeneracyError):
            rejected += 1
            continue
        except Exception as exc:  # the failure this test exists to catch
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        problem = check(result, blob)
        assert problem is None, f"{label} loaded, but {problem}"
        loaded += 1
    return loaded, rejected


def _qpf_mutations(data, rng):
    kinds = ("header byte", "header field", "voxel index", "special float", "float top byte",
             "any bytes", "truncation", "appended bytes")
    voxels = (len(data) - HEADER.stop) // RECORD
    for case in range(CASES):
        buf = bytearray(data)
        kind = kinds[case % len(kinds)]
        record = HEADER.stop + RECORD * rng.integers(voxels)
        body_float = record + 12 + 8 * rng.integers((RECORD - 12) // 8)
        if kind == "header byte":
            buf[rng.integers(HEADER.start, HEADER.stop)] = rng.integers(256)
        elif kind == "header field":  # J, degree or rank kind code
            struct.pack_into("<I", buf, int(rng.choice([8, 12, 16])), int(rng.integers(8)))
        elif kind == "voxel index":
            struct.pack_into("<i", buf, record + 4 * int(rng.integers(3)), int(rng.integers(-1, 3)))
        elif kind == "special float":
            struct.pack_into("<d", buf, body_float, SPECIAL[rng.integers(len(SPECIAL))])
        elif kind == "float top byte":  # sign and high exponent bits: huge or tiny values
            buf[body_float + 7] = rng.integers(256)
        elif kind == "any bytes":
            for _ in range(rng.integers(1, 5)):
                buf[rng.integers(len(buf))] = rng.integers(256)
        elif kind == "truncation":
            buf = buf[: rng.integers(len(buf))]
        else:
            buf += rng.integers(0, 256, rng.integers(1, 64), dtype=np.uint8).tobytes()
        yield f"qpf case {case} ({kind})", bytes(buf)


def _field_problem(field, blob, tmp_path):
    """What is wrong with a cleanly loaded field, or None."""
    if field.max_degree % 2:
        return f"its basis degree {field.max_degree} is odd"
    dimension = (field.max_degree + 1) * (field.max_degree + 2) // 2  # no basis: the degree may be huge
    for index, prior in field.priors.items():
        if prior.dimension != dimension:
            return f"voxel {index} has J = {prior.dimension}, degree {field.max_degree} needs {dimension}"
        if not (np.isfinite(prior.mean).all() and np.isfinite(prior.covariance).all()):
            return f"voxel {index} holds non-finite values"
    path = tmp_path / "resaved.qpf"
    save_prior_field(field, path)
    if path.read_bytes() != blob:
        return "saving it again writes other bytes"
    return None


def _seed_field_bytes(tmp_path):
    basis = ShBasis(2)
    rng = np.random.default_rng(7)
    field = PriorField((2, 1, 1), {}, basis.max_degree, RankRule("fraction", 0.9))
    for index in ((0, 0, 0), (1, 0, 0)):
        field.add(index, random_prior(basis, rng))
    seed_path = tmp_path / "seed.qpf"
    save_prior_field(field, seed_path)
    data = seed_path.read_bytes()
    assert len(data) == HEADER.stop + 2 * RECORD
    return data


def test_corrupt_prior_field_loads_or_raises(tmp_path):
    blobs = _qpf_mutations(_seed_field_bytes(tmp_path), np.random.default_rng(20240601))
    loaded, rejected = _outcomes(
        tmp_path / "fuzz.qpf", blobs, load_prior_field,
        lambda field, blob: _field_problem(field, blob, tmp_path),
    )
    assert loaded > 0 and rejected > 0


def _eigen_problem(loaded, path):
    """How the `load_eigen_stack` of `path` differs from its full load, or None."""
    _, indices, stack = loaded
    full = load_prior_field(path)
    if [tuple(index) for index in indices.tolist()] != sorted(full.priors):
        return "it holds other voxels than the full load"
    for v, index in enumerate(sorted(full.priors)):
        want, k = full.priors[index], full.priors[index].rank
        if (stack.ranks[v] != k or stack.eigenvalues[v, :k].tobytes() != want.eigenvalues.tobytes()
                or stack.eigenvectors[v, :, :k].copy().tobytes() != want.eigenvectors.tobytes()
                or stack.noise_variances[v, 0] != want.noise_variance):
            return f"voxel {index} differs from the full load"
    return None


def test_corrupt_prior_field_loads_or_raises_in_eigen_form(tmp_path):
    """The stacked eigen-form load that `design` uses: the same verdict on every corrupt file, and
    the full load's eigenpairs and noise variances on every clean one."""
    path, data = tmp_path / "fuzz.qpf", _seed_field_bytes(tmp_path)
    outcomes = [
        _outcomes(path, _qpf_mutations(data, np.random.default_rng(20240601)), load_prior_field),
        _outcomes(path, _qpf_mutations(data, np.random.default_rng(20240601)), load_eigen_stack,
                  lambda loaded, blob: _eigen_problem(loaded, path)),
    ]
    # a clean eigen-form load is a clean full load, so equal counts are equal verdicts
    assert outcomes[0] == outcomes[1] and min(outcomes[1]) > 0


def _csv_mutations(text, rng):
    tokens = ["", "x", "nan", "inf", "-inf", "1e999", "1,2", " ", "0x1", "--1", "1e5"]
    for case in range(CASES):
        lines = text.split("\n")
        row = rng.integers(len(lines) - 1)  # the last element is the empty tail
        cells = lines[row].split(",")
        kind = ("drop cell", "extra cell", "replace cell", "drop line", "duplicate line",
                "blank line", "truncation", "binary bytes")[case % 8]
        if kind == "drop cell":
            del cells[rng.integers(len(cells))]
        elif kind == "extra cell":
            cells.insert(rng.integers(len(cells) + 1), str(rng.choice(tokens)))
        elif kind == "replace cell":
            cells[rng.integers(len(cells))] = str(rng.choice(tokens))
        if kind in ("drop cell", "extra cell", "replace cell"):
            lines[row] = ",".join(cells)
        elif kind == "drop line":
            del lines[row]
        elif kind == "duplicate line":
            lines.insert(row, lines[row])
        elif kind == "blank line":
            lines.insert(row, " ")
        blob = "\n".join(lines).encode()
        if kind == "truncation":
            blob = blob[: rng.integers(len(blob))]
        elif kind == "binary bytes":
            at = rng.integers(len(blob))
            blob = blob[:at] + rng.integers(128, 256, 4, dtype=np.uint8).tobytes() + blob[at:]
        yield f"csv case {case} ({kind})", blob


def test_corrupt_cohort_csv_loads_or_raises(tmp_path):
    cohort = generate_cohort(ShBasis(2), GenerativeConfig(), 4, seed=3)
    seed_path = tmp_path / "seed.csv"
    cohort_to_csv(cohort, seed_path)
    blobs = _csv_mutations(seed_path.read_text(), np.random.default_rng(20240602))
    loaded, rejected = _outcomes(tmp_path / "fuzz.csv", blobs, cohort_from_csv)
    assert loaded > 0 and rejected > 0


# Each size, by the name its refusal gives it, with the float64 entries of
# the arrays it sizes at J basis functions: the sizes that the checks of
# `config` bound, restated in the order they are checked.
SIZE_ARRAYS = {
    "degree": lambda c, j: PROJECTION_GRID_SIZE**2 * j,
    "dense_design_size": lambda c, j: 6 * c["dense_design_size"] ** 2,
    "the largest budget": lambda c, j: 6 * c["budgets"][-1] ** 2,
    "candidate_count": lambda c, j: c["candidate_count"] * (j + 1),
    "peak_grid_size": lambda c, j: c["peak_grid_size"] * (j + NEIGHBOR_COUNT),
    "train_subjects": lambda c, j: c["train_subjects"] * (3 * j + c["dense_design_size"]),
    "test_subjects": lambda c, j: c["test_subjects"] * (3 * j + c["budgets"][-1]),
    "the voxel count of grid_shape": lambda c, j: np.prod(c["grid_shape"], dtype=object) * j * (j + 1),
}


def _size_configs(rng):
    """Configurations with one to three sizes drawn log-uniformly from 1 to
    2^40, which spans every limit, the other keys at their defaults."""
    defaults = {"degree": 8, "dense_design_size": 90, "budgets": [90], "candidate_count": 321,
                "peak_grid_size": 4096, "train_subjects": 200, "test_subjects": 100, "grid_shape": [1, 1, 1]}
    keys = ("degree", "dense_design_size", "budgets", "candidate_count", "peak_grid_size",
            "train_subjects", "test_subjects", "grid_shape")
    for case in range(CASES):
        config = dict(defaults)
        for key in rng.choice(keys, rng.integers(1, 4), replace=False):
            value = int(2 ** rng.uniform(0.0, 40.0))
            if key == "degree":
                value = 2 + 2 * (value // 2)
            config[key] = {"budgets": [value], "grid_shape": [value, 1, 1]}.get(key, value)
        # the other checks' floors, so that only the size checks can refuse
        config["dense_design_size"] = max(config["dense_design_size"], 2)
        config["peak_grid_size"] = max(config["peak_grid_size"], NEIGHBOR_COUNT + 1)
        config["train_subjects"] = max(config["train_subjects"], 2)
        config["candidate_count"] = max(config["candidate_count"], config["budgets"][-1])
        yield case, config


def test_size_checks_accept_exactly_what_fits_the_ceiling():
    """Only the checks' verdicts: building a SimConfig and checking a field
    size allocate nothing that the sizes set."""
    verdicts = {"accepted": 0, "refused": 0}
    for case, config in _size_configs(np.random.default_rng(20240603)):
        j = basis_dimension(config["degree"])
        over = [key for key, entries in SIZE_ARRAYS.items() if 8 * entries(config, j) > SIZE_CEILING_BYTES]
        try:
            SimConfig(**{k: v for k, v in config.items() if k != "grid_shape"})
            check_field_size(config["grid_shape"], config["degree"])
        except ValidationError as exc:
            assert over, f"case {case}: {config} fits, but was refused: {exc}"
            assert str(exc).startswith(f"{over[0]} must be at most "), f"case {case}: {exc} does not name {over[0]}"
            verdicts["refused"] += 1
        else:
            assert not over, f"case {case}: {config} was accepted, but {over} exceed the ceiling"
            verdicts["accepted"] += 1
    assert min(verdicts.values()) > CASES // 10, verdicts
