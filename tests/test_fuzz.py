"""Seeded fuzz tests of the two file readers.

A corrupt `.qpf` prior field or cohort CSV must either load cleanly or
raise ValidationError/DegeneracyError (exit 2 or 3 from the CLI); any other
exception would reach the user as a traceback.
"""

import struct

import numpy as np
import pytest

from qsdesign.errors import DegeneracyError, ValidationError
from qsdesign.prior import PriorField, RankRule, load_prior_field, save_prior_field
from qsdesign.sim import GenerativeConfig, cohort_from_csv, cohort_to_csv, generate_cohort
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


def test_corrupt_prior_field_loads_or_raises(tmp_path):
    basis = ShBasis(2)
    rng = np.random.default_rng(7)
    field = PriorField((2, 1, 1), {}, basis.max_degree, RankRule("fraction", 0.9))
    for index in ((0, 0, 0), (1, 0, 0)):
        field.add(index, random_prior(basis, rng))
    seed_path = tmp_path / "seed.qpf"
    save_prior_field(field, seed_path)
    data = seed_path.read_bytes()
    assert len(data) == HEADER.stop + 2 * RECORD
    blobs = _qpf_mutations(data, np.random.default_rng(20240601))
    loaded, rejected = _outcomes(
        tmp_path / "fuzz.qpf", blobs, load_prior_field,
        lambda field, blob: _field_problem(field, blob, tmp_path),
    )
    assert loaded > 0 and rejected > 0


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
