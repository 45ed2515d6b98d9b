"""Property tests of `CandidateSet`'s near-duplicate check: its z-sorted,
windowed scan gives the verdict of the all-pairs scan."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdesign import design
from qsdesign.design import DUPLICATE_ANGLE_TOL, CandidateSet
from qsdesign.errors import ValidationError
from qsdesign.sphere import normalized


def all_pairs_verdict(pts):
    """The check as one (n, n) cosine matrix with a zeroed diagonal."""
    dots = pts @ pts.T
    np.fill_diagonal(dots, 0.0)
    return bool(np.arccos(min(float(dots.max()), 1.0)) < DUPLICATE_ANGLE_TOL)


def rejected(pts, block):
    with mock.patch.object(design, "_DUPLICATE_BLOCK_ENTRIES", block):
        try:
            CandidateSet(pts)
        except ValidationError:
            return True
    return False


def rotated(p, angle, rng):
    """A unit vector at `angle` radians from the unit vector p."""
    u = normalized(np.cross(p, rng.standard_normal(3)))
    return normalized(np.cos(angle) * p + np.sin(angle) * u)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    ring=st.integers(0, 40),
    plant=st.sampled_from([None, "below", "above", "ring below", "ring above"]),
    block=st.sampled_from([1, 3, 64, 1 << 16]),
)
def test_windowed_check_equals_all_pairs(seed, n, ring, plant, block):
    rng = np.random.default_rng(seed)
    pts = normalized(rng.standard_normal((n + ring, 3)))
    if ring:  # points of one equal z: the window holds all of them
        z = rng.uniform(-0.9, 0.9)
        phi = rng.uniform(0.0, 2.0 * np.pi, ring)
        r = np.sqrt(1.0 - z * z)
        pts[n:] = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(ring, z)])
    if plant is not None and len(pts) >= 2:
        i, j = rng.choice(len(pts), size=2, replace=False)
        angle = rng.uniform(1e-9, 1e-7) if plant.endswith("below") else rng.uniform(1e-5, 1e-3)
        if plant.startswith("ring"):  # same z, a small turn about the z axis
            turn = angle / max(np.hypot(pts[i, 0], pts[i, 1]), 1e-3)
            c, s = np.cos(turn), np.sin(turn)
            pts[j] = [c * pts[i, 0] - s * pts[i, 1], s * pts[i, 0] + c * pts[i, 1], pts[i, 2]]
        else:
            pts[j] = rotated(pts[i], angle, rng)
    want = all_pairs_verdict(pts)
    if plant is not None and plant.endswith("below") and len(pts) >= 2:
        assert want
    assert rejected(pts, block) == want
