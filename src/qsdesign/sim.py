"""Synthetic ground-truth generation for the simulation study.

Orientation densities are symmetrized two-component von Mises-Fisher
mixtures with randomly drawn component directions, projected onto the
even-degree harmonic basis and normalized to integrate to one. The
matching diffusion signal is the inverse great-circle transform of the
density representation. All generators are pure functions of their seeds;
cohorts derive per-subject seeds by seed-sequence spawning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sphere import ShBasis, as_unit_vectors, inverse_funk_radon, make_grid, normalized

PROJECTION_GRID_SIZE = 128

NU_1 = (1.0, 0.0, 0.0)
NU_2 = (1.0 / np.sqrt(3.0), -(3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0)


@dataclass(frozen=True)
class VmfComponent:
    """One von Mises-Fisher lobe: mean axis, concentration, mixture weight."""

    mean: tuple
    concentration: float
    weight: float

    def __post_init__(self):
        as_unit_vectors(np.asarray(self.mean, dtype=float), "component mean")
        if self.concentration <= 0.0:
            raise ValidationError("concentration must be positive")
        if self.weight < 0.0:
            raise ValidationError("weight must be non-negative")


@dataclass(frozen=True)
class GenerativeConfig:
    """Parameters of the two-fiber generative model."""

    lobe_concentration: float = 10.0
    direction_concentration: float = 20.0
    weights: tuple = (0.5, 0.5)
    mean_directions: tuple = (NU_1, NU_2)
    peak_merge_degrees: float = 15.0

    def __post_init__(self):
        floats = (self.lobe_concentration, self.direction_concentration, self.peak_merge_degrees)
        if not np.isfinite([*floats, *self.weights]).all():
            raise ValidationError("generative parameters must be finite")
        if self.lobe_concentration <= 0 or self.direction_concentration <= 0:
            raise ValidationError("concentrations must be positive")
        if len(self.weights) != 2 or any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValidationError("need two non-negative mixture weights")
        if len(self.mean_directions) != 2:
            raise ValidationError("need two mean directions")
        for m in self.mean_directions:
            as_unit_vectors(np.asarray(m, dtype=float), "mean direction")


@dataclass
class GroundTruth:
    """One simulated subject: density and signal coefficients, true peak axes."""

    fodf: np.ndarray
    signal: np.ndarray
    peaks: np.ndarray  # (n_peaks, 3) hemisphere representatives


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_vmf(mean, concentration: float, rng, size: int | None = None) -> np.ndarray:
    """Draw unit vectors from a von Mises-Fisher distribution on the 2-sphere.

    Uses the exact inverse-CDF sampler for the cosine along the mean:
    w = 1 + log(u + (1-u) e^(-2 kappa)) / kappa, paired with a uniform
    azimuth in the tangent plane.
    """
    if concentration <= 0.0:
        raise ValidationError("concentration must be positive")
    mu, _ = as_unit_vectors(np.asarray(mean, dtype=float), "mean")
    mu = mu[0]
    gen = _rng(rng)
    n = 1 if size is None else int(size)
    u = gen.random(n)
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * concentration)) / concentration
    angle = gen.random(n) * 2.0 * np.pi
    # orthonormal tangent frame at mu
    helper = np.array([1.0, 0.0, 0.0]) if abs(mu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(mu, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(mu, e1)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    out = (
        w[:, None] * mu
        + (sin_t * np.cos(angle))[:, None] * e1
        + (sin_t * np.sin(angle))[:, None] * e2
    )
    out = normalized(out)
    return out[0] if size is None else out


def mixture_density(points, components) -> np.ndarray:
    """Weighted symmetrized mixture of von Mises-Fisher lobes."""
    pts, single = as_unit_vectors(points, "points")
    total = _mixture(pts, components)
    return total[0] if single else total


def _vmf(pts, mu, concentration: float) -> np.ndarray:
    """vMF density at checked unit vectors `pts` (n, 3) about the unit axis `mu`."""
    t = pts @ mu
    # kappa / (4 pi sinh kappa) * exp(kappa t), written overflow-safely
    norm = concentration / (2.0 * np.pi * (1.0 - np.exp(-2.0 * concentration)))
    return norm * np.exp(concentration * (t - 1.0))


def _mixture(pts, components) -> np.ndarray:
    """Symmetrized mixture at checked unit vectors; `VmfComponent` checked its axis."""
    total = np.zeros(pts.shape[0])
    for comp in components:
        mu = np.asarray(comp.mean, dtype=float)
        total += comp.weight * (
            _vmf(pts, mu, comp.concentration)
            + _vmf(pts, -mu, comp.concentration)
        )
    return total


@functools.lru_cache(maxsize=None)
def _projection_setup(basis: ShBasis):
    """Quadrature grid and basis matrix for projecting densities, read-only
    because every caller shares them."""
    grid = make_grid("equiangular", PROJECTION_GRID_SIZE)
    phi = basis.evaluate(grid.directions)
    for table in (grid.directions, grid.weights, phi):
        table.setflags(write=False)
    return grid, phi


def generate_fodf(
    basis: ShBasis,
    config: GenerativeConfig,
    rng,
    fixed_directions=None,
) -> GroundTruth:
    """Draw one ground truth from the generative model.

    The two lobe axes are von Mises-Fisher draws around the configured mean
    directions (or `fixed_directions` when given). The symmetrized mixture
    density is projected onto the basis by quadrature and rescaled to unit
    integral; the signal is the inverse great-circle transform of the
    density representation. Analytic peak axes merge into a single bisector
    axis whenever the two lobe axes fall within the configured merge angle.
    """
    gen = _rng(rng)
    if fixed_directions is None:
        m1 = sample_vmf(config.mean_directions[0], config.direction_concentration, gen)
        m2 = sample_vmf(config.mean_directions[1], config.direction_concentration, gen)
    else:
        m1 = np.asarray(fixed_directions[0], dtype=float)
        m2 = np.asarray(fixed_directions[1], dtype=float)
    w1, w2 = config.weights
    comps = (
        VmfComponent(tuple(m1), config.lobe_concentration, w1),
        VmfComponent(tuple(m2), config.lobe_concentration, w2),
    )
    grid, phi = _projection_setup(basis)
    values = _mixture(grid.directions, comps)  # SphericalGrid checked these unit vectors
    coeffs = phi.T @ (grid.weights * values)
    coeffs /= coeffs[0] * np.sqrt(4.0 * np.pi)  # unit integral over the sphere

    m2_folded = m2 if float(m1 @ m2) >= 0.0 else -m2
    cos_sep = np.clip(abs(float(m1 @ m2)), 0.0, 1.0)
    if np.degrees(np.arccos(cos_sep)) < config.peak_merge_degrees:
        peaks = normalized(w1 * m1 + w2 * m2_folded)[None, :]
    else:
        peaks = np.vstack([m1, m2_folded])
    peaks = np.where(peaks[:, 2:3] >= 0.0, peaks, -peaks)  # hemisphere representatives

    return GroundTruth(fodf=coeffs, signal=inverse_funk_radon(coeffs, basis), peaks=peaks)


def generate_cohort(basis: ShBasis, config: GenerativeConfig, count: int, seed) -> list:
    """Independent ground truths with per-subject seeds spawned from `seed`."""
    if count < 1:
        raise ValidationError("cohort size must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        generate_fodf(basis, config, np.random.default_rng(child))
        for child in root.spawn(count)
    ]


def observe(
    truth: GroundTruth,
    points,
    sigma: float,
    rng,
    basis: ShBasis,
    noise: str = "gaussian",
) -> np.ndarray:
    """Evaluate the true signal at `points` and add i.i.d. measurement noise.

    noise="gaussian" adds N(0, sigma^2); noise="chi" adds a centered,
    scaled chi(2) variable with the same variance (magnitude-like noise for
    the robustness check); sigma=0 returns exact evaluations.
    """
    if sigma < 0.0:
        raise ValidationError("sigma must be non-negative")
    pts, _ = as_unit_vectors(np.atleast_2d(np.asarray(points, dtype=float)), "points")
    values = basis.evaluate(pts) @ truth.signal
    if sigma == 0.0:
        return values
    gen = _rng(rng)
    if noise == "gaussian":
        return values + sigma * gen.standard_normal(pts.shape[0])
    if noise == "chi":
        scale = sigma / np.sqrt(2.0 - np.pi / 2.0)
        raw = scale * np.hypot(gen.standard_normal(pts.shape[0]), gen.standard_normal(pts.shape[0]))
        return values + raw - scale * np.sqrt(np.pi / 2.0)
    raise ValidationError(f"unknown noise kind {noise!r}")


def cohort_signal_matrix(truths) -> np.ndarray:
    """Stack true signal coefficients, one row per subject."""
    return np.vstack([t.signal for t in truths])


def cohort_to_csv(truths, path):
    """One row per subject, J signal-coefficient columns (c0..c{J-1} header)."""
    mat = cohort_signal_matrix(truths)
    header = ",".join(f"c{i}" for i in range(mat.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cohort_from_csv(path) -> np.ndarray:
    """Read a coefficient matrix written by :func:`cohort_to_csv`.

    Every row must have one finite number per header column; a violation
    raises ValidationError naming the file and line.
    """
    try:
        with open(path) as fh:
            header, *lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read cohort CSV {path}: {exc}") from exc
    if not header.startswith("c0"):
        raise ValidationError(f"{path} does not look like a cohort CSV")
    width = len(header.split(","))
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(f"{path} line {lineno}: {len(cells)} cells, header has {width}")
        try:
            row = np.array([float(x) for x in cells])
        except ValueError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise ValidationError(f"{path} line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path} contains no subjects")
    return np.vstack(rows)
