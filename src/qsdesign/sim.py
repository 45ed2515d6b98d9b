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

from ._kernels import row_products
from .errors import ValidationError
from .sphere import ShBasis, as_unit_vectors, inverse_funk_radon, make_grid, normalized

PROJECTION_GRID_SIZE = 128

NU_1 = (1.0, 0.0, 0.0)
NU_2 = (1.0 / np.sqrt(3.0), -(3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0)


@dataclass(frozen=True)
class GenerativeConfig:
    """Parameters of the two-fiber generative model."""

    lobe_concentration: float = 10.0
    direction_concentration: float = 20.0
    weights: tuple = (0.5, 0.5)
    mean_directions: tuple = (NU_1, NU_2)

    def __post_init__(self):
        if not np.isfinite([self.lobe_concentration, self.direction_concentration, *self.weights]).all():
            raise ValidationError("generative parameters must be finite")
        if self.lobe_concentration <= 0 or self.direction_concentration <= 0:
            raise ValidationError("concentrations must be positive")
        if not 1.0 - np.exp(-2.0 * self.lobe_concentration) > 0.0:  # the denominator of `_vmf`
            raise ValidationError(
                f"lobe_concentration {self.lobe_concentration!r} is too small: "
                "the vMF normaliser 1 - exp(-2 lobe_concentration) rounds to 0"
            )
        if len(self.weights) != 2 or any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValidationError("need two non-negative mixture weights")
        if len(self.mean_directions) != 2:
            raise ValidationError("need two mean directions")
        for m in self.mean_directions:
            as_unit_vectors(np.asarray(m, dtype=float), "mean direction")


@dataclass
class GroundTruth:
    """One simulated subject: density and signal coefficients."""

    fodf: np.ndarray
    signal: np.ndarray


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
    gen = _rng(rng)
    n = 1 if size is None else int(size)
    u = gen.random(n)
    angle = gen.random(n) * 2.0 * np.pi
    out = _vmf_from_uniforms(mu[0], concentration, u, angle)
    return out[0] if size is None else out


def _vmf_from_uniforms(mu, concentration: float, u, angle) -> np.ndarray:
    """The vMF draws about the unit axis `mu` made from uniforms `u` and
    azimuths `angle` (one each per draw); every draw is elementwise."""
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * concentration)) / concentration
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
    return normalized(out)


def _vmf(t, concentration: float) -> np.ndarray:
    """vMF density at cosines `t` to its unit axis."""
    # kappa / (4 pi sinh kappa) * exp(kappa t), written overflow-safely
    norm = concentration / (2.0 * np.pi * (1.0 - np.exp(-2.0 * concentration)))
    return norm * np.exp(concentration * (t - 1.0))


def _lobe_pair(t, concentration: float, weight: float) -> np.ndarray:
    """One weighted symmetrized lobe at cosines `t = pts @ axis`; the
    antipodal lobe's cosines `pts @ -axis` are bitwise `-t`."""
    return weight * (_vmf(t, concentration) + _vmf(-t, concentration))


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
    density representation.
    """
    if fixed_directions is None:
        axes = _draw_axes(config, [_rng(rng)])
    else:
        axes = [as_unit_vectors(np.asarray(m, dtype=float), "fixed direction")[0] for m in fixed_directions]
    return _ground_truths(basis, config, *axes)[0]


def _draw_axes(config: GenerativeConfig, gens):
    """Both lobe axes of every subject, (N, 3) each; subject i draws u1,
    angle1, u2, angle2 from its own generator `gens[i]`, as two
    `sample_vmf` calls would."""
    draws = np.array([gen.random(4) for gen in gens])
    kappa = config.direction_concentration
    return tuple(
        _vmf_from_uniforms(
            np.asarray(mean, dtype=float),  # GenerativeConfig checked these unit vectors
            kappa,
            draws[:, 2 * lobe],
            draws[:, 2 * lobe + 1] * 2.0 * np.pi,
        )
        for lobe, mean in enumerate(config.mean_directions)
    )


def _ground_truths(basis: ShBasis, config: GenerativeConfig, axes1, axes2) -> list:
    """One ground truth per row of the lobe axes `axes1`, `axes2` (N, 3).

    Each subject's density is projected on its own: the cohort-wide
    (N, grid) array of density values that one `row_products` call would
    take costs memory for nothing.
    """
    grid, phi = _projection_setup(basis)
    w1, w2 = config.weights
    kappa = config.lobe_concentration
    truths = []
    for m1, m2 in zip(axes1, axes2):
        # SphericalGrid checked these unit vectors
        values = np.zeros(grid.directions.shape[0])
        values += _lobe_pair(grid.directions @ m1, kappa, w1)
        values += _lobe_pair(grid.directions @ m2, kappa, w2)
        coeffs = phi.T @ (grid.weights * values)
        coeffs /= coeffs[0] * np.sqrt(4.0 * np.pi)  # unit integral over the sphere
        truths.append(GroundTruth(fodf=coeffs, signal=inverse_funk_radon(coeffs, basis)))
    return truths


def generate_cohort(basis: ShBasis, config: GenerativeConfig, count: int, seed) -> list:
    """Independent ground truths with per-subject seeds spawned from `seed`.

    Every subject draws its lobe axes from its own generator, exactly as
    `generate_fodf` would; the axes are then made for the whole cohort at
    once.
    """
    if count < 1:
        raise ValidationError("cohort size must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gens = [np.random.default_rng(child) for child in root.spawn(count)]
    return _ground_truths(basis, config, *_draw_axes(config, gens))


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
    return observe_batch([truth], points, sigma, [rng], basis, noise)[0]


def observe_batch(truths, points, sigma: float, rngs, basis: ShBasis, noise: str = "gaussian") -> np.ndarray:
    """`observe` for several subjects at the same points, one row each.

    The points are checked and the basis evaluated once; the signal values
    are `row_products` and each subject draws its noise from its own
    generator `rngs[i]`, so row i has the bits of an `observe` call.
    """
    if sigma < 0.0:
        raise ValidationError("sigma must be non-negative")
    if noise not in ("gaussian", "chi"):
        raise ValidationError(f"unknown noise kind {noise!r}")
    pts, _ = as_unit_vectors(np.atleast_2d(np.asarray(points, dtype=float)), "points")
    phi = basis.evaluate(pts)
    m = pts.shape[0]
    signals = np.array([truth.signal for truth in truths]).reshape(len(truths), phi.shape[1])
    out = row_products(phi, signals)
    if sigma == 0.0:
        return out
    scale = sigma / np.sqrt(2.0 - np.pi / 2.0)
    for row, rng in zip(out, rngs, strict=True):
        gen = _rng(rng)
        if noise == "gaussian":
            row += sigma * gen.standard_normal(m)
        else:
            raw = scale * np.hypot(gen.standard_normal(m), gen.standard_normal(m))
            row += raw
            row -= scale * np.sqrt(np.pi / 2.0)
    return out


def cohort_to_csv(truths, path):
    """One row per subject, J signal-coefficient columns (c0..c{J-1} header)."""
    mat = np.vstack([t.signal for t in truths])
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
