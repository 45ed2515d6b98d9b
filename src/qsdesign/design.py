"""Sampling-direction selection over a finite candidate set.

`greedy_design` sequentially picks the direction that most increases the
trace objective

    g(P) = trace(Lam Psi' (Psi Lam Psi' + sigma^2 I)^-1 Psi Lam),

the expected reduction in integrated squared error of the conditional-mean
reconstruction. The exact global maximizer is an NP-hard integer program;
the greedy approximation keeps the K x K posterior score covariance D,
downdates it by one rank-one term per pick, and comes with a computable
suboptimality bound (`greedy_bound`). `esr_design` is the classical
electrostatic-repulsion baseline: antipodally symmetric Coulomb energy
minimized by projected gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegeneracyError, ValidationError
from .prior import VoxelPrior
from .sphere import GOLDEN_ANGLE, UNIT_NORM_TOL, ShBasis, as_unit_vectors, normalized

DUPLICATE_ANGLE_TOL = 1e-6  # radians
# Two unit vectors (squared norms within UNIT_NORM_TOL of 1) whose dot product
# exceeds cos(DUPLICATE_ANGLE_TOL) differ in z by less than
# sqrt(2 UNIT_NORM_TOL + 2 (1 - cos DUPLICATE_ANGLE_TOL)) = 1.42e-5; the
# duplicate check compares each point with the points above it in z within
# twice that.
_DUPLICATE_Z_WINDOW = 2.0 * math.sqrt(2.0 * UNIT_NORM_TOL + 2.0 * (1.0 - math.cos(DUPLICATE_ANGLE_TOL)))
DEFAULT_CANDIDATE_COUNT = 321
# electrostatic-repulsion descent: step cap, seeded starts, first step times the count
_ESR_STEPS = 2000
_ESR_RESTARTS = 3
_ESR_FIRST_STEP = 0.01


@dataclass(frozen=True)
class CandidateSet:
    """Finite pool of admissible sampling directions."""

    points: np.ndarray

    def __post_init__(self):
        pts, _ = as_unit_vectors(self.points, "candidate points")
        object.__setattr__(self, "points", pts)
        if np.arccos(min(_closest_cosine(pts), 1.0)) < DUPLICATE_ANGLE_TOL:
            raise ValidationError("candidate set contains near-duplicate directions")

    def __len__(self):
        return self.points.shape[0]


def _closest_cosine(pts: np.ndarray) -> float:
    """Largest dot product of two distinct points that lie within
    `_DUPLICATE_Z_WINDOW` of each other in z, or 0.

    The points are sorted by z, and each is paired with the points that
    follow it inside the window, one offset in the sorted order at a time,
    in row `blocks` of one dot product a row. The work is about linear in
    the point count for points spread in z; a ring of points of equal z
    costs the square of its size in time, but never more than one block in
    memory.
    """
    srt = pts[np.argsort(pts[:, 2], kind="stable")]
    reach = np.searchsorted(srt[:, 2], srt[:, 2] + _DUPLICATE_Z_WINDOW, side="right")
    order, closest = np.arange(len(srt)), 0.0
    for block in _kernels.blocks(len(srt), 1):
        rows, offset = order[block], 1
        while True:
            rows = rows[rows + offset < reach[rows]]  # rows with a point `offset` places on in the window
            if not rows.size:
                break
            closest = max(closest, float(np.einsum("ij,ij->i", srt[rows], srt[rows + offset]).max()))
            offset += 1
    return closest


def hemisphere_spiral(n: int) -> np.ndarray:
    """Golden-section spiral restricted to the upper hemisphere (z > 0)."""
    if n < 1:
        raise ValidationError("need at least one point")
    i = np.arange(n)
    z = 1.0 - (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def default_candidates(count: int = DEFAULT_CANDIDATE_COUNT) -> CandidateSet:
    """Hemisphere spiral candidate pool (one representative per axis)."""
    return CandidateSet(hemisphere_spiral(count))


@dataclass
class Design:
    """Greedy selection result."""

    selected: list
    objective: float
    objective_history: np.ndarray


@dataclass(frozen=True)
class BoundCertificate:
    """Suboptimality guarantee for the greedy design after `steps` picks.

    The greedy objective is at least `factor` times the (unknown) optimal
    `budget`-point objective; `factor` is reproducible from the stored
    spectrum endpoints, the candidate-set eigenfunction bound and the noise
    variance.
    """

    steps: int
    budget: int
    rho_max: float
    rho_min: float
    lambda_psi_star: float
    noise_variance: float
    factor: float


def _psi_matrix(points, prior: VoxelPrior, basis: ShBasis) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, prior.rank))
    pts, _ = as_unit_vectors(np.atleast_2d(pts), "design points")
    return basis.evaluate(pts) @ prior.eigenvectors


def design_objective(points, prior: VoxelPrior, basis: ShBasis) -> float:
    """Trace objective of a design; 0 for the empty design.

    Always lies in [0, sum of prior eigenvalues): no design can remove more
    variance than the prior carries.
    """
    if not prior.noise_variance > 0.0:
        raise ValidationError("prior noise variance must be positive")
    psi = _psi_matrix(points, prior, basis)
    m = psi.shape[0]
    if m == 0:
        return 0.0
    w = psi * prior.eigenvalues
    gram = w @ psi.T + prior.noise_variance * np.eye(m)
    return float(np.trace(w.T @ np.linalg.solve(gram, w)))


def block_inverse_update(inv_prev: np.ndarray, h: np.ndarray, q: float) -> np.ndarray:
    """Inverse of [[G, h], [h', q]] given inv_prev = G^-1.

    Uses the block inversion formula with Schur complement a^-1 =
    q - h' G^-1 h, which must be positive (guaranteed when the appended
    diagonal carries a positive noise term).
    """
    inv_prev = np.asarray(inv_prev, dtype=float)
    h = np.asarray(h, dtype=float).ravel()
    m = inv_prev.shape[0]
    if inv_prev.shape != (m, m) or h.shape != (m,):
        raise ValidationError("inverse/vector shapes are inconsistent")
    u = inv_prev @ h
    schur = float(q - h @ u)
    if schur <= 0.0:
        raise DegeneracyError(f"non-positive Schur complement ({schur:.3e}) in inverse update")
    a = 1.0 / schur
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = inv_prev + a * np.outer(u, u)
    out[:m, m] = -a * u
    out[m, :m] = -a * u
    out[m, m] = a
    return out


def greedy_design(
    candidates: CandidateSet, prior: VoxelPrior, basis: ShBasis, budget: int
) -> Design:
    """Select `budget` directions by greedy maximization of the trace objective.

    Each step scores all remaining candidates by their gain
    ||D v||^2 / (sigma^2 + v' D v), with v the candidate's eigenfunction row
    and D the posterior score covariance (ties break to the lowest index),
    appends the winner and downdates D <- D - (D v)(D v)' / (sigma^2 + v' D v).
    Greedy prefixes are stable: the design of budget b1 < b2 equals the
    first b1 picks of the b2 design. This is `greedy_design_region` for one
    voxel.
    """
    return greedy_design_region(candidates, [prior], basis, budget)


def greedy_design_region(candidates: CandidateSet, priors, basis: ShBasis, budget: int) -> Design:
    """Greedy selection for a collection of voxels.

    Maximizes the mean of the per-voxel trace objectives, which for one
    voxel is its own objective. The voxels' posterior covariances are stacked,
    zero-padded to the largest rank, so each step scores every voxel with
    one `greedy_gains` call, which runs in voxel blocks of bounded size, and
    downdates them all at once; a voxel's padded columns of `psi` and rows
    and columns of `dmat` stay exactly 0. Beyond `psi` (V, N, K), a step's
    temporaries are one (V, N) gains array, (V, K, K) downdate terms and
    one block.
    """
    priors = list(priors)
    if not priors:
        raise ValidationError("need at least one prior")
    if budget < 0:
        raise ValidationError("budget must be non-negative")
    if budget > len(candidates):
        raise ValidationError(f"budget {budget} exceeds the {len(candidates)} candidates")
    kmax = max(p.rank for p in priors)
    evecs = np.zeros((len(priors), basis.dimension, kmax))
    dmat = np.zeros((len(priors), kmax, kmax))
    for v, prior in enumerate(priors):
        evecs[v, :, : prior.rank] = prior.eigenvectors
        dmat[v, : prior.rank, : prior.rank] = np.diag(prior.eigenvalues)
    psi = basis.evaluate(candidates.points) @ evecs  # (V, N, K_max)
    del evecs  # (V, J, K_max): the steps read psi only
    noise = np.array([[p.noise_variance] for p in priors])
    weights = np.full(len(priors), 1.0 / len(priors))
    active = np.ones(len(candidates), dtype=bool)
    selected: list[int] = []
    history = np.empty(budget)
    objective = 0.0
    for step in range(budget):
        gains = weights @ _kernels.greedy_gains(psi, dmat, noise)
        if not np.isfinite(gains).all():
            raise DegeneracyError(
                f"greedy gains are not finite at step {step}: prior eigenvalues are too large for float64"
            )
        gains[~active] = -np.inf
        index = int(np.argmax(gains))  # ties resolve to the lowest index
        v = psi[:, index]
        dv = np.einsum("vij,vj->vi", dmat, v)
        den = noise + np.einsum("vi,vi->v", v, dv)[:, None]
        dmat -= dv[:, :, None] * dv[:, None, :] / den[:, :, None]
        active[index] = False
        selected.append(index)
        objective += float(gains[index])
        history[step] = objective
    if not np.isfinite(history).all():
        raise DegeneracyError("greedy objective overflowed: prior eigenvalues are too large for float64")
    return Design(selected=selected, objective=objective, objective_history=history)


def greedy_bound(
    prior: VoxelPrior, candidates: CandidateSet, basis: ShBasis, steps: int, budget: int
) -> BoundCertificate:
    """Certificate: greedy after `steps` picks achieves at least
    `factor` times the optimal `budget`-point objective.

    factor = 1 - exp(-(1/rho_max) * (steps/budget)
                     / (1/rho_min + (steps/sigma^2) * lambda_psi_star))

    where lambda_psi_star is the largest squared eigenfunction row norm
    over the candidates.
    """
    return region_bound([prior], candidates, basis, steps, budget)


def region_bound(
    priors, candidates: CandidateSet, basis: ShBasis, steps: int, budget: int
) -> BoundCertificate:
    """Conservative certificate of a region design: the `greedy_bound` of the
    voxel with the smallest factor (the first on a tie), with the candidate
    basis evaluated once for all the voxels."""
    if not 1 <= steps <= budget:
        raise ValidationError("need 1 <= steps <= budget")
    if not priors:
        raise ValidationError("need at least one prior")
    phi = basis.evaluate(candidates.points)
    certificates = []
    for prior in priors:
        psi = phi @ prior.eigenvectors
        lam_star = float(np.max(np.einsum("ij,ij->i", psi, psi)))
        rho_max, rho_min = float(prior.eigenvalues[0]), float(prior.eigenvalues[-1])
        sigma2 = prior.noise_variance
        exponent = -(1.0 / rho_max) * (steps / budget) / (1.0 / rho_min + (steps / sigma2) * lam_star)
        factor = float(1.0 - np.exp(exponent))
        cert = BoundCertificate(int(steps), int(budget), rho_max, rho_min, lam_star, sigma2, factor)
        certificates.append(cert)
    return min(certificates, key=lambda cert: cert.factor)


def coulomb_energy(points) -> float:
    """Antipodally symmetric Coulomb energy sum_{i<j} (1/|pi-pj| + 1/|pi+pj|)."""
    pts, _ = as_unit_vectors(points, "points")
    energy, _ = _kernels.coulomb_energy_grad(pts)
    return energy


def esr_design(count: int, seed: int = 0) -> np.ndarray:
    """Electrostatic-repulsion design: spread `count` directions on the sphere.

    Starts from a jittered golden spiral and runs at most `_ESR_STEPS`
    steps of projected gradient descent on the antipodally symmetric Coulomb
    energy, with a multiplicative backtracking schedule from a first step of
    `_ESR_FIRST_STEP / count`; only energy-decreasing moves are accepted.
    Deterministic for a fixed seed; the best of `_ESR_RESTARTS` seeded
    starts is returned (the first one on a tie).

    The restarts descend in lockstep, one stacked energy evaluation per
    step. Each keeps its own step size and accept/reject decisions and
    leaves once its step size falls below 1e-14, so every restart follows
    the same path as it would alone. The working arrays hold the live
    restarts only (`ids` names them); a restart that leaves is copied out.
    A step evaluates the energy of every live trial and the gradient of the
    accepted ones only (`coulomb_energy_grad_below`), whose coordinate-major
    kernel rounds as the one-configuration einsum kernel does, so the
    design is bit for bit that of a restart-by-restart descent.
    """
    if count < 2:
        raise ValidationError("need at least two directions")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    base = hemisphere_spiral(count)
    starts = [base + 0.05 * rng.standard_normal((count, 3)) for _ in range(_ESR_RESTARTS)]
    points = normalized(np.stack(starts))
    energy, grad = _kernels.coulomb_energy_grad(points)
    alpha = np.full(len(starts), _ESR_FIRST_STEP / count)
    ids = np.arange(len(starts))
    final_points, final_energy = np.empty_like(points), np.empty(len(starts))
    for _ in range(_ESR_STEPS):
        tangent = grad - np.einsum("rij,rij->ri", grad, points)[:, :, None] * points
        trial = normalized(points - alpha[:, None, None] * tangent)
        trial_energy, trial_grad = _kernels.coulomb_energy_grad_below(trial, energy)
        better = trial_energy < energy
        if better.all():
            points, energy, grad = trial, trial_energy, trial_grad
        else:
            points[better], energy[better], grad[better] = trial[better], trial_energy[better], trial_grad
        alpha *= np.where(better, 1.2, 0.5)
        stay = better | ~(alpha < 1e-14)
        if not stay.all():
            final_points[ids[~stay]], final_energy[ids[~stay]] = points[~stay], energy[~stay]
            points, energy, grad, alpha, ids = points[stay], energy[stay], grad[stay], alpha[stay], ids[stay]
            if not ids.size:
                break
    final_points[ids], final_energy[ids] = points, energy
    return final_points[int(np.argmin(final_energy))]


def gradient_table(points) -> str:
    """Plain-text gradient table: one 'x y z' line per direction, 9 significant digits."""
    pts, _ = as_unit_vectors(points, "points")
    return "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pts)
