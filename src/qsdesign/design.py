"""Sampling-direction selection over a finite candidate set.

`greedy_design` sequentially picks the direction that most increases the
trace objective

    g(P) = trace(Lam Psi' (Psi Lam Psi' + sigma^2 I)^-1 Psi Lam),

the expected reduction in integrated squared error of the conditional-mean
reconstruction. The exact global maximizer is an NP-hard integer program;
the greedy approximation maintains the observation-Gram inverse through
block rank-one updates and comes with a computable suboptimality bound
(`greedy_bound`). `esr_design` is the classical electrostatic-repulsion
baseline: antipodally symmetric Coulomb energy minimized by projected
gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegeneracyError, ValidationError
from .prior import VoxelPrior
from .sphere import GOLDEN_ANGLE, ShBasis, as_unit_vectors, normalized

DUPLICATE_ANGLE_TOL = 1e-6  # radians
DEFAULT_CANDIDATE_COUNT = 321
REFRESH_EVERY = 25  # recompute the maintained inverse from scratch this often


@dataclass(frozen=True)
class CandidateSet:
    """Finite pool of admissible sampling directions with an active mask."""

    points: np.ndarray
    active: np.ndarray = None

    def __post_init__(self):
        pts, _ = as_unit_vectors(self.points, "candidate points")
        object.__setattr__(self, "points", pts)
        if self.active is None:
            object.__setattr__(self, "active", np.ones(pts.shape[0], dtype=bool))
        else:
            mask = np.asarray(self.active, dtype=bool)
            if mask.shape != (pts.shape[0],):
                raise ValidationError("active mask must have one entry per candidate")
            object.__setattr__(self, "active", mask)
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        np.fill_diagonal(dots, 0.0)
        if pts.shape[0] > 1 and np.arccos(np.max(dots)) < DUPLICATE_ANGLE_TOL:
            raise ValidationError("candidate set contains near-duplicate directions")

    def __len__(self):
        return self.points.shape[0]

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.active))


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
    """Greedy selection result with its running state.

    `inv_gram` and `psi_rows` are the maintained observation-Gram inverse
    and eigenfunction rows of the selected points (None for region designs,
    which keep one state per voxel internally).
    """

    selected: list
    objective: float
    objective_history: np.ndarray
    inv_gram: np.ndarray | None = None
    psi_rows: np.ndarray | None = None


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


class _VoxelState:
    """Per-voxel greedy bookkeeping: selected eigenfunction rows and Gram inverse."""

    def __init__(self, candidates: CandidateSet, prior: VoxelPrior, basis: ShBasis):
        self.psi_all = basis.evaluate(candidates.points) @ prior.eigenvectors
        self.lam = prior.eigenvalues
        self.noise_variance = prior.noise_variance
        self.inv_gram = np.zeros((0, 0))
        self.psi_rows = np.zeros((0, prior.rank))

    def gains(self) -> np.ndarray:
        w = self.psi_rows * self.lam
        if self.psi_rows.shape[0]:
            gmat = w.T @ self.inv_gram @ w
            dmat = np.diag(self.lam) - gmat
        else:
            dmat = np.diag(self.lam)
        return _kernels.greedy_gains(self.psi_all, np.ascontiguousarray(dmat), self.noise_variance)

    def append(self, index: int):
        psi_new = self.psi_all[index]
        h = (self.psi_rows * self.lam) @ psi_new
        q = float(psi_new @ (self.lam * psi_new) + self.noise_variance)
        self.inv_gram = block_inverse_update(self.inv_gram, h, q)
        self.psi_rows = np.vstack([self.psi_rows, psi_new])
        m = self.psi_rows.shape[0]
        if m % REFRESH_EVERY == 0:
            gram = (self.psi_rows * self.lam) @ self.psi_rows.T + self.noise_variance * np.eye(m)
            self.inv_gram = np.linalg.inv(gram)


def _run_greedy(candidates: CandidateSet, states, weights, budget: int) -> Design:
    if budget < 0:
        raise ValidationError("budget must be non-negative")
    if budget > candidates.active_count:
        raise ValidationError(
            f"budget {budget} exceeds the {candidates.active_count} active candidates"
        )
    active = candidates.active.copy()
    selected: list[int] = []
    history = np.empty(budget)
    objective = 0.0
    for step in range(budget):
        gains = np.zeros(len(candidates))
        for w, state in zip(weights, states):
            gains += w * state.gains()
        gains[~active] = -np.inf
        index = int(np.argmax(gains))  # ties resolve to the lowest index
        for state in states:
            state.append(index)
        active[index] = False
        selected.append(index)
        objective += float(gains[index])
        history[step] = objective
    return Design(selected=selected, objective=objective, objective_history=history)


def greedy_design(
    candidates: CandidateSet, prior: VoxelPrior, basis: ShBasis, budget: int
) -> Design:
    """Select `budget` directions by greedy maximization of the trace objective.

    Each step scans all remaining candidates (ties break to the lowest
    index) and appends the winner, updating the maintained Gram inverse by
    the block rank-one formula; the inverse is rebuilt from scratch every
    25 steps to cap floating-point drift. Greedy prefixes are stable: the
    design of budget b1 < b2 equals the first b1 picks of the b2 design.
    """
    state = _VoxelState(candidates, prior, basis)
    result = _run_greedy(candidates, [state], [1.0], budget)
    result.inv_gram = state.inv_gram
    result.psi_rows = state.psi_rows
    return result


def greedy_design_region(
    candidates: CandidateSet, priors, weights, basis: ShBasis, budget: int
) -> Design:
    """Greedy selection for a weighted collection of voxels.

    Maximizes the weighted sum of per-voxel trace objectives while keeping
    one Gram-inverse state per voxel; weights must be positive and sum to 1.
    """
    priors = list(priors)
    w = np.asarray(weights, dtype=float)
    if len(priors) < 1 or w.shape != (len(priors),):
        raise ValidationError("need one weight per prior and at least one prior")
    if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValidationError("weights must be positive and sum to 1")
    states = [_VoxelState(candidates, p, basis) for p in priors]
    return _run_greedy(candidates, states, w, budget)


def greedy_bound(
    prior: VoxelPrior, candidates: CandidateSet, basis: ShBasis, steps: int, budget: int
) -> BoundCertificate:
    """Certificate: greedy after `steps` picks achieves at least
    `factor` times the optimal `budget`-point objective.

    factor = 1 - exp(-(1/rho_max) * (steps/budget)
                     / (1/rho_min + (steps/sigma^2) * lambda_psi_star))

    where lambda_psi_star is the largest squared eigenfunction row norm
    over the active candidates.
    """
    if not 1 <= steps <= budget:
        raise ValidationError("need 1 <= steps <= budget")
    psi = basis.evaluate(candidates.points[candidates.active]) @ prior.eigenvectors
    lambda_psi_star = float(np.max(np.einsum("ij,ij->i", psi, psi)))
    rho_max = float(prior.eigenvalues[0])
    rho_min = float(prior.eigenvalues[-1])
    sigma2 = prior.noise_variance
    exponent = -(1.0 / rho_max) * (steps / budget) / (1.0 / rho_min + (steps / sigma2) * lambda_psi_star)
    factor = 1.0 - np.exp(exponent)
    return BoundCertificate(
        steps=int(steps),
        budget=int(budget),
        rho_max=rho_max,
        rho_min=rho_min,
        lambda_psi_star=lambda_psi_star,
        noise_variance=sigma2,
        factor=float(factor),
    )


def coulomb_energy(points) -> float:
    """Antipodally symmetric Coulomb energy sum_{i<j} (1/|pi-pj| + 1/|pi+pj|)."""
    pts, _ = as_unit_vectors(points, "points")
    energy, _ = _kernels.coulomb_energy_grad(pts)
    return energy


def esr_design(
    count: int,
    iterations: int = 2000,
    step: float | None = None,
    seed: int = 0,
    restarts: int = 3,
) -> np.ndarray:
    """Electrostatic-repulsion design: spread `count` directions on the sphere.

    Starts from a jittered golden spiral and runs projected gradient
    descent on the antipodally symmetric Coulomb energy with a
    multiplicative backtracking step schedule; only energy-decreasing moves
    are accepted, so the final energy never exceeds the initial one.
    Deterministic for a fixed seed; the best of `restarts` seeded starts is
    returned (the first one on a tie).

    The restarts descend in lockstep, one stacked energy evaluation per
    step. Each keeps its own step size and accept/reject decisions and
    leaves the live set once its step size falls below 1e-14, so every
    restart follows the same path as it would alone.
    """
    if count < 2:
        raise ValidationError("need at least two directions")
    if iterations < 1:
        raise ValidationError("need at least one iteration")
    rng = np.random.default_rng(seed)
    base = hemisphere_spiral(count)
    starts = [base + 0.05 * rng.standard_normal((count, 3)) for _ in range(max(1, restarts))]
    points = normalized(np.stack(starts))
    energy, grad = _kernels.coulomb_energy_grad(points)
    alpha = np.full(len(starts), step if step is not None else 0.01 / count)
    live = np.arange(len(starts))
    for _ in range(iterations):
        pts, grd = points[live], grad[live]
        tangent = grd - np.einsum("rij,rij->ri", grd, pts)[:, :, None] * pts
        trial = normalized(pts - alpha[live, None, None] * tangent)
        trial_energy, trial_grad = _kernels.coulomb_energy_grad(trial)
        better = trial_energy < energy[live]
        moved = live[better]
        points[moved], energy[moved], grad[moved] = trial[better], trial_energy[better], trial_grad[better]
        alpha[live] *= np.where(better, 1.2, 0.5)
        live = live[better | ~(alpha[live] < 1e-14)]
        if live.size == 0:
            break
    return points[int(np.argmin(energy))]


def gradient_table(points) -> str:
    """Plain-text gradient table: one 'x y z' line per direction, 9 significant digits."""
    pts, _ = as_unit_vectors(points, "points")
    return "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pts)
