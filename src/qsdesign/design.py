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
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegeneracyError, ValidationError
from .prior import EigenStack, VoxelPrior
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
# the most directions of an electrostatic-repulsion design, whose Coulomb
# pair array holds 6 n^2 entries a configuration
ESR_COUNT_LIMIT = math.isqrt(_kernels.SIZE_CEILING_BYTES // 8 // 6)


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


def greedy_design(
    candidates: CandidateSet, prior: VoxelPrior, basis: ShBasis, budget: int
) -> Design:
    """Select `budget` directions by greedy maximization of the trace objective.

    Each step scores all remaining candidates by their gain
    ||D v||^2 / (sigma^2 + v' D v), with v the candidate's eigenfunction row
    and D the posterior score covariance (ties break to the lowest index),
    appends the winner and downdates D <- D - (D v)(D v)' / (sigma^2 + v' D v).
    Greedy prefixes are stable: the design of budget b1 < b2 equals the
    first b1 picks of the b2 design. This is `greedy_design_region` of the
    prior's one-voxel `EigenStack`.
    """
    return greedy_design_region(candidates, EigenStack.of(prior), basis, budget)


def greedy_design_region(candidates: CandidateSet, stack: EigenStack, basis: ShBasis, budget: int) -> Design:
    """Greedy selection for the voxels of an `EigenStack`.

    Maximizes the mean of the per-voxel trace objectives, which for one
    voxel is its own objective. The stack's zero-padded eigenvectors
    (V, J, K) are read as they are, and the posterior score covariances
    (V, K, K) are stacked with them. Each step is one loop over voxel
    `blocks`: a block computes its `psi` (B, N, K), applies the last pick's
    downdate from that pick's row of it and adds its `greedy_gains` to a
    running sum (N,), voxel by voxel in index order, divided by V once.
    Stacked matmul makes one BLAS call per voxel, so every block and the
    sum have the bits of one block; no (V, N, K) `psi` or (V, N) gains.
    """
    if not len(stack):
        raise ValidationError("need at least one prior")
    if budget < 0:
        raise ValidationError("budget must be non-negative")
    if budget > len(candidates):
        raise ValidationError(f"budget {budget} exceeds the {len(candidates)} candidates")
    voxels, kmax = stack.eigenvalues.shape
    evecs, noise = stack.eigenvectors, stack.noise_variances
    dmat = np.zeros((voxels, kmax, kmax))
    dmat[:, np.arange(kmax), np.arange(kmax)] = stack.eigenvalues
    phi = basis.evaluate(candidates.points)
    active = np.ones(len(candidates), dtype=bool)
    selected: list[int] = []
    history = np.empty(budget)
    objective = 0.0
    for step in range(budget):
        total = 0.0
        for block in _kernels.blocks(voxels, len(candidates) * kmax):
            psi, dblock, nblock = phi @ evecs[block], dmat[block], noise[block]
            if selected:  # D <- D - (D v)(D v)' / (sigma^2 + v' D v), v the previous pick's row
                dv = np.einsum("vij,vj->vi", dblock, psi[:, selected[-1]])
                den = nblock + np.einsum("vi,vi->v", psi[:, selected[-1]], dv)[:, None]
                dblock -= dv[:, :, None] * dv[:, None, :] / den[:, :, None]
            gains = _kernels.greedy_gains(psi, dblock, nblock)
            gains[0] += total  # accumulate adds the rows in turn, where reduce may pair a column's rows
            total = np.add.accumulate(gains, axis=0)[-1]
        gains = total / voxels
        if not np.isfinite(gains).all():
            raise DegeneracyError(
                f"greedy gains are not finite at step {step}: prior eigenvalues are too large for float64"
            )
        gains[~active] = -np.inf
        index = int(np.argmax(gains))  # ties resolve to the lowest index
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
    over the candidates. This is `region_bound` of the prior's one-voxel
    `EigenStack`.
    """
    return region_bound(EigenStack.of(prior), candidates, basis, steps, budget)


def region_bound(
    stack: EigenStack, candidates: CandidateSet, basis: ShBasis, steps: int, budget: int
) -> BoundCertificate:
    """Conservative certificate of a region design: the `greedy_bound` of the
    voxel of the stack with the smallest factor (the first on a tie), with
    the candidate basis evaluated once for all the voxels. Each voxel has
    the bits of its own `greedy_bound`: see `_lambda_psi_star`."""
    return region_bounds(stack, candidates, basis, [(steps, budget)])[0]


def region_bounds(stack: EigenStack, candidates: CandidateSet, basis: ShBasis, pairs) -> list:
    """`region_bound` of every (steps, budget) pair of `pairs`, in order, with
    the candidate basis, `lambda_psi_star` and the spectrum endpoints taken
    once for all of them; each certificate has the bits of its own call."""
    pairs = list(pairs)
    if not all(1 <= steps <= budget for steps, budget in pairs):
        raise ValidationError("need 1 <= steps <= budget")
    if not len(stack):
        raise ValidationError("need at least one prior")
    lam_star = _lambda_psi_star(basis.evaluate(candidates.points), stack)
    ranks, evals = stack.ranks, stack.eigenvalues
    rho_max, rho_min = evals[:, 0], evals[np.arange(len(stack)), ranks - 1]
    sigma2 = stack.noise_variances[:, 0]
    certificates = []
    for steps, budget in pairs:
        exponent = -(1.0 / rho_max) * (steps / budget) / (1.0 / rho_min + (steps / sigma2) * lam_star)
        factor = 1.0 - np.exp(exponent)
        v = int(np.argmin(factor))
        certificates.append(BoundCertificate(
            int(steps), int(budget), float(rho_max[v]), float(rho_min[v]), float(lam_star[v]), float(sigma2[v]),
            float(factor[v]),
        ))
    return certificates


def _lambda_psi_star(phi, stack: EigenStack) -> np.ndarray:
    """Each voxel's largest squared row norm of its `psi`, the candidate
    basis `phi` (N, J) times its eigenvectors: (V,).

    The voxels go by groups of equal rank k, in `blocks` of N k entries a
    voxel, and each group's `psi` comes from its unpadded (B, J, k)
    eigenvectors by `_rank_groups`, so every voxel has the bits of its
    one-voxel product and of its one-voxel row norms."""
    lam_star = np.empty(len(stack))
    for rows, psi in _rank_groups(phi, stack):
        lam_star[rows] = np.einsum("vij,vij->vi", psi, psi).max(axis=1)
    return lam_star


def _rank_groups(phi, stack: EigenStack):
    """Yield (voxel rows, their unpadded `psi` (B, N, k)), for every group of
    voxels of equal rank k, in `blocks` of N k entries a voxel."""
    ranks = stack.ranks
    for k in sorted(set(ranks.tolist())):  # np.unique would import numpy.ma, about 1 MB resident
        group = np.flatnonzero(ranks == k)
        for block in _kernels.blocks(len(group), len(phi) * k):
            rows = group[block]
            yield rows, phi @ stack.eigenvectors[rows, :, :k]


def coulomb_energy(points) -> float:
    """Antipodally symmetric Coulomb energy sum_{i<j} (1/|pi-pj| + 1/|pi+pj|)."""
    pts, _ = as_unit_vectors(points, "points")
    energy, _ = _kernels.coulomb_energy_grad(pts)
    return energy


def check_esr_request(count: int, seed: int) -> None:
    """ValidationError unless `esr_design(count, seed)` can run."""
    for name, value in (("count", count), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < 2:
        raise ValidationError("need at least two directions")
    if count > ESR_COUNT_LIMIT:
        raise ValidationError(f"count must be at most {ESR_COUNT_LIMIT}, got {count}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class EsrDesign:
    """An electrostatic-repulsion design and how its descent went.

    `steps` counts the descent steps until the design's last restart
    stopped. `accepted`, `stop` and `energy` are those of the restart it
    returns: its accepted moves, why it stopped ("step floor" or "step
    cap") and its final energy, which is `coulomb_energy(points)`.
    """

    points: np.ndarray
    count: int
    seed: int
    steps: int
    accepted: int
    stop: str
    energy: float


def esr_design(count: int, seed: int = 0) -> np.ndarray:
    """Electrostatic-repulsion design: spread `count` directions on the sphere.

    Starts from a jittered golden spiral and runs at most `_ESR_STEPS`
    steps of projected gradient descent on the antipodally symmetric Coulomb
    energy, with a multiplicative backtracking schedule from a first step of
    `_ESR_FIRST_STEP / count`; only energy-decreasing moves are accepted.
    Deterministic for a fixed seed; the best of `_ESR_RESTARTS` seeded
    starts is returned (the first one on a tie). This is `esr_designs` for
    one request.
    """
    return esr_designs([(count, seed)])[0].points


def esr_designs(requests) -> list:
    """The `EsrDesign` of each (count, seed) request, in request order, from
    one lockstep descent of every restart of every request.

    Every request is checked before the first step. Each restart keeps its
    own step size and accept/reject decisions and leaves once its step size
    falls below 1e-14, so it follows the same path as it would alone, and
    each design is bit for bit `esr_design(count, seed)` whatever shares the
    descent. The state of the live restarts is coordinate-major, (3, P),
    one restart after the other as the `CoulombWorkspace` of the live set
    lays them out, and the descent keeps that workspace, so a step allocates
    nothing of the pair arrays' size; a restart that leaves is copied out
    and the live set is laid out anew. A step is one `_esr_trial`, one
    `coulomb_energy_grad` call and one masked update: the call gives the
    energy of every live trial and, bounded by the current energies, the
    gradients of every workspace group that holds an accepted trial; the
    update takes the accepted trials and their gradients and drops the rest.
    """
    requests = [(count, seed) for count, seed in requests]
    for count, seed in requests:
        check_esr_request(count, seed)
    starts = []
    for count, seed in requests:
        rng = np.random.default_rng(seed)
        base = hemisphere_spiral(count)
        starts += [normalized(base + 0.05 * rng.standard_normal((count, 3))) for _ in range(_ESR_RESTARTS)]
    if not starts:
        return []
    finals = [None] * len(starts)  # (points, energy, steps, accepted, stop) of each restart
    ids = np.arange(len(starts))
    points = np.concatenate(starts).T.copy()
    alpha = np.array([_ESR_FIRST_STEP / len(start) for start in starts])
    accepted = np.zeros(len(starts), dtype=int)
    sizes = [len(start) for start in starts]  # a live set: its layout and each point's restart
    workspace, owner = _kernels.CoulombWorkspace(sizes), np.repeat(np.arange(len(sizes)), sizes)
    energy, grad = (buffer.copy() for buffer in _kernels.coulomb_energy_grad(points, None, workspace))
    for step in range(1, _ESR_STEPS + 1):
        trial = _esr_trial(points, grad, alpha[owner])
        trial_energy, trial_grad = _kernels.coulomb_energy_grad(trial, energy, workspace)
        better = trial_energy < energy
        moved = better[owner]
        np.copyto(points, trial, where=moved)
        np.copyto(grad, trial_grad, where=moved)
        np.copyto(energy, trial_energy, where=better)
        accepted += better
        alpha *= np.where(better, 1.2, 0.5)
        stay = better | ~(alpha < 1e-14)
        if not stay.all():
            for r in np.flatnonzero(~stay):
                rows = points[:, workspace.ends[r] : workspace.ends[r + 1]].T.copy()
                finals[ids[r]] = (rows, float(energy[r]), step, int(accepted[r]), "step floor")
            keep = stay[owner]
            points, grad = points[:, keep], grad[:, keep]
            ids, alpha, energy, accepted = ids[stay], alpha[stay], energy[stay], accepted[stay]
            if not ids.size:
                break
            sizes = [len(starts[i]) for i in ids]
            workspace, owner = _kernels.CoulombWorkspace(sizes), np.repeat(np.arange(len(sizes)), sizes)
    for r, i in enumerate(ids):
        rows = points[:, workspace.ends[r] : workspace.ends[r + 1]].T.copy()
        finals[i] = (rows, float(energy[r]), _ESR_STEPS, int(accepted[r]), "step cap")
    designs = []
    for d, (count, seed) in enumerate(requests):
        runs = finals[d * _ESR_RESTARTS : (d + 1) * _ESR_RESTARTS]
        best = runs[int(np.argmin([run[1] for run in runs]))]
        steps = max(run[2] for run in runs)
        designs.append(EsrDesign(best[0], count, seed, steps, best[3], best[4], best[1]))
    return designs


def _esr_trial(points, grad, step) -> np.ndarray:
    """normalized(points - step (grad - (grad . points) points)) of
    coordinate-major (3, P) points, at `step` (P,) a point. The dot product
    rounds as (g0 p0 + g2 p2) + g1 p1, as the einsum over (n, 3) rows does,
    and the norm as (x0^2 + x1^2) + x2^2, as `normalized` does."""
    products = grad * points
    trial = points - (grad - points * ((products[0] + products[2]) + products[1])) * step
    squares = trial * trial
    return trial / np.sqrt((squares[0] + squares[1]) + squares[2])


def gradient_table(points) -> str:
    """Plain-text gradient table: one 'x y z' line per direction, 9 significant digits."""
    pts, _ = as_unit_vectors(points, "points")
    return "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pts)
