import numpy as np
import pytest

from qsdesign.prior import EigenStack, RankRule, VoxelPrior
from qsdesign.sphere import ShBasis, make_grid


@pytest.fixture(scope="session")
def basis4():
    return ShBasis(4)


@pytest.fixture(scope="session")
def basis8():
    return ShBasis(8)


@pytest.fixture(scope="session")
def quad_grid():
    return make_grid("equiangular", 64)


def random_unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def basis_index(basis, degree, order):
    """Flat index j of the (degree, order) function of `basis`."""
    (j,) = np.flatnonzero((basis.degrees == degree) & (basis.orders == order))
    return int(j)


def random_prior(basis, rng, rank=None, noise_variance=0.01, scale=1.0):
    """Random full-rank covariance prior for a given basis."""
    j = basis.dimension
    a = rng.standard_normal((j, j)) * scale
    cov = a @ a.T / j
    mean = rng.standard_normal(j) * 0.1 * scale
    rule = RankRule("fixed", rank) if rank is not None else RankRule("fraction", 0.9)
    return VoxelPrior.from_moments(mean, cov, noise_variance, rule)


def stack_of(priors):
    """The `EigenStack` of `priors`, each zero-padded to their largest rank,
    as `load_eigen_stack` stacks the voxels of a field."""
    kmax = max(p.rank for p in priors)
    evals, evecs = np.zeros((len(priors), kmax)), np.zeros((len(priors), priors[0].dimension, kmax))
    for v, p in enumerate(priors):
        evals[v, : p.rank], evecs[v, :, : p.rank] = p.eigenvalues, p.eigenvectors
    return EigenStack(evals, evecs, np.array([[p.noise_variance] for p in priors]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
