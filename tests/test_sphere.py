import numpy as np
import pytest

from qsdesign.errors import ValidationError
from qsdesign.sphere import (
    ShBasis,
    funk_radon,
    inverse_funk_radon,
    laplace_beltrami_penalty,
    legendre_at_zero,
    make_grid,
    project_to_basis,
)

from conftest import basis_index, random_unit_vectors


def legendre_value(degree, x):
    """Bonnet recurrence oracle for P_l(x), independent of the package."""
    p_prev, p = 1.0, x
    if degree == 0:
        return 1.0
    for l in range(2, degree + 1):
        p_prev, p = p, ((2 * l - 1) * x * p - (l - 1) * p_prev) / l
    return p


class TestBasis:
    def test_dimension_and_even_degrees(self):
        basis = ShBasis(8)
        assert basis.dimension == 45
        assert set(basis.degrees) == {0, 2, 4, 6, 8}
        assert np.all(basis.degrees % 2 == 0)

    def test_degree_zero_is_constant(self, basis8, rng):
        for p in random_unit_vectors(rng, 5):
            assert basis8.evaluate(p)[0] == pytest.approx(1.0 / np.sqrt(4 * np.pi), abs=1e-14)

    def test_degree_two_zonal_at_pole(self, basis8):
        vals = basis8.evaluate(np.array([0.0, 0.0, 1.0]))
        j = basis_index(basis8, 2, 0)
        # only m=0 entries survive at the pole; zonal value sqrt(5/16pi)*2
        assert vals[j] == pytest.approx(np.sqrt(5.0 / (16.0 * np.pi)) * 2.0, rel=1e-12)
        nonzonal = vals[basis8.orders != 0]
        assert np.abs(nonzonal).max() < 1e-14

    def test_addition_theorem(self, basis8, rng):
        expected = sum((2 * l + 1) / (4 * np.pi) for l in range(0, 9, 2))
        for p in random_unit_vectors(rng, 20):
            total = float(np.sum(basis8.evaluate(p) ** 2))
            assert total == pytest.approx(expected, abs=1e-10)

    def test_orthonormality_gram(self, basis8, quad_grid):
        phi = basis8.evaluate(quad_grid.directions)
        gram = phi.T @ (quad_grid.weights[:, None] * phi)
        assert np.abs(gram - np.eye(basis8.dimension)).max() < 1e-6

    def test_non_unit_point_rejected(self, basis8):
        with pytest.raises(ValidationError):
            basis8.evaluate(np.array([0.0, 0.0, 1.1]))

    def test_odd_degree_rejected(self):
        with pytest.raises(ValidationError):
            ShBasis(3)


class TestLegendreAtZero:
    @pytest.mark.parametrize("degree,expected", [(0, 1.0), (2, -0.5)])
    def test_known_values(self, degree, expected):
        assert legendre_at_zero(degree) == pytest.approx(expected, abs=1e-15)

    def test_degree_four_by_recurrence(self):
        assert legendre_at_zero(4) == pytest.approx(legendre_value(4, 0.0), abs=1e-14)

    @pytest.mark.parametrize("degree", range(0, 17, 2))
    def test_matches_recurrence_oracle(self, degree):
        assert legendre_at_zero(degree) == pytest.approx(legendre_value(degree, 0.0), abs=1e-13)

    @pytest.mark.parametrize("degree", [1, 3, -2])
    def test_rejects_bad_degree(self, degree):
        with pytest.raises(ValidationError):
            legendre_at_zero(degree)


class TestFunkRadon:
    def test_constant_scales_by_2pi(self, basis8):
        c = np.zeros(basis8.dimension)
        c[0] = 1.7
        out = funk_radon(c, basis8)
        assert out[0] == pytest.approx(2 * np.pi * 1.7, rel=1e-14)
        assert np.all(out[1:] == 0.0)

    def test_degree_two_multiplier(self, basis8):
        j = basis_index(basis8, 2, 1)
        c = np.zeros(basis8.dimension)
        c[j] = 1.0
        assert funk_radon(c, basis8)[j] == pytest.approx(-np.pi, rel=1e-14)

    def test_diagonal_action_on_basis_vectors(self, basis8):
        for j in range(basis8.dimension):
            e = np.zeros(basis8.dimension)
            e[j] = 1.0
            out = funk_radon(e, basis8)
            expected = 2 * np.pi * legendre_value(int(basis8.degrees[j]), 0.0)
            assert out[j] == pytest.approx(expected, rel=1e-13)
            out[j] = 0.0
            assert np.all(out == 0.0)

    @pytest.mark.parametrize("max_degree", [0, 2, 4, 6, 8])
    def test_round_trip(self, max_degree, rng):
        basis = ShBasis(max_degree)
        c = rng.standard_normal(basis.dimension)
        back = inverse_funk_radon(funk_radon(c, basis), basis)
        assert np.abs(back - c).max() < 1e-12

    def test_inverse_known_values(self, basis8):
        c = np.zeros(basis8.dimension)
        c[0] = 2 * np.pi
        assert inverse_funk_radon(c, basis8)[0] == pytest.approx(1.0, rel=1e-14)
        j = basis_index(basis8, 2, 0)
        c = np.zeros(basis8.dimension)
        c[j] = -np.pi
        assert inverse_funk_radon(c, basis8)[j] == pytest.approx(1.0, rel=1e-14)


class TestPenalty:
    def test_known_entries(self, basis8):
        penalty = laplace_beltrami_penalty(basis8)
        diag = np.diag(penalty)
        assert diag[0] == 0.0
        assert diag[basis_index(basis8, 2, 0)] == 36.0
        assert diag[basis_index(basis8, 4, 0)] == 400.0

    def test_psd_zero_only_at_degree_zero(self, basis8):
        diag = np.diag(laplace_beltrami_penalty(basis8))
        assert np.all(diag >= 0)
        assert np.all((diag == 0) == (basis8.degrees == 0))


class TestGrids:
    def test_spiral_uniform_weights(self):
        grid = make_grid("spiral", 100)
        assert len(grid) == 100
        assert np.allclose(grid.weights, 0.04 * np.pi)
        assert np.allclose(np.linalg.norm(grid.directions, axis=1), 1.0)

    def test_equiangular_integrates_phi0_squared(self, basis8):
        grid = make_grid("equiangular", 64)
        vals = basis8.evaluate(grid.directions)[:, 0] ** 2
        assert grid.weights @ vals == pytest.approx(1.0, abs=1e-6)

    def test_equiangular_integrates_degree_two_to_zero(self, basis8):
        grid = make_grid("equiangular", 64)
        j = basis_index(basis8, 2, 1)
        vals = basis8.evaluate(grid.directions)[:, j]
        assert abs(grid.weights @ vals) < 1e-6

    def test_bad_kind_and_size(self):
        with pytest.raises(ValidationError):
            make_grid("cube", 10)
        with pytest.raises(ValidationError):
            make_grid("spiral", 0)

    def test_projection_recovers_band_limited(self, basis4, rng):
        grid = make_grid("equiangular", 32)
        c = rng.standard_normal(basis4.dimension)
        values = basis4.evaluate(grid.directions) @ c
        rec = project_to_basis(values, grid, basis4)
        assert np.abs(rec - c).max() < 1e-10
