import numpy as np
import pytest

from iselab.grid import Ball, GridSpec, laplacian_matrix
from iselab.operators import (IndicatorMask, assemble_background,
                              assemble_hamiltonian, assemble_interpolated,
                              assemble_test_perturbation, mask_from_balls)
from iselab.potentials import (constant_potential, indicator_profile,
                               zero_potential)


@pytest.fixture
def grid6():
    return GridSpec(dimension=2, side=6.0, spacing=1.0, boundary="periodic")


class TestAssembly:
    def test_trivial_hamiltonian_is_the_laplacian(self, grid6, config_from):
        h = assemble_hamiltonian(grid6, zero_potential(), config_from({}), [])
        assert (h != laplacian_matrix(grid6)).nnz == 0

    def test_constant_background_shifts_spectrum_exactly(self, grid6,
                                                         dense_eigvals):
        v = 7.25
        h = assemble_background(grid6, constant_potential(v))
        lap = dense_eigvals(laplacian_matrix(grid6))
        assert np.allclose(dense_eigvals(h), lap + v, atol=1e-12)

    def test_single_bump_raises_ground_state_at_most_c(self, grid6,
                                                        config_from,
                                                        dense_eigvals):
        fine = GridSpec(dimension=2, side=2.0, spacing=0.25,
                        boundary="periodic")
        c = 3.0
        profiles = [indicator_profile((0, 0), c, 0.45)]
        cfg = config_from({(0, 0): 1.0})
        h = assemble_hamiltonian(fine, zero_potential(), cfg, profiles)
        ground = dense_eigvals(h)[0]
        assert 0.0 < ground <= c

    def test_symmetry_and_pattern_stability(self, grid6, config_from):
        cfg = config_from({(0, 0): 0.7})
        profiles = [indicator_profile((0, 0), 1.0, 0.45)]
        lap = laplacian_matrix(grid6)
        h = assemble_hamiltonian(grid6, constant_potential(2.0), cfg, profiles)
        assert (h != h.T).nnz == 0
        assert np.array_equal(lap.indices, h.indices)
        assert np.array_equal(lap.indptr, h.indptr)


class TestInterpolatedFamily:
    def test_endpoints(self, grid6):
        profiles = [indicator_profile((0, 0), 1.0, 0.45)]
        v0 = constant_potential(1.0)
        t0 = assemble_interpolated(grid6, v0, 0.0, profiles)
        h0 = assemble_background(grid6, v0)
        assert (t0 != h0).nnz == 0

    def test_t_outside_unit_interval_rejected(self, grid6):
        with pytest.raises(ValueError):
            assemble_interpolated(grid6, zero_potential(), 1.5, [])

    def test_eigenvalues_nondecreasing_in_t(self, dense_eigvals):
        grid = GridSpec(dimension=2, side=6.0, spacing=1.0,
                        boundary="periodic")
        profiles = [indicator_profile((i, j), 1.0, 0.45)
                    for i in (-2, 0, 2) for j in (-2, 0, 2)]
        prev = None
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = dense_eigvals(
                assemble_interpolated(grid, zero_potential(), t, profiles))
            if prev is not None:
                assert np.all(vals >= prev - 1e-10)
            prev = vals


class TestTestPerturbation:
    def test_zero_amplitude_is_background(self, grid6):
        mask = mask_from_balls(grid6, [Ball((0.0, 0.0), 1.2)])
        hp = assemble_test_perturbation(grid6, zero_potential(), mask, 0.0)
        h0 = assemble_background(grid6, zero_potential())
        assert (hp != h0).nnz == 0

    def test_full_mask_is_a_uniform_shift(self, grid6, dense_eigvals):
        mask = IndicatorMask(np.arange(grid6.num_points))
        amp = 0.5
        hp = assemble_test_perturbation(grid6, zero_potential(), mask, amp)
        h0 = assemble_background(grid6, zero_potential())
        assert np.allclose(dense_eigvals(hp), dense_eigvals(h0) + amp,
                           atol=1e-12)

    def test_single_ball_between_background_and_shift(self, grid6,
                                                      dense_eigvals):
        amp = 0.8
        mask = mask_from_balls(grid6, [Ball((0.0, 0.0), 1.2)])
        lo = dense_eigvals(assemble_background(grid6, zero_potential()))
        mid = dense_eigvals(
            assemble_test_perturbation(grid6, zero_potential(), mask, amp))
        assert np.all(lo - 1e-12 <= mid)
        assert np.all(mid <= lo + amp + 1e-12)

    def test_empty_mask_rejected(self, grid6):
        with pytest.raises(Exception):
            mask_from_balls(grid6, [Ball((100.0, 100.0), 0.2)])
