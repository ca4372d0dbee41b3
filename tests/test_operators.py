import numpy as np
import pytest

from iselab.eigensolve import check_t_grid
from iselab.errors import IselabError
from iselab.events import EventSpec
from iselab.grid import GridSpec, assemble_schrodinger, laplacian_matrix
from iselab.potentials import (assemble_random_potential, constant_potential,
                               indicator_profile, site_matrix, zero_potential)
from iselab.ucp import equidistributed_from_choice


@pytest.fixture
def grid6():
    return GridSpec(dimension=2, side=6.0, spacing=1.0, boundary="periodic")


def background(grid, v0):
    """H0 = -Laplacian + V0 at the nodes."""
    return assemble_schrodinger(grid, v0.evaluate(grid.nodes()))


def envelope(profiles, grid):
    """W = U @ 1, every coupling at 1."""
    return site_matrix(profiles, grid) @ np.ones(len(profiles))


def indicator(grid, center, radius):
    chi = np.zeros(grid.num_points)
    chi[grid.nodes_within_ball(center, radius)] = 1.0
    return chi


class TestAssembly:
    def test_trivial_hamiltonian_is_the_laplacian(self, grid6, config_from):
        v_omega = assemble_random_potential(config_from({}), [], grid6)
        h = assemble_schrodinger(
            grid6, zero_potential().evaluate(grid6.nodes()) + v_omega)
        assert (h != laplacian_matrix(grid6)).nnz == 0

    def test_constant_background_shifts_spectrum_exactly(self, grid6,
                                                         dense_eigvals):
        v = 7.25
        h = background(grid6, constant_potential(v))
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
        h = assemble_schrodinger(
            fine, zero_potential().evaluate(fine.nodes())
            + assemble_random_potential(cfg, profiles, fine))
        ground = dense_eigvals(h)[0]
        assert 0.0 < ground <= c

    def test_symmetry_and_pattern_stability(self, grid6, config_from):
        cfg = config_from({(0, 0): 0.7})
        profiles = [indicator_profile((0, 0), 1.0, 0.45)]
        lap = laplacian_matrix(grid6)
        h = assemble_schrodinger(
            grid6, constant_potential(2.0).evaluate(grid6.nodes())
            + assemble_random_potential(cfg, profiles, grid6))
        assert (h != h.T).nnz == 0
        assert np.array_equal(lap.indices, h.indices)
        assert np.array_equal(lap.indptr, h.indptr)


class TestInterpolatedFamily:
    def test_endpoints(self, grid6):
        profiles = [indicator_profile((0, 0), 1.0, 0.45)]
        v0 = constant_potential(1.0)
        t0 = assemble_schrodinger(grid6, v0.evaluate(grid6.nodes())
                                  + 0.0 * envelope(profiles, grid6))
        h0 = background(grid6, v0)
        assert (t0 != h0).nnz == 0

    def test_t_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            check_t_grid([1.5])

    def test_eigenvalues_nondecreasing_in_t(self, dense_eigvals):
        grid = GridSpec(dimension=2, side=6.0, spacing=1.0,
                        boundary="periodic")
        profiles = [indicator_profile((i, j), 1.0, 0.45)
                    for i in (-2, 0, 2) for j in (-2, 0, 2)]
        v0_nodes = zero_potential().evaluate(grid.nodes())
        w = envelope(profiles, grid)
        prev = None
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = dense_eigvals(assemble_schrodinger(grid, v0_nodes + t * w))
            if prev is not None:
                assert np.all(vals >= prev - 1e-10)
            prev = vals


class TestTestPerturbation:
    def test_zero_amplitude_is_background(self, grid6):
        chi = indicator(grid6, (0.0, 0.0), 1.2)
        v0_nodes = zero_potential().evaluate(grid6.nodes())
        hp = assemble_schrodinger(grid6, v0_nodes + 0.0 * chi)
        h0 = background(grid6, zero_potential())
        assert (hp != h0).nnz == 0

    def test_full_mask_is_a_uniform_shift(self, grid6, dense_eigvals):
        amp = 0.5
        v0_nodes = zero_potential().evaluate(grid6.nodes())
        hp = assemble_schrodinger(grid6,
                                  v0_nodes + amp * np.ones(grid6.num_points))
        h0 = background(grid6, zero_potential())
        assert np.allclose(dense_eigvals(hp), dense_eigvals(h0) + amp,
                           atol=1e-12)

    def test_single_ball_between_background_and_shift(self, grid6,
                                                      dense_eigvals):
        amp = 0.8
        chi = indicator(grid6, (0.0, 0.0), 1.2)
        v0_nodes = zero_potential().evaluate(grid6.nodes())
        lo = dense_eigvals(background(grid6, zero_potential()))
        mid = dense_eigvals(assemble_schrodinger(grid6, v0_nodes + amp * chi))
        assert np.all(lo - 1e-12 <= mid)
        assert np.all(mid <= lo + amp + 1e-12)

    def test_empty_mask_rejected(self):
        # every chosen ball lies far outside the box: the mask has no node
        far = GridSpec(dimension=2, side=6.0, spacing=1.0,
                       boundary="periodic", center=(100.0, 100.0))
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        chosen = spec.cells()[:, 0].tolist()
        profiles = [indicator_profile(tuple(s), 1.0, 0.2) for s in chosen]
        with pytest.raises(IselabError, match="mask is empty"):
            equidistributed_from_choice(spec, chosen, profiles, far)
