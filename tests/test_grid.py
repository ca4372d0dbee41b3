
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab.errors import MemoryBudgetError
from iselab.events import EventSpec
from iselab.grid import (GridSpec, laplacian_eigenvalues,
                         laplacian_eigenvalues_1d, laplacian_matrix)


def strict_lattice_count(center, side):
    """Integer points strictly inside the open cube, by brute force."""
    reach = int(side) + 1
    return sum(
        1
        for i in range(int(center[0]) - reach, int(center[0]) + reach + 1)
        for j in range(int(center[1]) - reach, int(center[1]) + reach + 1)
        if abs(i - center[0]) < side / 2.0 and abs(j - center[1]) < side / 2.0
    )


class TestGridSpec:
    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            GridSpec(dimension=1, side=4.0, spacing=1.0)

    def test_rejects_incommensurate_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(dimension=2, side=4.0, spacing=0.3)

    def test_rejects_memory_budget_overflow(self):
        with pytest.raises(MemoryBudgetError):
            GridSpec(dimension=2, side=4096.0, spacing=1.0 / 4096)

    def test_nodes_are_cell_centered(self):
        g = GridSpec(dimension=2, side=2.0, spacing=1.0)
        assert np.allclose(g.axis_coords(0), [-0.5, 0.5])

    def test_nodes_within_ball_matches_brute_force(self, fine_grid):
        center, radius = (0.3, -0.7), 0.9
        got = set(fine_grid.nodes_within_ball(center, radius).tolist())
        nodes = fine_grid.nodes()
        want = {i for i, p in enumerate(nodes)
                if np.linalg.norm(p - np.array(center)) < radius}
        assert got == want


class TestLaplacian:
    def test_dirichlet_2x2_smallest_eigenvalue(self, dense_eigvals):
        g = GridSpec(dimension=2, side=2.0, spacing=1.0, boundary="dirichlet")
        assert abs(dense_eigvals(laplacian_matrix(g))[0] - 2.0) < 1e-12

    def test_periodic_kernel_is_the_constant_vector(self, unit_grid,
                                                    dense_eigvals):
        mat = laplacian_matrix(unit_grid)
        ones = np.ones(unit_grid.num_points)
        assert np.allclose(mat @ ones, 0.0, atol=1e-14)
        assert abs(dense_eigvals(mat)[0]) < 1e-12

    def test_periodic_axis_multiset_n4(self):
        vals = laplacian_eigenvalues_1d(4, 1.0, "periodic")
        assert sorted(vals.tolist()) == pytest.approx([0.0, 2.0, 2.0, 4.0])

    def test_matrix_is_exactly_symmetric(self, fine_grid):
        mat = laplacian_matrix(fine_grid)
        assert (mat != mat.T).nnz == 0

    def test_periodic_row_sums_vanish(self, unit_grid):
        sums = np.asarray(laplacian_matrix(unit_grid).sum(axis=1)).ravel()
        assert np.all(sums == 0.0)

    def test_dirichlet_interior_row_sums_vanish(self):
        g = GridSpec(dimension=2, side=5.0, spacing=1.0, boundary="dirichlet")
        mat = laplacian_matrix(g).toarray()
        n = g.points_per_side
        interior = [i * n + j for i in range(1, n - 1) for j in range(1, n - 1)]
        assert np.allclose(mat[interior].sum(axis=1), 0.0, atol=1e-14)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic", "neumann"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_closed_form_spectrum(self, boundary, n, dense_eigvals):
        g = GridSpec(dimension=2, side=float(n), spacing=1.0,
                     boundary=boundary)
        assert np.allclose(dense_eigvals(laplacian_matrix(g)),
                           laplacian_eigenvalues(g), atol=1e-10)

    def test_spacing_scales_spectrum(self, dense_eigvals):
        g = GridSpec(dimension=2, side=2.0, spacing=0.25,
                     boundary="dirichlet")
        assert np.allclose(dense_eigvals(laplacian_matrix(g)),
                           laplacian_eigenvalues(g), atol=1e-8)


class TestCellDecomposition:
    """The closed-form cell table of the good event, EventSpec.cells()."""

    @staticmethod
    def centers(spec):
        table = spec.cells()
        return [tuple(c) for c in table[:, table.shape[1] // 2].tolist()]

    def test_nine_unit_cells_in_doubled_box(self):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        want = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        assert self.centers(spec) == want
        assert spec.cells().shape == (9, 1, 2)

    def test_single_cell_when_l_equals_L(self):
        spec = EventSpec(dimension=2, l=3, L=3, eta=0.5, kappa=0.5)
        assert self.centers(spec) == [(0, 0)]

    def test_coarse_cells_in_doubled_box(self):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.5)
        want = [(i, j) for i in (-3, 0, 3) for j in (-3, 0, 3)]
        assert self.centers(spec) == want

    def test_rejects_l_larger_than_L(self):
        with pytest.raises(ValueError):
            EventSpec(dimension=2, l=3, L=2, eta=0.5, kappa=0.5)

    @pytest.mark.parametrize("l", [1, 3, 5])
    def test_odd_cells_hold_l_to_the_d_lattice_points(self, l):
        spec = EventSpec(dimension=2, l=l, L=15, eta=0.5, kappa=0.5)
        table = spec.cells()
        assert table.shape[1] == l ** 2
        for row in table:
            center = row[l ** 2 // 2]
            assert np.all(np.abs(row - center) < l / 2.0)
            assert len({tuple(p) for p in row.tolist()}) == l ** 2

    def test_cells_partition_the_lattice_points(self):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.5)
        seen = []
        for center, row in zip(self.centers(spec), spec.cells().tolist()):
            assert len(row) == strict_lattice_count(center, spec.l)
            seen.extend(map(tuple, row))
        assert len(seen) == len(set(seen))
        # the union covers exactly the points inside the union of the cells
        want = {(i, j) for i in range(-4, 5) for j in range(-4, 5)}
        assert set(seen) == want

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(2, 40), l=st.integers(1, 9).filter(lambda v: v % 2))
    def test_lattice_counts_match_brute_force(self, L, l):
        if l > L:
            return
        spec = EventSpec(dimension=2, l=l, L=L, eta=0.5, kappa=0.5)
        for center, row in list(zip(self.centers(spec), spec.cells()))[:5]:
            assert len(row) == strict_lattice_count(center, l)
            assert np.all(np.abs(row - center) < l / 2.0)
