import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from iselab import eigensolve
from iselab.eigensolve import (TOL_EIG, background_eigs_below,
                               background_spectrum, count_below,
                               eigs_in_window, min_eig_above)
from iselab.errors import SolverError
from iselab.grid import (GridSpec, assemble_schrodinger, laplacian_eigenvalues,
                         laplacian_matrix)
from iselab.potentials import (constant_potential, indicator_profile,
                               separable_square_potential, zero_potential)
from iselab.ucp import verify_gap_hypothesis


def background(grid, v0):
    """H0 = -Laplacian + V0 at the nodes."""
    return assemble_schrodinger(grid, v0.evaluate(grid.nodes()))


@pytest.fixture
def free4():
    return GridSpec(dimension=2, side=4.0, spacing=1.0, boundary="periodic")


class TestEigsBelow:
    def test_exactly_the_kernel_below_first_excited(self, free4):
        # periodic spectrum starts 0, then 4 sin^2(pi/4) = 2
        values, _ = background_eigs_below(free4, zero_potential(), 1.0)
        assert values.size == 1
        assert abs(values[0]) < 1e-12

    def test_empty_below_the_spectrum(self, free4):
        values, _ = background_eigs_below(free4, zero_potential(), -0.5)
        assert values.size == 0

    def test_shift_equivariance(self, free4):
        v = 3.0
        base, _ = background_eigs_below(free4, zero_potential(), 2.5)
        shifted, _ = background_eigs_below(free4, constant_potential(v),
                                           2.5 + v)
        assert base.size == shifted.size
        assert np.allclose(base + v, shifted, atol=1e-10)

    def test_values_sorted_and_residuals_small(self, free4):
        values, vectors = background_eigs_below(free4, zero_potential(), 5.0)
        residuals = np.linalg.norm(
            laplacian_matrix(free4) @ vectors - vectors * values, axis=0)
        assert np.all(np.diff(values) >= 0)
        assert np.all(residuals <= TOL_EIG * (np.abs(values) + 1))
        norms = np.linalg.norm(vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestCountBelow:
    def test_shift_near_an_eigenvalue_counts_exactly(self, free4):
        # periodic spectrum: 0 once, then 2 four times
        op = laplacian_matrix(free4)
        assert count_below(op, -1e-12) == 0
        assert count_below(op, 1e-12) == 1

    def test_shift_on_an_eigenvalue_counts_it_below(self, free4, monkeypatch):
        # the nudge makes count_below(E) = #{lambda <= E}, as searchsorted
        # with side="right" counts a sorted spectrum
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", spy)
        op = laplacian_matrix(free4)
        assert count_below(op, 1e-12) == 1
        assert len(factorizations) == 1
        assert count_below(op, 0.0) == 1
        assert len(factorizations) == 3
        assert count_below(op, 2.0) == 5

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3]),
           boundary=st.sampled_from(["dirichlet", "neumann", "periodic"]),
           side=st.integers(2, 5),
           amplitude=st.sampled_from([0.0, 1.0, 10.0, 100.0]),
           seed=st.integers(0, 2**32 - 1),
           index=st.integers(0, 10**6),
           near=st.booleans(),
           offset=st.sampled_from([-1e-6, -1e-9, 1e-9, 1e-6]))
    def test_matches_dense_count(self, d, boundary, side, amplitude, seed,
                                 index, near, offset):
        grid = GridSpec(dimension=d, side=float(side), spacing=1.0,
                        boundary=boundary)
        n = grid.num_points
        diagonal = np.random.default_rng(seed).uniform(-amplitude, amplitude, n)
        mat = laplacian_matrix(grid) + sparse.diags(diagonal)
        values = np.linalg.eigvalsh(mat.toarray())
        j = index % n
        if near:
            sigma = values[j] + offset * (1.0 + abs(values[j]))
        else:
            # midway between values[j] and the next larger level, or above
            # the whole spectrum
            higher = values[values > values[j] + 1e-6]
            sigma = values[j] + 1.0 if higher.size == 0 \
                else 0.5 * (values[j] + higher[0])
        # the dense oracle itself cannot place a shift within rounding of
        # an eigenvalue
        assume(np.min(np.abs(values - sigma)) > 1e-11 * (1.0 + abs(sigma)))
        count = count_below(mat, sigma)
        if eigensolve._inertia(mat, sigma) is None:
            # an untrusted factor: the count is taken at the nudged shift
            sigma = eigensolve._nudge(sigma)
        assert count == int(np.sum(values < sigma))


class TestLowestAbove:
    def test_spectrum_bottom(self, free4):
        op = laplacian_matrix(free4)
        assert count_below(op, -1.0 - TOL_EIG) + 1 == 1
        assert min_eig_above(op, -1.0) == pytest.approx(0.0, abs=1e-12)

    def test_first_excited_level(self, free4):
        op = laplacian_matrix(free4)
        assert min_eig_above(op, 1.0) == pytest.approx(2.0, abs=1e-10)
        assert count_below(op, 1.0 - TOL_EIG) + 1 == 2   # k0

    def test_shift_equivariance(self, free4):
        v = 2.5
        base = laplacian_matrix(free4)
        shifted = background(free4, constant_potential(v))
        assert count_below(base, 1.0 - TOL_EIG) == \
            count_below(shifted, 1.0 + v - TOL_EIG)
        assert min_eig_above(shifted, 1.0 + v) == pytest.approx(
            min_eig_above(base, 1.0) + v, abs=1e-10)

    def test_eigenvalue_at_b_counts_as_above(self, free4):
        op = laplacian_matrix(free4)
        assert min_eig_above(op, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert count_below(op, 0.0 - TOL_EIG) == 0

    def test_min_eig_above_iterative_agrees_with_dense(self, dense_eigvals):
        grid = GridSpec(dimension=2, side=8.0, spacing=0.5,
                        boundary="periodic")
        op = background(grid, separable_square_potential(5.0))
        values = dense_eigvals(op)
        want = values[values >= 6.0 - TOL_EIG][0]
        assert min_eig_above(op, 6.0) == pytest.approx(want, abs=1e-7)

    def test_no_eigenvalue_above_raises(self, free4):
        op = laplacian_matrix(free4)
        assert count_below(op, 1e9) == free4.num_points
        with pytest.raises(SolverError):
            min_eig_above(op, 1e9)


class TestWindows:
    def test_window_enumeration_matches_closed_form(self):
        grid = GridSpec(dimension=2, side=8.0, spacing=1.0,
                        boundary="periodic")
        want = laplacian_eigenvalues(grid)
        want = want[(want > 1.0 + 1e-6) & (want < 5.0 - 1e-6)]
        got = eigs_in_window(laplacian_matrix(grid), 1.0, 5.0)
        assert np.allclose(got, want, atol=1e-10)

    def test_smallest_eigs_sorted_unit_vectors(self, free4):
        # the five smallest periodic levels: 0 once, then 2 four times
        values, vectors = background_eigs_below(free4, zero_potential(), 3.0)
        assert values.size == 5
        assert np.all(np.diff(values) >= 0)
        norms = np.linalg.norm(vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_whole_spectrum_window_is_a_solver_error(self, free4):
        # all 16 eigenvalues lie in the window, but one shift-invert run
        # returns at most n - 1 of them: the count check must catch it
        mat = laplacian_matrix(free4)
        assert count_below(mat, 1000.0) - count_below(mat, -1.0) == 16
        with pytest.raises(SolverError):
            eigs_in_window(mat, -1.0, 1000.0)

    def test_level_on_the_upper_edge_counts_inside(self, free4):
        # b - tol_gap lands on the level 2 (four copies): count_below counts
        # the level as below that edge, and the solve keeps all of it
        mat = laplacian_matrix(free4)
        got = eigs_in_window(mat, -1.0, 2.0 + 1e-6)
        assert got.size == count_below(mat, 2.0) - count_below(mat, -1.0) == 5
        assert np.allclose(got, [0.0, 2.0, 2.0, 2.0, 2.0], atol=1e-10)


def window_levels(grid, profiles, t_grid, window):
    """Window eigenvalues of H0 + t W (zero V0) at each t, as the gap
    report lists its intrusions."""
    report = verify_gap_hypothesis(grid, zero_potential(), profiles, window,
                                   t_grid)
    return [np.array([v for s, v in report.intrusions if s == t])
            for t in report.t_grid]


class TestTrackFamily:
    def test_no_perturbation_is_t_independent(self, free4):
        per_t = window_levels(free4, [], [0.0, 0.05, 0.1], (1.0, 3.0))
        assert all(np.allclose(v, per_t[0]) for v in per_t[1:])

    def test_window_below_spectrum_is_empty(self, free4):
        per_t = window_levels(free4, [], [0.0, 0.05], (-3.0, -1.0))
        assert all(v.size == 0 for v in per_t)

    def test_curves_nondecreasing_in_t(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.5,
                        boundary="periodic")
        profiles = [indicator_profile((i, j), 1.0, 0.45)
                    for i in (-1, 0, 1) for j in (-1, 0, 1)]
        t_grid = [0.0, 0.02, 0.04, 0.06]
        per_t = window_levels(grid, profiles, t_grid, (-1.0, 3.0))
        counts = {v.size for v in per_t}
        assert len(counts) == 1
        stacked = np.vstack(per_t)
        assert np.all(np.diff(stacked, axis=0) >= -1e-10)

    def test_unsorted_t_grid_rejected(self, free4):
        with pytest.raises(ValueError):
            window_levels(free4, [], [0.5, 0.2], (0, 1))


BACKGROUNDS = {
    "zero": zero_potential(),
    "constant": constant_potential(2.5),
    "separable_square": separable_square_potential(40.0),
}


class TestBackgroundSpectrum:
    @pytest.mark.parametrize("kind", sorted(BACKGROUNDS))
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_diagonalization(self, kind, boundary, d,
                                           dense_eigvals):
        grid = GridSpec(dimension=d, side=2.0, spacing=0.2 if d == 2 else 1 / 3,
                        boundary=boundary, center=(0.3,) + (-0.7,) * (d - 1))
        v0 = BACKGROUNDS[kind]
        want = dense_eigvals(background(grid, v0))
        got = background_spectrum(grid, v0).values
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_kronecker_basis_spans_the_dense_subspace(self, boundary):
        grid = GridSpec(dimension=2, side=3.0, spacing=1 / 9,
                        boundary=boundary, center=(0.5, 0.0))
        v0 = separable_square_potential(40.0)
        mat = background(grid, v0)
        all_values, all_vectors = np.linalg.eigh(mat.toarray())
        for threshold in (30.0, 60.0):
            values, vectors = background_eigs_below(grid, v0, threshold)
            k = count_below(mat, threshold - TOL_EIG)
            assert values.size == k > 0
            assert np.allclose(values, all_values[:k], atol=1e-9)
            p_kron = vectors @ vectors.T
            p_dense = all_vectors[:, :k] @ all_vectors[:, :k].T
            assert np.max(np.abs(p_kron - p_dense)) <= 1e-8

    def test_empty_below_the_spectrum(self, free4):
        values, vectors = background_eigs_below(free4, zero_potential(), -0.5)
        assert values.size == 0
        assert vectors.shape == (free4.num_points, 0)


class TestSolverFailures:
    def test_programming_errors_are_not_retried(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(kwargs.get("sigma"))
            raise TypeError("bad argument")

        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        monkeypatch.setattr(eigensolve, "eigsh", broken)
        with pytest.raises(TypeError):
            min_eig_above(laplacian_matrix(grid), 1.0)
        assert len(calls) == 1

    def test_window_solve_is_one_arpack_run_on_the_count_factor(
            self, monkeypatch):
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs)
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((0, 0)))

        grid = GridSpec(dimension=2, side=8.0, spacing=1.0,
                        boundary="periodic")
        monkeypatch.setattr(eigensolve, "eigsh", no_convergence)
        with pytest.raises(SolverError):
            eigs_in_window(laplacian_matrix(grid), 1.0, 5.0)
        assert len(calls) == 1
        assert isinstance(calls[0]["OPinv"], LinearOperator)
