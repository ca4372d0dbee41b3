import functools
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, splu

from iselab import eigensolve
from iselab.eigensolve import (TOL_EIG, TOL_GAP, background_eigs_below,
                               background_projections, background_spectrum,
                               count_below, counts_below, eigs_in_window,
                               enclosure, min_eig_above, one_blas_thread)
from iselab.errors import SolverError
from iselab.events import EventSpec, event_choice
from iselab.grid import GridSpec, assemble_schrodinger, laplacian_matrix
from iselab.ise import band_edge_of_background
from iselab.potentials import (Box, DisorderConfiguration,
                               constant_potential, indicator_profile,
                               load_model, separable_square_potential,
                               zero_potential)
from iselab.ucp import event_balls, verify_gap_hypothesis

from conftest import blas_threads, laplacian_eigenvalues, shipped


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

    def test_factor_in_place_matches_the_copying_path(self, monkeypatch):
        # _inertia factors H - sigma I through its CSR arrays read as CSC,
        # and takes the noise scale from them; the former path copied
        # both into new matrices.  Reference and benchmark operators, at
        # the reference edges and the benchmark's energies.  The copying
        # path passes SuperLU the settings _inertia's one splu call passed,
        # read by a spy, so the two cannot drift apart.
        superlu_args = []
        real_splu = eigensolve.splu

        def spy(matrix, **kwargs):
            superlu_args.append(kwargs)
            return real_splu(matrix, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", spy)

        def copying_inertia(mat, sigma):
            shifted = (mat - sigma * sparse.identity(mat.shape[0],
                                                     format="csr")).tocsc()
            lu = splu(shifted, **superlu_args[-1])
            pivots = lu.U.diagonal()
            size, eps = np.abs(pivots), np.finfo(float).eps
            noise = 64 * eps * max(abs(shifted).sum(axis=0).max(), size.max())
            trusted = (np.array_equal(lu.perm_r, lu.perm_c)
                       and size.min() > noise
                       and eps * size.max() <= TOL_EIG * (1.0 + abs(sigma)))
            return lu, int(np.count_nonzero(pivots < 0)), trusted

        reference, free = (load_model(shipped(name)) for name in
                           ("reference_gapped", "free_uniform"))
        cases = [(reference, L, [26.72, 36.0, 46.6976, 47.1]) for L in (6, 10)]
        cases += [(free, L, [0.0, 0.25, 3.0, 6.0]) for L in (3, 4)]
        checked = 0
        for model, L, energies in cases:
            box = model.box(GridSpec.per_unit(2, L, 9, "periodic"))
            cfg = DisorderConfiguration(7, model.disorder)
            for mat in (box.hamiltonian(np.zeros(box.grid.num_points)),
                        box.hamiltonian(box.potential(cfg))):
                assert mat.format == "csr"
                for sigma in energies:
                    factor = eigensolve._inertia(mat, sigma)
                    lu, count, trusted = copying_inertia(mat, sigma)
                    assert (factor is not None) == trusted
                    if factor is None:
                        continue
                    assert factor[1] == count
                    for got, want in ((factor[0].U.diagonal(),
                                       lu.U.diagonal()),
                                      (factor[0].perm_c, lu.perm_c)):
                        assert np.array_equal(got, want)
                    checked += 1
        assert checked >= 28


def background_lift(grid, v0, b):
    """min_eig_above of H0 = -Laplacian + V0, bracketed by H0's spectrum."""
    return min_eig_above(background(grid, v0), b, np.zeros(grid.num_points),
                         background_spectrum(grid, v0))


class TestLowestAbove:
    def test_spectrum_bottom(self, free4):
        op = laplacian_matrix(free4)
        assert count_below(op, -1.0 - TOL_EIG) + 1 == 1
        assert background_lift(free4, zero_potential(), -1.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_first_excited_level(self, free4):
        op = laplacian_matrix(free4)
        assert background_lift(free4, zero_potential(), 1.0) == \
            pytest.approx(2.0, abs=1e-10)
        assert count_below(op, 1.0 - TOL_EIG) + 1 == 2   # k0

    def test_shift_equivariance(self, free4):
        v = 2.5
        base = laplacian_matrix(free4)
        shifted = background(free4, constant_potential(v))
        assert count_below(base, 1.0 - TOL_EIG) == \
            count_below(shifted, 1.0 + v - TOL_EIG)
        assert background_lift(free4, constant_potential(v), 1.0 + v) == \
            pytest.approx(background_lift(free4, zero_potential(), 1.0) + v,
                          abs=1e-10)

    def test_eigenvalue_at_b_counts_as_above(self, free4):
        op = laplacian_matrix(free4)
        assert background_lift(free4, zero_potential(), 0.0) == \
            pytest.approx(0.0, abs=1e-12)
        assert count_below(op, 0.0 - TOL_EIG) == 0

    def test_min_eig_above_iterative_agrees_with_dense(self, dense_eigvals):
        grid = GridSpec(dimension=2, side=8.0, spacing=0.5,
                        boundary="periodic")
        v0 = separable_square_potential(5.0)
        values = dense_eigvals(background(grid, v0))
        want = values[values >= 6.0 - TOL_EIG][0]
        assert background_lift(grid, v0, 6.0) == pytest.approx(want,
                                                                abs=1e-7)

    def test_no_eigenvalue_above_raises(self, free4):
        op = laplacian_matrix(free4)
        assert count_below(op, 1e9) == free4.num_points
        with pytest.raises(SolverError, match="no eigenvalue at or above b"):
            background_lift(free4, zero_potential(), 1e9)


def unbracketed_lift(mat, b):
    """The lift from the shift at b - tol_eig alone: "LA", the eigenvalue
    nearest above it."""
    factor = eigensolve._trusted_ldlt(mat, b - TOL_EIG)
    return float(eigensolve._ldlt_shift_invert(mat, factor, 1, "LA")[0])


def ritz_shift(mat, grid, v0, b):
    """(k, sigma) of min_eig_above's bracket, rebuilt densely: k background
    levels below b - tol_eig, and tol_gap above the (k+1)-th Rayleigh-Ritz
    value of mat on the eigenvectors of H0's levels below nudge(b) +
    tol_gap."""
    values, vectors = np.linalg.eigh(background(grid, v0).toarray())
    k = int(np.sum(values < b - TOL_EIG))
    x = vectors[:, values < eigensolve._nudge(b) + TOL_GAP]
    return k, np.linalg.eigvalsh(x.T @ (mat @ x))[k] + TOL_GAP


def arpack_spy(monkeypatch):
    """The (k, which, ncv) of every eigsh call eigensolve makes."""
    calls, real = [], eigensolve.eigsh

    def spy(mat, k, **kwargs):
        calls.append((k, kwargs["which"], kwargs.get("ncv")))
        return real(mat, k=k, **kwargs)

    monkeypatch.setattr(eigensolve, "eigsh", spy)
    return calls


class TestBracketedLift:
    """min_eig_above shift-inverts just above its Rayleigh-Ritz value."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_dense_lift_and_the_unbracketed_solve(
            self, data, dense_eigvals):
        boundary = data.draw(st.sampled_from(("periodic", "dirichlet")))
        grid = GridSpec(dimension=2, side=float(data.draw(st.integers(2, 3))),
                        spacing=1.0 / data.draw(st.integers(3, 5)),
                        boundary=boundary)
        v0 = data.draw(st.sampled_from((
            zero_potential(), separable_square_potential(20.0))))
        spectrum = background_spectrum(grid, v0)
        # b on a background level, or between two; V > 0 at every node,
        # at most s, so that no level stays exactly degenerate (there the
        # unpivoted LDL^T grows pivots, and its shift-invert is accurate
        # only to about 1e-9)
        level = data.draw(st.integers(0, spectrum.values.size - 2))
        b = float(spectrum.values[level] + data.draw(st.sampled_from(
            (0.0, 0.5))) * (spectrum.values[level + 1]
                            - spectrum.values[level]))
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        v = data.draw(st.floats(0.01, 30.0)) * (
            0.01 + gen.random(grid.num_points))
        mat = assemble_schrodinger(grid, v0.evaluate(grid.nodes()) + v)
        values = dense_eigvals(mat)
        want = values[values >= b - TOL_EIG][0]
        got = min_eig_above(mat, b, v, spectrum)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
        assert abs(got - unbracketed_lift(mat, b)) <= 1e-11 * (1.0 + abs(want))

    def test_degenerate_free_level_is_solved_whole(self, monkeypatch):
        # the periodic 6 x 6 free Laplacian has the level 1 four times: the
        # bracket counts all four below tol_gap above it and solves for them
        grid = GridSpec(dimension=2, side=6.0, spacing=1.0,
                        boundary="periodic")
        calls = arpack_spy(monkeypatch)
        assert background_lift(grid, zero_potential(), 1.0) == \
            pytest.approx(1.0, abs=1e-12)
        assert calls == [(4, "SA", 9)]

    def test_split_cluster_returns_its_lowest_level(self, monkeypatch,
                                                    dense_eigvals):
        # a small V splits the fourfold level 1 into levels about 1e-8
        # apart, all below the Ritz value plus tol_gap: asking ARPACK for
        # fewer than all of them would return one nearer the shift
        grid = GridSpec(dimension=2, side=6.0, spacing=1.0,
                        boundary="periodic")
        v = 1e-7 * np.random.default_rng(5).random(grid.num_points)
        mat = assemble_schrodinger(grid, v)
        k, sigma = ritz_shift(mat, grid, zero_potential(), 1.0)
        values = dense_eigvals(mat)
        cluster = values[(values >= 1.0 - TOL_EIG) & (values < sigma)]
        assert k == 1 and cluster.size == 4
        assert np.diff(cluster).min() > 1e-9
        calls = arpack_spy(monkeypatch)
        got = min_eig_above(mat, 1.0, v,
                            background_spectrum(grid, zero_potential()))
        assert calls == [(4, "SA", 9)]
        assert abs(got - cluster[0]) <= 1e-12
        assert abs(got - unbracketed_lift(mat, 1.0)) <= 1e-12

    def test_uncertified_count_keeps_the_shift_below_b(self, monkeypatch,
                                                       dense_eigvals):
        # V = 3 at one node does not fit in the gap (0, 2) of the 4 x 4 free
        # Laplacian: no count below b = 1 is certified, so the shift is
        # b - tol_eig; so it is below the spectrum, with no level under b
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        spectrum = background_spectrum(grid, zero_potential())
        sigmas = []
        real = eigensolve._trusted_ldlt

        def shifts(mat, sigma):
            sigmas.append(sigma)
            return real(mat, sigma)

        monkeypatch.setattr(eigensolve, "_trusted_ldlt", shifts)
        calls = arpack_spy(monkeypatch)
        for v_node, b in ((3.0, 1.0), (0.0, -1.0)):
            v = np.zeros(grid.num_points)
            v[5] = v_node
            mat = assemble_schrodinger(grid, v)
            values = dense_eigvals(mat)
            assert min_eig_above(mat, b, v, spectrum) == pytest.approx(
                values[values >= b - TOL_EIG][0], abs=1e-10)
        assert eigensolve.certified_lower_count(spectrum, 3.0, 1.0) is None
        assert sigmas == [1.0 - TOL_EIG, -1.0 - TOL_EIG]
        assert [which for _, which, _ in calls] == ["LA", "LA"]

    def test_single_level_far_below_its_ritz_value(self, monkeypatch,
                                                    dense_eigvals):
        # the Ritz value of the one level above b sits 3.9 above it and
        # just below the next: three Lanczos vectors did not converge in
        # 364 applications of (H - sigma)^-1, so m = 1 solves with four
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 3,
                        boundary="dirichlet")
        v0 = separable_square_potential(20.0)
        spectrum = background_spectrum(grid, v0)
        v = 23.0 * (0.01 + np.random.default_rng(27580).random(36))
        mat = assemble_schrodinger(grid, v0.evaluate(grid.nodes()) + v)
        b = float(spectrum.values[0])
        values = dense_eigvals(mat)
        want = values[values >= b - TOL_EIG][0]
        calls = arpack_spy(monkeypatch)
        got = min_eig_above(mat, b, v, spectrum)
        assert calls == [(1, "SA", 4)]
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_nudged_shift_past_b_is_a_solver_error(self, dense_eigvals):
        # b = 2 is a level of the 4 x 4 free Laplacian plus 3 at node 5, and
        # no count below it is certified: the factor at b - tol_eig is not
        # trusted, and the nudged one lies above b, where "LA" would return
        # the next level (2.4016) instead of 2
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        spectrum = background_spectrum(grid, zero_potential())
        v = np.zeros(grid.num_points)
        v[5] = 3.0
        mat = assemble_schrodinger(grid, v)
        values = dense_eigvals(mat)
        assert np.min(np.abs(values - 2.0)) < 1e-12
        assert eigensolve.certified_lower_count(spectrum, 3.0, 2.0) is None
        assert eigensolve._trusted_ldlt(mat, 2.0 - TOL_EIG)[2] > 2.0
        with pytest.raises(SolverError, match="no trusted LDL"):
            min_eig_above(mat, 2.0, v, spectrum)

    def test_negative_diagonal_is_refused(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        v = np.zeros(grid.num_points)
        v[3] = -1e-3
        with pytest.raises(ValueError, match="nonnegative diagonal"):
            min_eig_above(assemble_schrodinger(grid, v), 1.0, v,
                          background_spectrum(grid, zero_potential()))

    @pytest.mark.parametrize("solved", ["below b", "at sigma", "too few"])
    def test_solve_outside_its_bracket_is_a_solver_error(self, monkeypatch,
                                                         solved):
        grid = GridSpec(dimension=2, side=6.0, spacing=1.0,
                        boundary="periodic")
        real = eigensolve.eigsh

        def wrong(mat, k, **kwargs):
            values, vectors = real(mat, k=k, **kwargs)
            if solved == "below b":
                values[0] = 1.0 - 2 * TOL_EIG
            elif solved == "at sigma":
                values[-1] = kwargs["sigma"]
            else:
                values = values[1:]
            return values, vectors

        monkeypatch.setattr(eigensolve, "eigsh", wrong)
        with pytest.raises(SolverError, match="lift outside its bracket"):
            background_lift(grid, zero_potential(), 1.0)


class TestReferenceBox:
    """The dense-count and dense-lift properties reach n <= 225; SuperLU
    forms its supernodes on larger boxes, such as the reference model's
    L = 4 box (1296 nodes)."""

    def test_counts_and_event_lift_match_the_dense_spectrum(
            self, gapped_model, dense_eigvals):
        model, L = gapped_model, 4
        grid = GridSpec.per_unit(2, L, 9, "periodic")
        _, b = band_edge_of_background(grid, model.background, hint=36.0)
        box = model.box(grid)
        spec = EventSpec(dimension=2, l=1, L=L, eta=model.disorder.eta,
                         kappa=model.disorder.kappa)
        choice = next(c for c in (
            event_choice(DisorderConfiguration(seed, model.disorder), spec)
            for seed in range(100)) if c is not None)
        lift = np.zeros(grid.num_points)
        lift[event_balls(box, choice)[0]] = (model.disorder.eta
                                             * model.coupling_floor)
        # one BLAS thread, as a command runs: the three dense solves at
        # n = 1296 take well under a second
        with one_blas_thread():
            for seed in (1, 2):
                mat = box.hamiltonian(box.potential(
                    DisorderConfiguration(seed, model.disorder)))
                values = dense_eigvals(mat)
                for sigma in (b - TOL_EIG, b + L ** -0.6):
                    assert np.min(np.abs(values - sigma)) > 1e-9
                    assert count_below(mat, sigma) == np.sum(values < sigma)
            mat = box.hamiltonian(lift)
            values = dense_eigvals(mat)
            want = values[values >= b - TOL_EIG][0]
            got = min_eig_above(mat, b, lift, box.spectrum)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


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
        with pytest.raises(SolverError,
                           match="window solve disagrees with its count"):
            eigs_in_window(mat, -1.0, 1000.0)

    def test_level_on_the_upper_edge_counts_inside(self, free4):
        # b - tol_gap lands on the level 2 (four copies): count_below counts
        # the level as below that edge, and the solve keeps all of it
        mat = laplacian_matrix(free4)
        got = eigs_in_window(mat, -1.0, 2.0 + 1e-6)
        assert got.size == count_below(mat, 2.0) - count_below(mat, -1.0) == 5
        assert np.allclose(got, [0.0, 2.0, 2.0, 2.0, 2.0], atol=1e-10)


def window_levels(grid, sites, t_grid, window):
    """Window eigenvalues of H0 + t W (zero V0, c = 1 indicator bumps of
    radius 0.45 at `sites`) at each t, as the gap report lists its
    intrusions."""
    box = Box.build(grid, zero_potential(), indicator_profile(1.0, 0.45),
                    sites)
    report = verify_gap_hypothesis(box, window, t_grid)
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
        sites = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        t_grid = [0.0, 0.02, 0.04, 0.06]
        per_t = window_levels(grid, sites, t_grid, (-1.0, 3.0))
        counts = {v.size for v in per_t}
        assert len(counts) == 1
        stacked = np.vstack(per_t)
        assert np.all(np.diff(stacked, axis=0) >= -1e-10)

    def test_unsorted_t_grid_rejected(self, free4):
        with pytest.raises(ValueError, match="t_grid must rise strictly"):
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
                        boundary=boundary)
        v0 = BACKGROUNDS[kind]
        want = dense_eigvals(background(grid, v0))
        got = background_spectrum(grid, v0).values
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_kronecker_basis_spans_the_dense_subspace(self, boundary):
        grid = GridSpec(dimension=2, side=3.0, spacing=1 / 9,
                        boundary=boundary)
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_axis_solve_per_spectrum(self, d, monkeypatch):
        # every axis has the same nodes and 1D operator: one eigh serves all
        shapes = []
        eigh = np.linalg.eigh

        def spy(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        grid = GridSpec(dimension=d, side=3.0, spacing=1 / 3,
                        boundary="dirichlet")
        spectrum = background_spectrum.__wrapped__(
            grid, separable_square_potential(40.0))
        assert shapes == [(9, 9)]
        assert spectrum.values.shape == (9 ** d,)

    def test_memoized_spectrum_is_read_only(self, free4):
        spectrum = background_spectrum(free4, zero_potential())
        assert background_spectrum(free4, zero_potential()) is spectrum
        for array in (spectrum.values, spectrum.order,
                      spectrum.axis_vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
        values, _ = background_eigs_below(free4, zero_potential(), 3.0)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0

    def test_empty_below_the_spectrum(self, free4):
        values, vectors = background_eigs_below(free4, zero_potential(), -0.5)
        assert values.size == 0
        assert vectors.shape == (free4.num_points, 0)


class TestOneDimensionalFactorCheck:
    """background_spectrum checks its 1D factor once, where it builds it."""

    def spectrum_with(self, monkeypatch, spoil):
        eigh = np.linalg.eigh

        def spoiled(mat, *args, **kwargs):
            return spoil(*eigh(mat, *args, **kwargs))

        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        grid = GridSpec(dimension=2, side=3.0, spacing=1 / 3,
                        boundary="periodic")
        return background_spectrum.__wrapped__(
            grid, separable_square_potential(40.0))

    def test_exact_factor_passes(self, monkeypatch):
        spectrum = self.spectrum_with(monkeypatch, lambda w, u: (w, u))
        assert spectrum.values.size == 81

    def test_vectors_that_are_not_orthonormal_are_refused(self, monkeypatch):
        # u (1 + 1e-9) is still a set of eigenvectors, but not orthonormal
        with pytest.raises(SolverError) as err:
            self.spectrum_with(monkeypatch, lambda w, u: (w, u * (1 + 1e-9)))
        assert err.value.telemetry["orthonormality"] > 1e-12

    def test_values_off_their_vectors_are_refused(self, monkeypatch):
        with pytest.raises(SolverError) as err:
            self.spectrum_with(monkeypatch, lambda w, u: (w + 1e-9, u))
        assert err.value.telemetry["residual"] > 1e-12


def kronecker_vectors(spectrum, count):
    """Background eigenvectors of values[:count], one np.kron chain per level
    (axis 0 slowest)."""
    u = spectrum.axis_vectors
    multi = np.unravel_index(spectrum.order[:count],
                             (u.shape[0],) * spectrum.dimension)
    return np.column_stack([
        functools.reduce(np.kron, [u[:, axis[i]] for axis in multi])
        for i in range(count)])


@st.composite
def small_boxes(draw):
    """(grid, v0) with at most 216 nodes: d = 2 or 3, any boundary."""
    d = draw(st.sampled_from([2, 3]))
    points = draw(st.sampled_from([3, 4, 5, 6] if d == 2 else [2, 3]))
    grid = GridSpec(dimension=d, side=2.0, spacing=1.0 / points,
                    boundary=draw(st.sampled_from(
                        ["dirichlet", "neumann", "periodic"])))
    return grid, BACKGROUNDS[draw(st.sampled_from(sorted(BACKGROUNDS)))]


class TestSeparableEnclosure:
    """The enclosure from the 1D factor against dense linear algebra."""

    @settings(max_examples=60, deadline=None)
    @given(box=small_boxes(), data=st.data())
    def test_projection_equals_the_dense_one(self, box, data):
        grid, v0 = box
        spectrum = background_spectrum(grid, v0)
        count = data.draw(st.integers(1, grid.num_points))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        v = rng.uniform(0.0, data.draw(st.floats(0.1, 5.0)), grid.num_points)
        x = kronecker_vectors(spectrum, count)
        got = background_projections(spectrum, (v, v ** 2), count)
        for g, w in zip(got, (v, v ** 2)):
            want = x.T @ (w[:, None] * x)
            assert np.abs(g - want).max() <= 1e-12 * (1.0 + w.max())

    @settings(max_examples=60, deadline=None)
    @given(box=small_boxes(), data=st.data())
    def test_brackets_the_dense_spectrum(self, box, data, dense_eigvals):
        grid, v0 = box
        spectrum = background_spectrum(grid, v0)
        values = spectrum.values
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        # small s leaves background gaps wider than s, so Lehmann applies
        s = data.draw(st.sampled_from([0.1, 1.0, 10.0]))
        v = rng.uniform(0.0, s, grid.num_points)
        top = data.draw(st.floats(float(values[0]), float(values[-1]) + s))
        lower, upper = enclosure(v, spectrum, top)
        exact = dense_eigvals(assemble_schrodinger(
            grid, v0.evaluate(grid.nodes()) + v))
        slack = 1e-9 * (1.0 + np.abs(exact))
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)
        assert np.all(values <= lower) and np.all(upper <= values + v.max())

    def test_negative_diagonal_is_refused(self, free4):
        spectrum = background_spectrum(free4, zero_potential())
        v = np.zeros(free4.num_points)
        v[3] = -1e-3
        with pytest.raises(ValueError, match="nonnegative diagonal"):
            enclosure(v, spectrum, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bounds_off_by_less_than_tol_gap_still_count_exactly(self, data):
        # a bound may miss its eigenvalue by rounding, less than tol_gap,
        # on either side: the bracket's tol_gap margins absorb it, so
        # energies within tol_gap of an eigenvalue still count exactly
        n = data.draw(st.integers(2, 8))
        exact = np.sort(np.array(data.draw(st.lists(
            st.integers(0, 40), min_size=n, max_size=n)), dtype=float))
        mat = sparse.csr_matrix(np.diag(exact))
        miss = st.floats(0.0, 0.45 * TOL_GAP)
        lower = exact + np.array([data.draw(miss) for _ in range(n)])
        upper = exact - np.array([data.draw(miss) for _ in range(n)])
        bounds = (np.maximum.accumulate(lower),
                  np.minimum.accumulate(upper[::-1])[::-1])
        energies = sorted(float(exact[data.draw(st.integers(0, n - 1))])
                          + data.draw(st.sampled_from(
                              [-0.9, -0.3, 0.3, 0.9])) * TOL_GAP
                          for _ in range(data.draw(st.integers(1, 4))))
        want = [count_below(mat, e) for e in energies]
        assert counts_below(lambda: mat, energies, bounds) == want


class TestSolverFailures:
    def test_programming_errors_are_not_retried(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(kwargs.get("sigma"))
            raise TypeError("bad argument")

        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        monkeypatch.setattr(eigensolve, "eigsh", broken)
        with pytest.raises(TypeError, match="bad argument"):
            background_lift(grid, zero_potential(), 1.0)
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
        with pytest.raises(SolverError, match="shift-invert failed"):
            eigs_in_window(laplacian_matrix(grid), 1.0, 5.0)
        assert len(calls) == 1
        assert isinstance(calls[0]["OPinv"], LinearOperator)


class TestOneBlasThread:
    def test_every_library_runs_one_thread_inside_then_as_before(
            self, two_blas_threads):
        with one_blas_thread() as pinned:
            assert pinned == len(two_blas_threads)
            assert blas_threads() == [1] * pinned
        assert blas_threads() == two_blas_threads

    def test_a_worker_started_inside_inherits_one_thread(
            self, two_blas_threads):
        with one_blas_thread() as pinned:
            with ProcessPoolExecutor(max_workers=1) as pool:
                threads = pool.submit(blas_threads).result(timeout=60)
            assert threads == [1] * pinned
        assert blas_threads() == two_blas_threads

    def test_no_library_found_does_nothing(self, two_blas_threads,
                                           monkeypatch):
        controls = eigensolve._openblas_thread_controls()
        monkeypatch.setattr(eigensolve, "_openblas_thread_controls",
                            lambda: [])
        with one_blas_thread() as pinned:
            assert pinned == 0
            assert [get() for get, _ in controls] == two_blas_threads
        assert [get() for get, _ in controls] == two_blas_threads
