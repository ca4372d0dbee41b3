import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from iselab import potentials, rng
from iselab.errors import EventViolatedError
from iselab.eigensolve import (TOL_EIG, TOL_GAP, background_eigs_below,
                               count_below, one_blas_thread)
from iselab.events import EventSpec, event_choice, lifting_bound
from iselab.grid import GridSpec, assemble_schrodinger, laplacian_matrix
from iselab.potentials import (Box, DisorderConfiguration, indicator_profile,
                               load_model, site_matrix, zero_potential)
from iselab.ucp import (FitSample, UCPBoundParams, event_balls,
                        fit_ucp_constant, lifting_experiment, mass_ratio,
                        random_subspace_vectors, ucp_theoretical_bound,
                        verify_gap_hypothesis)

from conftest import assemble_random_potential, event_ball_mask, shipped


@pytest.fixture
def grid6():
    return GridSpec(dimension=2, side=6.0, spacing=0.125, boundary="periodic")


# c = 1 indicator bumps of radius 0.45
BUMP = indicator_profile(1.0, 0.45)


def family(grid, v0, profile, sites):
    """t -> H0 + t W, from V0 at the nodes and W = U @ 1."""
    v0_nodes = v0.evaluate(grid.nodes())
    w = site_matrix(profile, sites, grid) @ np.ones(len(sites))
    return lambda t: assemble_schrodinger(grid, v0_nodes + t * w)


class TestTheoreticalBound:
    def test_unit_exponent(self):
        # with V=0 and E=0 the exponent factor is 1, so the bound is delta/l
        p = UCPBoundParams(delta=0.4, l=1.0, v_inf=0.0, energy=0.0,
                           constant=1.0)
        assert ucp_theoretical_bound(p) == pytest.approx(0.4)

    def test_negative_energy_is_clamped(self):
        a = UCPBoundParams(0.5, 2.0, 1.0, -5.0, 1.0)
        b = UCPBoundParams(0.5, 2.0, 1.0, 0.0, 1.0)
        assert ucp_theoretical_bound(a) == ucp_theoretical_bound(b)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="need 0 < delta < l/2"):
            UCPBoundParams(delta=2.0, l=3.0, v_inf=0.0, energy=0.0,
                           constant=1.0)

    def test_eventually_dominates_the_lifting_floor(self):
        # with delta/l fixed, the bound decays polynomially in the exponent
        # ~ l^{4/3} while exp(-l^{7/5}) decays faster: the bound wins for
        # large l (fixed N, V, E)
        delta_frac, n_const, v_inf, energy = 0.2, 0.5, 1.0, 4.0
        crossed = False
        for l in range(1, 60, 2):
            p = UCPBoundParams(delta_frac * l, float(l), v_inf, energy,
                               n_const)
            if ucp_theoretical_bound(p) >= math.exp(-float(l) ** 1.4):
                crossed = True
        assert crossed


class TestMassRatio:
    def test_constant_vector_counts_nodes(self, grid6):
        mask = grid6.nodes_within_balls([(0.0, 0.0)], 0.5)[1]
        phi = np.ones(grid6.num_points)
        assert mass_ratio(phi, mask) == pytest.approx(
            mask.size / grid6.num_points)

    def test_full_mask_is_unity(self, grid6):
        mask = np.arange(grid6.num_points)
        gen = np.random.default_rng(0)
        assert mass_ratio(gen.normal(size=grid6.num_points), mask) == \
            pytest.approx(1.0)

    def test_eigenfunction_against_direct_summation(self, grid6):
        _, vectors = background_eigs_below(grid6, zero_potential(), 2.0)
        phi = vectors[:, 1]   # first excited level
        mask = grid6.nodes_within_balls([(0.7, -0.7)], 0.6)[1]
        direct = float(np.sum(phi[mask] ** 2) / np.sum(phi ** 2))
        assert mass_ratio(phi, mask) == pytest.approx(direct, rel=1e-12)

    def test_monotone_and_additive_over_disjoint_masks(self, grid6):
        gen = np.random.default_rng(1)
        phi = gen.normal(size=grid6.num_points)
        small = grid6.nodes_within_balls([(0.0, 0.0)], 0.4)[1]
        big = grid6.nodes_within_balls([(0.0, 0.0)], 0.8)[1]
        far = grid6.nodes_within_balls([(2.0, 2.0)], 0.4)[1]
        both = np.unique(np.concatenate([small, far]))
        assert mass_ratio(phi, big) >= mass_ratio(phi, small)
        assert mass_ratio(phi, both) == pytest.approx(
            mass_ratio(phi, small) + mass_ratio(phi, far), rel=1e-12)

    def test_zero_vector_rejected(self, grid6):
        mask = grid6.nodes_within_balls([(0.0, 0.0)], 0.4)[1]
        with pytest.raises(ValueError, match="zero vector"):
            mass_ratio(np.zeros(grid6.num_points), mask)


class TestConstantFit:
    def test_exact_inversion_at_n_two(self):
        p = UCPBoundParams(0.5, 2.0, 1.0, 3.0, 2.0)
        r = ucp_theoretical_bound(p)
        samples = [FitSample(0.5, 2.0, 1.0, 3.0, r)] * 3
        fitted, _ = fit_ucp_constant(samples)
        assert fitted == pytest.approx(2.0, rel=1e-12)

    def test_envelope_unchanged_by_satisfied_sample(self):
        base = [FitSample(0.5, 2.0, 1.0, 3.0, 0.01),
                FitSample(0.4, 2.0, 1.0, 3.0, 0.02),
                FitSample(0.5, 3.0, 1.0, 3.0, 0.05)]
        fitted, _ = fit_ucp_constant(base)
        slack = FitSample(0.5, 2.0, 1.0, 3.0, 0.5)   # far above its bound
        refit, _ = fit_ucp_constant(base + [slack])
        assert refit == pytest.approx(fitted)

    def test_degenerate_ratio_rejected(self):
        bad = [FitSample(0.5, 2.0, 0.0, 0.0, 1.0)] * 3
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            fit_ucp_constant(bad)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 3 samples"):
            fit_ucp_constant([FitSample(0.5, 2.0, 0.0, 0.0, 0.5)])

    def test_random_combinations_are_seeded_units(self):
        vectors = np.linalg.qr(
            np.random.default_rng(0).normal(size=(40, 5)))[0]
        a = random_subspace_vectors(vectors, 4, seed=9)
        b = random_subspace_vectors(vectors, 4, seed=9)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
            assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_random_combinations_depend_on_the_span_alone(self):
        gen = np.random.default_rng(1)
        vectors = np.linalg.qr(gen.normal(size=(40, 5)))[0]
        rotated = vectors @ np.linalg.qr(gen.normal(size=(5, 5)))[0]
        for u, v in zip(random_subspace_vectors(vectors, 4, seed=9),
                        random_subspace_vectors(rotated, 4, seed=9)):
            assert np.allclose(u, v, rtol=0, atol=1e-12)

    @staticmethod
    def free_fit(driver):
        """Fitted constant over the free periodic Laplacian's degenerate
        levels below 4, its basis from one LAPACK driver."""
        samples = []
        for l in (3, 5):
            grid = GridSpec(dimension=2, side=float(l), spacing=0.125,
                            boundary="periodic")
            lap = laplacian_matrix(grid)
            k = count_below(lap, 4.0 - TOL_EIG)
            _, low = eigh(lap.toarray(), subset_by_index=[0, k - 1],
                          driver=driver)
            mask = grid.nodes_within_balls([(0.0, 0.0)], 0.45)[1]
            samples += [FitSample(delta=0.45, l=float(l), v_inf=0.0,
                                  energy=4.0, ratio=mass_ratio(v, mask))
                        for v in random_subspace_vectors(low, 8, seed=l)]
        return fit_ucp_constant(samples)[0]

    def test_fit_is_the_same_for_any_driver_and_blas_threads(self):
        fits = [self.free_fit(driver) for driver in ("evr", "evx")]
        with one_blas_thread():
            fits += [self.free_fit(driver) for driver in ("evr", "evx")]
        assert max(fits) - min(fits) <= 1e-12


def event_sites(spec):
    """Every site of the event's cells, cell by cell, as int tuples."""
    return [tuple(s) for s in spec.cells().reshape(-1, spec.dimension).tolist()]


class TestEquidistributedSelection:
    """event_choice against the brute-force choice, and event_balls against
    the site-by-site mask oracle."""

    def test_lexicographically_smallest_per_cell(self, brute_force_cells,
                                                 config_from):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.9)
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        cells = brute_force_cells(spec)
        sites = [s for _, cell in cells for s in cell]
        cfg = config_from({s: 1.0 for s in sites})
        choice = event_choice(cfg, spec)
        assert choice == tuple(min(cell) for _, cell in cells)
        assert all(type(w) is int for site in choice for w in site)
        # a chosen site the box does not carry (beyond 3 on an axis) has a
        # ball that misses the box (-3, 3)^2 and adds no node
        carried = [s for s in sites if max(abs(s[0]), abs(s[1])) <= 3]
        mask, delta = event_balls(
            Box.build(grid, zero_potential(), BUMP, carried), choice)
        assert mask.size > 0 and delta == 0.45
        assert np.array_equal(
            mask, event_ball_mask(cfg, spec, BUMP, carried, grid))

    def test_matches_brute_force_choice(self, brute_force_cells, config_from):
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        gen = np.random.default_rng(3)
        # nine cells each; eta makes the event hold about half the time
        for spec in (EventSpec(dimension=2, l=1, L=2, eta=0.075, kappa=0.9),
                     EventSpec(dimension=2, l=3, L=6, eta=0.75, kappa=0.9)):
            cells = brute_force_cells(spec)
            sites = [s for _, cell in cells for s in cell]
            box = Box.build(grid, zero_potential(), BUMP, sites)
            checked = 0
            for _ in range(20):
                values = {s: float(gen.random()) for s in sites}
                cfg = config_from(values)
                hits = [[s for s in cell if values[s] >= spec.eta]
                        for _, cell in cells]
                want = tuple(map(min, hits)) if all(hits) else None
                assert event_choice(cfg, spec) == want
                oracle = event_ball_mask(cfg, spec, BUMP, sites, grid)
                if want is None:
                    assert oracle is None
                    continue
                mask, _ = event_balls(box, want)
                assert np.array_equal(mask, oracle)
                checked += 1
            assert 0 < checked < 20

    def test_event_violation_is_an_error(self, config_from):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        sites = event_sites(spec)
        cfg = config_from({s: 0.0 for s in sites})
        assert event_choice(cfg, spec) is None
        grid = GridSpec(dimension=2, side=2.0, spacing=0.25,
                        boundary="periodic")
        box = Box.build(grid, zero_potential(), indicator_profile(1.0, 0.2),
                        sites)
        with pytest.raises(EventViolatedError, match="not in the event"):
            lifting_experiment(box, cfg, spec, b=0.0, eta=0.5, c=1.0)

    def test_cells_scale_with_the_lattice_spacing(self):
        # at G = 2 ball j has centre 2 j and its period cell side 2: a ball
        # of radius 0.9 fits it, one of radius G/2 does not, and neither
        # fits on a box whose background has G = 1
        grid = GridSpec(dimension=2, side=8.0, spacing=0.25,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        choice = tuple(map(tuple, spec.cells()[:, 0].tolist()))

        def box(delta, period=2.0):
            return Box.build(grid, zero_potential(period=period),
                             indicator_profile(1.0, delta), choice)

        mask, delta = event_balls(box(0.9), choice)
        assert delta == 0.9
        assert np.array_equal(mask, np.unique(np.concatenate(
            [grid.nodes_within_balls([(2.0 * a, 2.0 * b)], 0.9)[1]
             for a, b in choice])))
        for bad in (box(1.0), box(0.9, period=1.0)):
            with pytest.raises(ValueError, match="radius"):
                event_balls(bad, choice)


class TestLiftingExperiment:
    def _setup(self, config_from):
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.9)
        sites = event_sites(spec)
        cfg = config_from({s: 1.0 for s in sites})
        return grid, spec, cfg, Box.build(grid, zero_potential(), BUMP, sites)

    def test_zero_eta_means_zero_lift(self, config_from):
        _, spec, cfg, box = self._setup(config_from)
        rec = lifting_experiment(box, cfg, spec, b=-1.0, eta=0.0, c=1.0)
        assert abs(rec.observed_lift) <= TOL_EIG

    def test_ground_state_lift_is_positive_with_sandwich(self, config_from):
        _, spec, cfg, box = self._setup(config_from)
        rec = lifting_experiment(box, cfg, spec, b=-1.0, eta=0.5, c=1.0)
        assert rec.k0 == 1
        assert rec.observed_lift > 10 * TOL_EIG
        assert rec.observed_lift <= 0.5 + TOL_EIG
        assert rec.random_eigenvalue >= rec.perturbed_eigenvalue - TOL_EIG
        assert rec.sandwich_ok
        assert rec.predicted_floor == pytest.approx(
            lifting_bound(3, 0.5, 1.0))

    def test_builds_u_and_v0_once(self, monkeypatch, config_from):
        grid, spec, cfg, _ = self._setup(config_from)
        calls = []
        real_shape, real_v0 = (potentials.SingleSiteProfile.evaluate,
                               potentials.PeriodicPotential.evaluate)

        def shape_spy(*args):
            calls.append("shape")
            return real_shape(*args)

        def v0_spy(*args):
            calls.append("v0")
            return real_v0(*args)

        # U evaluates the profile once, at every support node of its sites,
        # and V0 at the nodes is one v0.evaluate(grid.nodes()); two lifts
        # read one box
        monkeypatch.setattr(potentials.SingleSiteProfile, "evaluate",
                            shape_spy)
        monkeypatch.setattr(potentials.PeriodicPotential, "evaluate", v0_spy)
        box = Box.build(grid, zero_potential(), BUMP, event_sites(spec))
        for eta in (0.5, 0.25):
            lifting_experiment(box, cfg, spec, b=-1.0, eta=eta, c=1.0)
        assert calls.count("shape") == 1 < len(box.sites)
        assert calls.count("v0") == 1
        assert len(calls) == 2

    def test_understated_profile_breaks_the_sandwich(self, config_from):
        grid, spec, _, _ = self._setup(config_from)
        sites = event_sites(spec)
        # every coupling 0.6 is in the event; the profile is 0.5 on
        # their balls, so V_omega = 0.3 there
        cfg = config_from({s: 0.6 for s in sites})
        truthful = indicator_profile(0.5, 0.45)
        rec = lifting_experiment(
            Box.build(grid, zero_potential(), truthful, sites), cfg, spec,
            b=-1.0, eta=0.5, c=0.5)
        assert rec.sandwich_ok
        # the same bumps claiming c = 1: eta c = 0.5 exceeds V_omega = 0.3
        understated = dataclasses.replace(truthful, lower_bound=1.0)
        rec = lifting_experiment(
            Box.build(grid, zero_potential(), understated, sites), cfg, spec,
            b=-1.0, eta=0.5, c=1.0)
        assert not rec.sandwich_ok

    @pytest.mark.parametrize("single_site", [
        {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
        {"kind": "cone", "c": 1.0, "delta": 0.3, "radius": 0.45},
    ])
    def test_node_order_orders_the_dense_spectra(self, single_site,
                                                 dense_eigvals):
        spec_json = shipped("reference_gapped")
        spec_json["single_site"] = single_site
        model = load_model(spec_json)
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0 / 3,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=3, L=4, eta=model.disorder.eta,
                         kappa=model.disorder.kappa)
        profile, sites = model.profile, model.sites_for(grid)
        v0 = model.background
        amplitude = model.disorder.eta * model.coupling_floor
        v0_nodes = v0.evaluate(grid.nodes())
        low = dense_eigvals(assemble_schrodinger(grid, v0_nodes))
        top = dense_eigvals(family(grid, v0, profile, sites)(1.0))
        checked = 0
        for t in range(6):
            cfg = DisorderConfiguration(
                rng.derive_seed(11, rng.TRIAL_STREAM, (0, t)), model.disorder)
            if event_choice(cfg, spec) is None:
                continue
            rec = lifting_experiment(model.box(grid), cfg, spec, 0.0,
                                     model.disorder.eta, model.coupling_floor)
            if not rec.sandwich_ok:
                continue
            mask = event_ball_mask(cfg, spec, profile, sites, grid)
            v_test = np.zeros(grid.num_points)
            v_test[mask] = amplitude
            v_omega = assemble_random_potential(cfg, profile, sites, grid)
            chain = [low] + [
                dense_eigvals(assemble_schrodinger(grid, v0_nodes + v))
                for v in (v_test, v_omega)] + [top]
            for lo, hi in zip(chain, chain[1:]):
                assert np.all(lo <= hi + 1e-9 * (np.abs(hi) + 1.0))
            checked += 1
        assert checked >= 4


def missed_window_setup(dense_eigvals):
    """Free 6 x 6 box with c = 5 indicator bumps on sites -1..1, the
    family t -> H0 + t W and the window (lambda_0(H0 + 0.01 W),
    lambda_0(H0 + 0.04 W))."""
    grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 3,
                    boundary="periodic")
    box = Box.build(grid, zero_potential(), indicator_profile(5.0, 0.45),
                    [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    h_t = family(grid, zero_potential(), box.profile, box.sites)
    window = tuple(float(dense_eigvals(h_t(t))[0]) for t in (0.01, 0.04))
    return box, h_t, window


class TestGapHypothesis:
    def test_trivial_gap_without_perturbation(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        report = verify_gap_hypothesis(
            Box.build(grid, zero_potential(), BUMP, []), (4.1, 5.9), [0.0])
        assert report.ok

    def test_detects_background_eigenvalue_in_window(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        report = verify_gap_hypothesis(
            Box.build(grid, zero_potential(), BUMP, []), (1.0, 3.0), [0.0])
        assert not report.ok
        assert report.intrusions[0][0] == 0.0

    def test_coarse_t_grid_rejected(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        with pytest.raises(ValueError, match="t_grid must rise strictly"):
            verify_gap_hypothesis(Box.build(grid, zero_potential(), BUMP, []),
                                  (4.1, 5.9), [0.0, 0.5, 1.0])

    def test_window_missed_by_the_grid_fails(self, dense_eigvals):
        # the lowest branch crosses (lambda_0(t = 0.01), lambda_0(t = 0.04))
        # between the sampled t = 0 and t = 0.05
        box, h_t, window = missed_window_setup(dense_eigvals)
        t_grid = [i / 20 for i in range(21)]
        for t in t_grid:
            values = dense_eigvals(h_t(t))
            assert not np.any((values > window[0]) & (values < window[1]))
        report = verify_gap_hypothesis(box, window, t_grid)
        assert not report.ok
        assert report.crossings == 1
        assert report.intrusions == ()
        assert report.to_json()["crossings"] == 1

    @pytest.mark.parametrize("spec_json, windows", [
        (shipped("reference_gapped"),
         [(28.8, 49.9), (24.0, 25.6), (23.5, 23.9), (26.0, 28.5),
          (28.5, 30.0), (50.0, 50.5)]),
        (shipped("free_uniform"),
         [(0.2, 9.6), (20.0, 35.9), (0.05, 0.08), (9.7, 9.8),
          (19.3, 30.0), (36.01, 40.0)]),
    ])
    def test_crossings_match_a_fine_scan(self, spec_json, windows,
                                         dense_eigvals):
        model = load_model(spec_json)
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 6,
                        boundary="periodic")
        # row i holds the sorted spectrum at t_i, column j one branch
        h_t = family(grid, model.background, model.profile,
                     model.sites_for(grid))
        scan = np.array([dense_eigvals(h_t(t))
                         for t in np.linspace(0.0, 1.0, 401)])
        crossings = []
        for a, b in windows:
            inside = (scan > a + TOL_GAP) & (scan < b - TOL_GAP)
            report = verify_gap_hypothesis(model.box(grid), (a, b),
                                           [i / 20 for i in range(21)])
            assert report.crossings == int(np.sum(inside.any(axis=0)))
            assert report.ok == (report.crossings == 0)
            crossings.append(report.crossings)
        assert crossings.count(0) == 2 and min(crossings[2:]) >= 1

    def test_matches_dense_scan_for_gapped_background(self, gapped_model,
                                                      dense_eigvals):
        grid = GridSpec(dimension=2, side=3.0, spacing=1.0 / 9,
                        boundary="periodic")
        t_grid = [i * 0.05 for i in range(21)]
        report = verify_gap_hypothesis(gapped_model.box(grid), (28.0, 46.0),
                                       t_grid)
        h_t = family(grid, gapped_model.background, gapped_model.profile,
                     gapped_model.sites_for(grid))
        for t in t_grid:
            vals = dense_eigvals(h_t(t))
            dense_hit = np.any((vals > 28.0 + 1e-6) & (vals < 46.0 - 1e-6))
            assert dense_hit == any(ti == t for ti, _ in report.intrusions)
