import dataclasses
import math

import numpy as np
import pytest

from iselab import potentials, rng, ucp
from iselab.errors import EventViolatedError
from iselab.eigensolve import TOL_EIG, TOL_GAP, background_eigs_below
from iselab.events import EventSpec, event_A_indicator, lifting_bound
from iselab.grid import GridSpec, assemble_schrodinger
from iselab.potentials import (assemble_random_potential, indicator_profile,
                               load_model, sample_configuration, site_matrix,
                               zero_potential)
from iselab.reference import reference_model_spec
from iselab.ucp import (FitSample, UCPBoundParams, equidistributed_from_event,
                        fit_ucp_constant, lifting_experiment, mass_ratio,
                        random_subspace_vectors, ucp_theoretical_bound,
                        verify_gap_hypothesis)


@pytest.fixture
def grid6():
    return GridSpec(dimension=2, side=6.0, spacing=0.125, boundary="periodic")


def family(grid, v0, profiles):
    """t -> H0 + t W, from V0 at the nodes and W = U @ 1."""
    v0_nodes = v0.evaluate(grid.nodes())
    w = site_matrix(profiles, grid) @ np.ones(len(profiles))
    return lambda t: assemble_schrodinger(grid, v0_nodes + t * w)


FREE_MODEL = {
    "G": 1.0,
    "V0": {"kind": "zero"},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.25},
    "disorder": {"kind": "uniform01", "eta": 0.5, "kappa": 0.5},
}


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
        with pytest.raises(ValueError):
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
        mask = grid6.nodes_within_ball((0.0, 0.0), 0.5)
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
        mask = grid6.nodes_within_ball((0.7, -0.7), 0.6)
        direct = float(np.sum(phi[mask] ** 2) / np.sum(phi ** 2))
        assert mass_ratio(phi, mask) == pytest.approx(direct, rel=1e-12)

    def test_monotone_and_additive_over_disjoint_masks(self, grid6):
        gen = np.random.default_rng(1)
        phi = gen.normal(size=grid6.num_points)
        small = grid6.nodes_within_ball((0.0, 0.0), 0.4)
        big = grid6.nodes_within_ball((0.0, 0.0), 0.8)
        far = grid6.nodes_within_ball((2.0, 2.0), 0.4)
        both = np.unique(np.concatenate([small, far]))
        assert mass_ratio(phi, big) >= mass_ratio(phi, small)
        assert mass_ratio(phi, both) == pytest.approx(
            mass_ratio(phi, small) + mass_ratio(phi, far), rel=1e-12)

    def test_zero_vector_rejected(self, grid6):
        mask = grid6.nodes_within_ball((0.0, 0.0), 0.4)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            fit_ucp_constant(bad)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_ucp_constant([FitSample(0.5, 2.0, 0.0, 0.0, 0.5)])

    def test_random_combinations_are_seeded_units(self):
        vectors = np.linalg.qr(
            np.random.default_rng(0).normal(size=(40, 5)))[0]
        a = random_subspace_vectors(vectors, 4, seed=9)
        b = random_subspace_vectors(vectors, 4, seed=9)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
            assert np.linalg.norm(u) == pytest.approx(1.0)


class TestEquidistributedSelection:
    def _profiles(self, sites, delta=0.45):
        return [indicator_profile(s, 1.0, delta) for s in sites]

    def test_lexicographically_smallest_per_cell(self, brute_force_cells,
                                                 config_from):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.9)
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        cells = brute_force_cells(spec)
        sites = [s for _, cell in cells for s in cell]
        cfg = config_from({s: 1.0 for s in sites})
        profiles = self._profiles([s for s in sites
                                   if max(abs(s[0]), abs(s[1])) <= 3])
        sequence, mask = equidistributed_from_event(cfg, spec, profiles, grid)
        # cells whose smallest site has no profile drop out of the sequence
        want = {center: tuple(float(w) for w in min(cell))
                for center, cell in cells
                if max(abs(w) for w in min(cell)) <= 3}
        assert sequence.points == want
        assert all(type(w) is int for center in want for w in center)
        assert mask.size > 0

    def test_matches_brute_force_choice(self, brute_force_cells, config_from):
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        gen = np.random.default_rng(3)
        # nine cells each; eta makes the event hold about half the time
        for spec in (EventSpec(dimension=2, l=1, L=2, eta=0.075, kappa=0.9),
                     EventSpec(dimension=2, l=3, L=6, eta=0.75, kappa=0.9)):
            cells = brute_force_cells(spec)
            sites = [s for _, cell in cells for s in cell]
            profiles = self._profiles(sites)
            checked = 0
            for _ in range(20):
                values = {s: float(gen.random()) for s in sites}
                cfg = config_from(values)
                if not all(any(values[s] >= spec.eta for s in cell)
                           for _, cell in cells):
                    with pytest.raises(EventViolatedError):
                        equidistributed_from_event(cfg, spec, profiles, grid)
                    continue
                sequence, _ = equidistributed_from_event(cfg, spec, profiles,
                                                         grid)
                assert sequence.points == {
                    center: tuple(float(w) for w in
                                  min(s for s in cell if values[s] >= spec.eta))
                    for center, cell in cells}
                checked += 1
            assert 0 < checked < 20

    def test_event_violation_is_an_error(self, config_from):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        cfg = config_from({s: 0.0 for s in spec.required_sites()})
        with pytest.raises(EventViolatedError):
            equidistributed_from_event(cfg, spec, [], None)


class TestLiftingExperiment:
    def _setup(self, config_from):
        grid = GridSpec(dimension=2, side=6.0, spacing=0.125,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.9)
        sites = list(spec.required_sites())
        cfg = config_from({s: 1.0 for s in sites})
        profiles = [indicator_profile(s, 1.0, 0.45) for s in sites]
        return grid, spec, cfg, profiles

    def test_zero_eta_means_zero_lift(self, config_from):
        grid, spec, cfg, profiles = self._setup(config_from)
        rec = lifting_experiment(grid, zero_potential(), cfg, spec, profiles,
                                 b=-1.0, eta=0.0, c=1.0)
        assert abs(rec.observed_lift) <= TOL_EIG

    def test_ground_state_lift_is_positive_with_sandwich(self, config_from):
        grid, spec, cfg, profiles = self._setup(config_from)
        rec = lifting_experiment(grid, zero_potential(), cfg, spec, profiles,
                                 b=-1.0, eta=0.5, c=1.0)
        assert rec.k0 == 1
        assert rec.observed_lift > 10 * TOL_EIG
        assert rec.observed_lift <= 0.5 + TOL_EIG
        assert rec.random_eigenvalue >= rec.perturbed_eigenvalue - TOL_EIG
        assert rec.sandwich_ok
        assert rec.predicted_floor == pytest.approx(
            lifting_bound(3, 0.5, 1.0))

    def test_builds_u_and_v0_once(self, monkeypatch, config_from):
        grid, spec, cfg, profiles = self._setup(config_from)
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        # V0 at the nodes is v0.evaluate(grid.nodes())
        for module, name in ((ucp, "site_matrix"), (potentials, "site_matrix"),
                             (potentials.PeriodicPotential, "evaluate")):
            spy(module, name)
        lifting_experiment(grid, zero_potential(), cfg, spec, profiles,
                           b=-1.0, eta=0.5, c=1.0)
        assert sorted(calls) == ["evaluate", "site_matrix"]

    def test_understated_profile_breaks_the_sandwich(self, config_from):
        grid, spec, _, _ = self._setup(config_from)
        sites = list(spec.required_sites())
        # every coupling 0.6 is in the event; the profiles are 0.5 on
        # their balls, so V_omega = 0.3 there
        cfg = config_from({s: 0.6 for s in sites})
        truthful = [indicator_profile(s, 0.5, 0.45) for s in sites]
        rec = lifting_experiment(grid, zero_potential(), cfg, spec, truthful,
                                 b=-1.0, eta=0.5, c=0.5)
        assert rec.sandwich_ok
        # the same bumps claiming c = 1: eta c = 0.5 exceeds V_omega = 0.3
        understated = [dataclasses.replace(p, lower_bound=1.0)
                       for p in truthful]
        rec = lifting_experiment(grid, zero_potential(), cfg, spec,
                                 understated, b=-1.0, eta=0.5, c=1.0)
        assert not rec.sandwich_ok

    @pytest.mark.parametrize("single_site", [
        {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
        {"kind": "cone", "c": 1.0, "delta": 0.3, "radius": 0.45},
    ])
    def test_node_order_orders_the_dense_spectra(self, single_site,
                                                 dense_eigvals):
        spec_json = reference_model_spec()
        spec_json["single_site"] = single_site
        model = load_model(spec_json)
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0 / 3,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=3, L=4, eta=model.disorder.eta,
                         kappa=model.disorder.kappa)
        profiles = model.profiles_for(grid)
        sites = sorted(set(model.sites_for(grid)) |
                       set(spec.required_sites()))
        v0 = model.background
        amplitude = model.disorder.eta * model.coupling_floor
        v0_nodes = v0.evaluate(grid.nodes())
        low = dense_eigvals(assemble_schrodinger(grid, v0_nodes))
        top = dense_eigvals(family(grid, v0, profiles)(1.0))
        checked = 0
        for t in range(6):
            cfg = sample_configuration(
                rng.derive_seed(11, rng.TRIAL_STREAM, (0, t)), sites,
                model.disorder)
            if not event_A_indicator(cfg, spec):
                continue
            rec = lifting_experiment(grid, v0, cfg, spec, profiles, 0.0,
                                     model.disorder.eta, model.coupling_floor)
            if not rec.sandwich_ok:
                continue
            _, mask = equidistributed_from_event(cfg, spec, profiles, grid)
            v_test = np.zeros(grid.num_points)
            v_test[mask] = amplitude
            v_omega = assemble_random_potential(cfg, profiles, grid)
            chain = [low] + [
                dense_eigvals(assemble_schrodinger(grid, v0_nodes + v))
                for v in (v_test, v_omega)] + [top]
            for lo, hi in zip(chain, chain[1:]):
                assert np.all(lo <= hi + 1e-9 * (np.abs(hi) + 1.0))
            checked += 1
        assert checked >= 4


def missed_window_setup(dense_eigvals):
    """Free 6 x 6 box with c = 5 indicator bumps on sites -1..1, and the
    window (lambda_0(H0 + 0.01 W), lambda_0(H0 + 0.04 W))."""
    grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 3,
                    boundary="periodic")
    profiles = [indicator_profile((i, j), 5.0, 0.45)
                for i in (-1, 0, 1) for j in (-1, 0, 1)]
    h_t = family(grid, zero_potential(), profiles)
    window = tuple(float(dense_eigvals(h_t(t))[0]) for t in (0.01, 0.04))
    return grid, profiles, window


class TestGapHypothesis:
    def test_trivial_gap_without_perturbation(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        report = verify_gap_hypothesis(grid, zero_potential(), [],
                                       (4.1, 5.9), [0.0])
        assert report.ok

    def test_detects_background_eigenvalue_in_window(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        report = verify_gap_hypothesis(grid, zero_potential(), [],
                                       (1.0, 3.0), [0.0])
        assert not report.ok
        assert report.intrusions[0][0] == 0.0

    def test_coarse_t_grid_rejected(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0,
                        boundary="periodic")
        with pytest.raises(ValueError):
            verify_gap_hypothesis(grid, zero_potential(), [], (4.1, 5.9),
                                  [0.0, 0.5, 1.0])

    def test_window_missed_by_the_grid_fails(self, dense_eigvals):
        # the lowest branch crosses (lambda_0(t = 0.01), lambda_0(t = 0.04))
        # between the sampled t = 0 and t = 0.05
        grid, profiles, window = missed_window_setup(dense_eigvals)
        t_grid = [i / 20 for i in range(21)]
        h_t = family(grid, zero_potential(), profiles)
        for t in t_grid:
            values = dense_eigvals(h_t(t))
            assert not np.any((values > window[0]) & (values < window[1]))
        report = verify_gap_hypothesis(grid, zero_potential(), profiles,
                                       window, t_grid)
        assert not report.ok
        assert report.crossings == 1
        assert report.intrusions == ()
        assert report.to_json()["crossings"] == 1

    @pytest.mark.parametrize("spec_json, windows", [
        (reference_model_spec(), [(28.8, 49.9), (24.0, 25.6), (23.5, 23.9),
                                  (26.0, 28.5), (28.5, 30.0), (50.0, 50.5)]),
        (FREE_MODEL, [(0.2, 9.6), (20.0, 35.9), (0.05, 0.08), (9.7, 9.8),
                      (19.3, 30.0), (36.01, 40.0)]),
    ])
    def test_crossings_match_a_fine_scan(self, spec_json, windows,
                                         dense_eigvals):
        model = load_model(spec_json)
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 6,
                        boundary="periodic")
        profiles = model.profiles_for(grid)
        # row i holds the sorted spectrum at t_i, column j one branch
        h_t = family(grid, model.background, profiles)
        scan = np.array([dense_eigvals(h_t(t))
                         for t in np.linspace(0.0, 1.0, 401)])
        crossings = []
        for a, b in windows:
            inside = (scan > a + TOL_GAP) & (scan < b - TOL_GAP)
            report = verify_gap_hypothesis(grid, model.background, profiles,
                                           (a, b), [i / 20 for i in range(21)])
            assert report.crossings == int(np.sum(inside.any(axis=0)))
            assert report.ok == (report.crossings == 0)
            crossings.append(report.crossings)
        assert crossings.count(0) == 2 and min(crossings[2:]) >= 1

    def test_matches_dense_scan_for_gapped_background(self, gapped_model,
                                                      dense_eigvals):
        grid = GridSpec(dimension=2, side=3.0, spacing=1.0 / 9,
                        boundary="periodic")
        profiles = gapped_model.profiles_for(grid)
        t_grid = [i * 0.05 for i in range(21)]
        report = verify_gap_hypothesis(grid, gapped_model.background,
                                       profiles, (28.0, 46.0), t_grid)
        h_t = family(grid, gapped_model.background, profiles)
        for t in t_grid:
            vals = dense_eigvals(h_t(t))
            dense_hit = np.any((vals > 28.0 + 1e-6) & (vals < 46.0 - 1e-6))
            assert dense_hit == any(ti == t for ti, _ in report.intrusions)
