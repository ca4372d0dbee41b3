import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab import rng
from iselab.errors import (MissingProfileError, MissingSiteError,
                           UnresolvableBallError)
from iselab.grid import GridSpec
from iselab.potentials import (assemble_random_potential, bernoulli,
                               cone_profile, constant_potential,
                               indicator_profile, load_model,
                               sample_configuration,
                               separable_square_potential, site_matrix,
                               truncated, uniform01, verify_single_site_bound,
                               zero_potential)


@pytest.fixture
def grid8():
    return GridSpec(dimension=2, side=2.0, spacing=0.125, boundary="periodic")


class TestBackgrounds:
    def test_constant_potential_evaluates_flat(self, grid8):
        v = constant_potential(3.5)
        assert np.all(v.evaluate(grid8.nodes()) == 3.5)

    def test_evaluation_is_periodic(self):
        v = separable_square_potential(2.0, period=1.0)
        pts = np.array([[0.1, 0.7]])
        shifted = pts + np.array([[3.0, -2.0]])
        assert np.allclose(v.evaluate(pts), v.evaluate(shifted))

    def test_sup_bound_is_enforced(self):
        v = zero_potential()
        v = v.__class__(1.0, lambda p: np.full(p.shape[0], 2.0), 1.0, "bad")
        with pytest.raises(ValueError):
            v.evaluate(np.zeros((3, 2)))


def _full_d_square(amplitude, period, duty):
    """The d-dimensional separable-square formula, one call per point set."""
    def func(points):
        frac = (points / period) % 1.0
        return amplitude * np.sum(frac < duty, axis=1).astype(float)
    return func


class TestSeparableEvaluation:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_matches_full_d_formula_bit_for_bit(self, d, boundary):
        grid = GridSpec(dimension=d, side=3.0, spacing=1 / 7 if d == 2 else 1 / 3,
                        boundary=boundary, center=(0.4,) * d)
        points = grid.nodes()
        g = 1.0
        wrapped = ((points + g / 2.0) % g) - g / 2.0
        cases = [
            (zero_potential(), np.zeros(points.shape[0])),
            (constant_potential(3.5), np.full(points.shape[0], 3.5)),
            (separable_square_potential(40.0),
             _full_d_square(40.0, 1.0, 0.5)(wrapped)),
            (separable_square_potential(2.5, duty=0.3),
             _full_d_square(2.5, 1.0, 0.3)(wrapped)),
        ]
        for v0, want in cases:
            assert np.array_equal(v0.evaluate(points), want)


class TestDisorderDistributions:
    def test_bernoulli_one_is_degenerate(self):
        cfg = sample_configuration(1, [(0, 0), (1, 2)], bernoulli(1.0))
        assert np.all(cfg[cfg.sites] == 1.0)

    def test_same_seed_same_site_reproduces(self):
        d = uniform01()
        a = sample_configuration(5, [(2, -3)], d)[(2, -3)]
        b = sample_configuration(5, [(2, -3)], d)[(2, -3)]
        assert a == b

    def test_sampling_is_enumeration_order_free(self):
        d = uniform01()
        sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        a = sample_configuration(3, sites, d)
        b = sample_configuration(3, list(reversed(sites)), d)
        assert all(a[s] == b[s] for s in sites)

    def test_duplicate_sites_rejected(self):
        for sites in ([(0, 1), (2, 3), (0, 1)],
                      np.array([[0, 1], [2, 3], [0, 1]])):
            with pytest.raises(ValueError, match="distinct"):
                sample_configuration(1, sites, uniform01())

    def test_matches_the_per_site_stream(self):
        dist = truncated([0.0, 0.5, 1.0], [0.004, 0.83, 0.166], eta=0.5)
        sites = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
        want = [float(dist.from_uniform(rng.uniform_at(7, rng.SITE_VALUES, s)))
                for s in sites]
        for given in (sites, np.array(sites), sites[::-1]):
            cfg = sample_configuration(7, given, dist)
            assert cfg.sites.dtype == np.int64 and cfg.values.dtype == float
            assert np.array_equal(cfg.sites, sites)   # lexicographic rows
            assert np.array_equal(cfg.values, want)
        empty = sample_configuration(7, [], dist)
        assert empty.sites.size == 0 and empty.values.size == 0

    def test_uniform_bulk_mean(self):
        sites = [(i, 0) for i in range(100_000)]
        cfg = sample_configuration(2, sites, uniform01())
        values = cfg[np.array(sites)]
        assert abs(values.mean() - 0.5) < 3 * 0.51 / math.sqrt(100_000)

    def test_empirical_threshold_mass_meets_kappa(self):
        dist = truncated([0.0, 0.5, 1.0], [0.004, 0.83, 0.166], eta=0.5)
        sites = [(i, 1) for i in range(100_000)]
        cfg = sample_configuration(4, sites, dist)
        frequency = np.mean(cfg[np.array(sites)] >= dist.eta)
        assert frequency >= dist.kappa - 5e-3

    def test_truncated_kappa_is_the_mass_above_eta(self):
        dist = truncated([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], eta=0.5)
        assert dist.kappa == pytest.approx(0.8)

    def test_kappa_above_available_mass_rejected(self):
        with pytest.raises(ValueError):
            uniform01(eta=0.9, kappa=0.5)

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            dist = truncated([0.0, 1.5], [0.5, 0.5], eta=0.5)
            dist.from_uniform(np.array([0.9]))

    def test_missing_site_lookup_raises(self, config_from):
        cfg = config_from({(0, 0): 1.0})
        with pytest.raises(MissingSiteError):
            cfg[(5, 5)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lookup_matches_the_per_site_stream(self, data):
        d = data.draw(st.integers(1, 3))
        coord = st.integers(-4, 4)
        sites = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                                   max_size=30, unique=True))
        given = data.draw(st.permutations(sites))
        seed = data.draw(st.integers(0, 2 ** 63 - 1))
        dist = uniform01()
        want = {s: float(dist.from_uniform(
                    rng.uniform_at(seed, rng.SITE_VALUES, s))) for s in sites}
        cfg = sample_configuration(seed, np.array(given), dist)
        assert [tuple(r) for r in cfg.sites.tolist()] == sorted(sites)
        for s in sites:
            got = cfg[s]
            assert type(got) is float and got == want[s]
        picks = data.draw(st.lists(st.sampled_from(sites), min_size=6,
                                   max_size=6))
        query = np.array(picks).reshape(2, 3, d)
        assert np.array_equal(cfg[query],
                              np.reshape([want[s] for s in picks], (2, 3)))
        lo, hi = np.min(sites, axis=0), np.max(sites, axis=0)
        holes = [s for s in itertools.product(
                     *[range(a, b + 1) for a, b in zip(lo, hi)])
                 if s not in want]
        far = (int(hi[0]) + 50,) + tuple(lo[1:])
        for absent in holes[:1] + [tuple(hi + 1), tuple(lo - 1), far]:
            with pytest.raises(MissingSiteError):
                cfg[absent]
            with pytest.raises(MissingSiteError):
                cfg[np.array([sites[0], absent])]
        with pytest.raises(ValueError, match="distinct"):
            sample_configuration(seed, np.array(sites + [given[0]]), dist)


class TestFieldAssembly:
    def test_zero_couplings_give_zero_field(self, grid8, config_from):
        profiles = [indicator_profile((0, 0), 1.0, 0.5)]
        cfg = config_from({(0, 0): 0.0})
        assert np.all(assemble_random_potential(cfg, profiles, grid8) == 0.0)

    def test_single_indicator_site(self, grid8, config_from):
        c, delta = 2.0, 0.5
        profiles = [indicator_profile((0, 0), c, delta)]
        cfg = config_from({(0, 0): 1.0})
        field = assemble_random_potential(cfg, profiles, grid8)
        ball = grid8.nodes_within_ball((0.0, 0.0), delta)
        assert np.all(field[ball] == c)
        outside = np.setdiff1d(np.arange(grid8.num_points), ball)
        assert np.all(field[outside] == 0.0)

    def test_overlapping_profiles_sum_nodewise(self, grid8, config_from):
        p0 = indicator_profile((0, 0), 1.0, 0.5)
        p1 = cone_profile((0, 0), peak=2.0, radius=0.9, c=1.0, delta=0.4)
        cfg = config_from({(0, 0): 1.0})
        combined = assemble_random_potential(cfg, [p0, p1], grid8)
        nodes = grid8.nodes()
        want = p0.evaluate(nodes) + p1.evaluate(nodes)
        assert np.allclose(combined, want, atol=1e-14)

    def test_matches_full_node_array_reference(self):
        grid = GridSpec(dimension=2, side=3.0, spacing=1 / 9,
                        boundary="periodic", center=(0.2, -0.1))
        sites = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        profiles = ([indicator_profile(s, 1.0, 0.45) for s in sites]
                    + [cone_profile(s, 2.0, 0.7, 1.0, 0.3) for s in sites])
        cfg = sample_configuration(11, sites, uniform01())
        want = np.zeros(grid.num_points)
        for p in profiles:
            idx = grid.nodes_within_ball(p.ball_center, p.support_radius)
            if idx.size:
                want[idx] += cfg[p.site] * p.evaluate(grid.nodes()[idx])
        assert np.array_equal(assemble_random_potential(cfg, profiles, grid),
                              want)

    def test_missing_profile_for_contributing_site(self, grid8, config_from):
        cfg = config_from({(0, 0): 1.0})
        profile = indicator_profile((0, 0), 1.0, 0.5)
        broken = [indicator_profile((5, 5), 1.0, 0.5)]
        with pytest.raises(MissingProfileError):
            assemble_random_potential(config_from({(5, 5): 1.0}), [profile],
                                      grid8)
        # a far-away missing site that cannot touch the box is fine
        assemble_random_potential(cfg, [profile] + broken, grid8)

    def test_models_and_profiles_pickle(self, grid8):
        model = load_model({
            "G": 1.0, "V0": {"kind": "separable_square", "amplitude": 4.0},
            "single_site": {"kind": "cone", "c": 1.0, "delta": 0.3,
                            "radius": 0.7},
            "disorder": {"kind": "uniform01", "eta": 0.5}})
        clone = pickle.loads(pickle.dumps(model))
        nodes = grid8.nodes()
        assert np.array_equal(clone.background.evaluate(nodes),
                              model.background.evaluate(nodes))
        for profile in (model.profile_for((0, 0)),
                        indicator_profile((1, 0), 1.0, 0.4)):
            copy = pickle.loads(pickle.dumps(profile))
            assert np.array_equal(copy.evaluate(nodes),
                                  profile.evaluate(nodes))

    def test_w_is_c_on_disjoint_ball_union(self, grid8):
        profiles = [indicator_profile((0, 0), 1.5, 0.3),
                    indicator_profile((1, 1), 1.5, 0.3)]
        w = site_matrix(profiles, grid8) @ np.ones(len(profiles))
        union = np.concatenate([
            grid8.nodes_within_ball((0.0, 0.0), 0.3),
            grid8.nodes_within_ball((1.0, 1.0), 0.3)])
        assert np.all(w[union] == 1.5)
        assert np.count_nonzero(w) == union.size

    def test_w_is_periodic_under_lattice_shift(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        profiles = [indicator_profile(s, 1.0, 0.4) for s in sites]
        w = (site_matrix(profiles, grid) @ np.ones(len(profiles))).reshape(
            16, 16)
        # one full period = 4 nodes; interior rows repeat under the shift
        assert np.allclose(w[4:12, :], w[8:16, :][[i - 4 for i in range(4, 12)]])
        assert np.allclose(w[:, 2:6], w[:, 6:10])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
           st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
    def test_monotone_and_dominated_by_w(self, config_from, lows, highs):
        grid = GridSpec(dimension=2, side=2.0, spacing=0.25,
                        boundary="periodic")
        sites = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        profiles = [indicator_profile(s, 1.0, 0.4) for s in sites]
        lo = {s: min(a, b) for s, a, b in zip(sites, lows, highs)}
        hi = {s: max(a, b) for s, a, b in zip(sites, lows, highs)}
        f_lo = assemble_random_potential(config_from(lo), profiles, grid)
        f_hi = assemble_random_potential(config_from(hi), profiles, grid)
        w = site_matrix(profiles, grid) @ np.ones(len(profiles))
        assert np.all(f_lo <= f_hi + 1e-12)
        assert np.all(f_lo >= 0.0)
        assert np.all(f_hi <= w + 1e-12)


class TestSingleSiteBound:
    def test_indicator_profile_passes(self, grid8):
        report = verify_single_site_bound(
            indicator_profile((0, 0), 1.0, 0.5), grid8)
        assert report.ok and report.bound_holds and report.ball_inside_cell

    def test_halved_profile_fails_its_stated_bound(self, grid8):
        p = indicator_profile((0, 0), 1.0, 0.5)
        halved = p.__class__(p.site, lambda x: 0.5 * p.func(x), p.lower_bound,
                             p.ball_radius, p.ball_center, p.support_radius)
        report = verify_single_site_bound(halved, grid8)
        assert not report.ok and not report.bound_holds

    def test_cone_profile_certifies_against_nodewise_scan(self, grid8):
        p = cone_profile((0, 0), peak=4.0, radius=0.98, c=1.0, delta=0.5)
        report = verify_single_site_bound(p, grid8)
        ball = grid8.nodes_within_ball(p.ball_center, p.ball_radius)
        values = p.evaluate(grid8.nodes()[ball])
        assert report.bound_holds == bool(np.all(values >= p.lower_bound))

    def test_unresolvable_ball_is_an_error(self):
        coarse = GridSpec(dimension=2, side=4.0, spacing=1.0,
                          boundary="periodic")
        with pytest.raises(UnresolvableBallError):
            verify_single_site_bound(indicator_profile((0, 0), 1.0, 0.5),
                                     coarse)


class TestModelLoading:
    def test_reference_model_roundtrip(self, gapped_model):
        assert gapped_model.period == 1.0
        assert gapped_model.coupling_floor == 1.0
        assert gapped_model.ball_radius == 0.45
        assert gapped_model.disorder.kappa == pytest.approx(0.996)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            load_model({"G": 1.0, "V0": {"kind": "mystery"},
                        "single_site": {"kind": "ball_indicator",
                                        "c": 1, "delta": 0.4},
                        "disorder": {"kind": "uniform01"}})

    def test_sites_for_covers_the_box(self, gapped_model):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        sites = gapped_model.sites_for(grid)
        assert (0, 0) in sites and (-2, 2) in sites
        assert all(max(abs(s[0]), abs(s[1])) <= 3 for s in sites)
