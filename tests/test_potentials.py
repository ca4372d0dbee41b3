import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab import rng
from iselab.errors import UnresolvableBallError
from iselab.grid import GridSpec
from iselab.potentials import (Box, DisorderConfiguration,
                               DisorderDistribution, bernoulli, cone_profile,
                               constant_potential, indicator_profile,
                               load_model, separable_square_potential,
                               site_matrix, truncated, uniform01,
                               verify_single_site_bound, zero_potential)
from iselab.ucp import event_balls

from conftest import (assemble_random_potential, site_matrix_by_profile,
                      uniform_at)


# one law of each kind, every value a coupling can take drawn often
LAWS = {"uniform01": uniform01(),
        "bernoulli": bernoulli(0.3, kappa=0.3),
        "truncated": truncated([0.0, 0.5, 1.0], [0.004, 0.83, 0.166], eta=0.5)}


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
        v = v.__class__(1.0, lambda p: np.full(p.shape[0], 2.0), 1.0)
        with pytest.raises(ValueError, match="sup bound"):
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
                        boundary=boundary)
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
        cfg = DisorderConfiguration(1, bernoulli(1.0))
        assert np.all(cfg[np.array([(0, 0), (1, 2)])] == 1.0)

    def test_bernoulli_draws_as_u_below_p(self):
        # bernoulli(p) is the table (1, 0), (p, 1 - p): a uniform u draws
        # 1.0 exactly when u < p, at u = p and at its neighbouring floats
        ps = np.append(np.random.default_rng(0).random(200),
                       [1e-12, 0.1, 0.3, 0.5, 0.7, 1 - 1e-12, 1.0])
        for p in ps.tolist():
            dist = bernoulli(p)
            u = np.array([np.nextafter(p, 0.0), p, np.nextafter(p, 2.0)])
            assert np.array_equal(dist.from_uniform(u), (u < p).astype(float))
            assert [dist.from_uniform(x) for x in u.tolist()] == \
                [float(x < p) for x in u.tolist()]
            assert dist.kappa == dist.exact_threshold_mass() == p

    def test_same_seed_same_site_reproduces(self):
        d = uniform01()
        a = DisorderConfiguration(5, d)[(2, -3)]
        b = DisorderConfiguration(5, d)[(2, -3)]
        assert a == b

    def test_sampling_is_enumeration_order_free(self):
        cfg = DisorderConfiguration(3, uniform01())
        sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        a = cfg[np.array(sites)]
        b = cfg[np.array(sites[::-1])]
        assert np.array_equal(a, b[::-1])
        assert all(a[k] == cfg[s] for k, s in enumerate(sites))

    def test_matches_the_per_site_stream(self):
        dist = LAWS["truncated"]
        sites = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
        want = [float(dist.from_uniform(uniform_at(7, rng.SITE_VALUES, s)))
                for s in sites]
        cfg = DisorderConfiguration(7, dist)
        for given, order in ((sites, want), (np.array(sites), want),
                             (sites[::-1], want[::-1])):
            got = cfg[given]
            assert got.dtype == float and np.array_equal(got, order)
        assert cfg[np.empty((0, 2), dtype=np.int64)].shape == (0,)

    def test_uniform_bulk_mean(self):
        sites = [(i, 0) for i in range(100_000)]
        values = DisorderConfiguration(2, uniform01())[np.array(sites)]
        assert abs(values.mean() - 0.5) < 3 * 0.51 / math.sqrt(100_000)

    def test_empirical_threshold_mass_meets_kappa(self):
        dist = LAWS["truncated"]
        sites = [(i, 1) for i in range(100_000)]
        cfg = DisorderConfiguration(4, dist)
        frequency = np.mean(cfg[np.array(sites)] >= dist.eta)
        assert frequency >= dist.kappa - 5e-3

    def test_truncated_kappa_is_the_mass_above_eta(self):
        dist = truncated([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], eta=0.5)
        assert dist.kappa == pytest.approx(0.8)

    def test_kappa_above_available_mass_rejected(self):
        with pytest.raises(ValueError, match=r"P\[omega >= eta\] < kappa"):
            uniform01(eta=0.9, kappa=0.5)

    def test_values_outside_unit_interval_rejected(self):
        # refused when built: a draw need not land on the bad value, as
        # with mass 1e-9 at 2.0
        for values, probs in (([0.0, 1.5], [0.5, 0.5]), ([0, 2], [0.5, 0.5]),
                              ([-0.5, 1.0], [0.5, 0.5]),
                              ([0, 0.5, 1, 2], [0.004, 0.83, 0.165999999, 1e-9])):
            with pytest.raises(ValueError, match="values must lie in"):
                truncated(values, probs, eta=0.5)
            with pytest.raises(ValueError, match="values must lie in"):
                DisorderDistribution("truncated", 0.5, 0.5,
                                     (tuple(values), tuple(probs)))

    def test_bernoulli_p_outside_unit_interval_rejected(self):
        for p in (1.5, -0.5):
            with pytest.raises(ValueError, match="bernoulli p"):
                bernoulli(p, 0.5, 0.5)
            with pytest.raises(ValueError, match="bernoulli p"):
                bernoulli(p)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            DisorderDistribution("gaussian", 0.5, 0.5)

    def test_planted_double_raises_on_an_unplanted_site(self, config_from):
        cfg = config_from({(0, 0): 1.0, (1, 0): 0.5})
        assert cfg[(1, 0)] == 0.5
        assert np.array_equal(cfg[np.array([[[0, 0], [1, 0]]])], [[1.0, 0.5]])
        with pytest.raises(KeyError, match=r"\(5, 5\)"):
            cfg[(5, 5)]
        with pytest.raises(KeyError, match=r"\(5, 5\)"):
            cfg[np.array([(0, 0), (5, 5)])]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_lookup_matches_the_per_site_stream(self, data):
        # any law, any seed, any shape; duplicate rows and far sites included
        dist = LAWS[data.draw(st.sampled_from(sorted(LAWS)))]
        seed = data.draw(st.integers(0, 2 ** 63 - 1))
        d = data.draw(st.integers(1, 4))
        coord = st.one_of(st.integers(-4, 4),
                          st.integers(-2 ** 62, 2 ** 62))
        site = st.tuples(*[coord] * d)
        shape = data.draw(st.sampled_from([(), (None,), (None, None)]))
        sizes = [data.draw(st.integers(1, 6)) for _ in shape]
        count = int(np.prod(sizes))
        rows = data.draw(st.lists(site, min_size=count, max_size=count))
        if count > 1:
            rows[-1] = rows[data.draw(st.integers(0, count - 2))]
        q = np.array(rows, dtype=np.int64).reshape(tuple(sizes) + (d,))
        want = [dist.from_uniform(uniform_at(seed, rng.SITE_VALUES, r))
                for r in rows]
        cfg = DisorderConfiguration(seed, dist)
        got = cfg[q]
        if q.ndim == 1:
            assert type(got) is float and got == want[0]
            return
        assert got.shape == q.shape[:-1]
        assert np.array_equal(got.reshape(-1), want)
        perm = np.array(data.draw(st.permutations(range(count))))
        flat = q.reshape(-1, d)
        assert np.array_equal(cfg[flat[perm]], np.asarray(want)[perm])


class TestFieldAssembly:
    def test_zero_couplings_give_zero_field(self, grid8, config_from):
        cfg = config_from({(0, 0): 0.0})
        assert np.all(assemble_random_potential(
            cfg, indicator_profile(1.0, 0.5), [(0, 0)], grid8) == 0.0)

    def test_single_indicator_site(self, grid8, config_from):
        c, delta = 2.0, 0.5
        cfg = config_from({(0, 0): 1.0})
        field = assemble_random_potential(cfg, indicator_profile(c, delta),
                                          [(0, 0)], grid8)
        ball = grid8.nodes_within_balls([(0.0, 0.0)], delta)[1]
        assert np.all(field[ball] == c)
        outside = np.setdiff1d(np.arange(grid8.num_points), ball)
        assert np.all(field[outside] == 0.0)

    def test_matches_full_node_array_reference(self):
        grid = GridSpec(dimension=2, side=3.0, spacing=1 / 9,
                        boundary="periodic")
        sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        cfg = DisorderConfiguration(11, uniform01())
        for profile in (indicator_profile(1.0, 0.45),
                        cone_profile(2.0, 0.7, 1.0, 0.3)):
            want = np.zeros(grid.num_points)
            for s in sites:
                idx = grid.nodes_within_balls([s], profile.support_radius)[1]
                if idx.size:
                    want[idx] += cfg[s] * profile.evaluate(
                        grid.nodes()[idx] - np.asarray(s, dtype=float))
            assert np.array_equal(
                assemble_random_potential(cfg, profile, sites, grid), want)
            # the box keeps U's live columns only: the columns of the sites
            # +-3 on either axis hold no node of the box (-1.5, 1.5)^2
            box = Box.build(grid, zero_potential(), profile, sites)
            assert box.matrix.shape[1] < len(sites)
            assert np.array_equal(box.potential(cfg), want)

    @pytest.mark.parametrize("dip", [-1e-12, -5e-13, -1e-300])
    def test_negative_profile_value_is_refused(self, grid8, dip):
        # U >= 0 is what bounds V_omega in [0, s]: a profile of a custom
        # shape dipping below 0 by any amount is refused when the box is
        # built
        p = indicator_profile(1.0, 0.5)

        def dipped(offsets):
            return np.minimum(p.shape(offsets), dip)

        with pytest.raises(ValueError, match="nonnegative"):
            Box.build(grid8, zero_potential(),
                      dataclasses.replace(p, shape=dipped), [(1, 0), (0, 0)])

    def test_profile_outside_the_box_reads_no_coupling(self, grid8,
                                                         config_from):
        # the double raises KeyError on (5, 5): its column holds no node of
        # the box, so V_omega never reads that coupling
        cfg = config_from({(0, 0): 1.0})
        profile = indicator_profile(1.0, 0.5)
        assert np.array_equal(
            assemble_random_potential(cfg, profile, [(0, 0), (5, 5)], grid8),
            assemble_random_potential(cfg, profile, [(0, 0)], grid8))

    def test_models_and_profiles_pickle(self, grid8):
        model = load_model({
            "G": 1.0, "V0": {"kind": "separable_square", "amplitude": 4.0},
            "single_site": {"kind": "cone", "c": 1.0, "delta": 0.3,
                            "radius": 0.7},
            "disorder": {"kind": "uniform01", "eta": 0.5}})
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        nodes = grid8.nodes()
        assert np.array_equal(clone.background.evaluate(nodes),
                              model.background.evaluate(nodes))
        for profile in (model.profile, indicator_profile(1.0, 0.4)):
            copy = pickle.loads(pickle.dumps(profile))
            assert np.array_equal(copy.evaluate(nodes),
                                  profile.evaluate(nodes))

    def test_w_is_c_on_disjoint_ball_union(self, grid8):
        w = site_matrix(indicator_profile(1.5, 0.3), [(0, 0), (1, 1)],
                        grid8) @ np.ones(2)
        union = np.concatenate([
            grid8.nodes_within_balls([(0.0, 0.0)], 0.3)[1],
            grid8.nodes_within_balls([(1.0, 1.0)], 0.3)[1]])
        assert np.all(w[union] == 1.5)
        assert np.count_nonzero(w) == union.size

    def test_w_is_periodic_under_lattice_shift(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        w = (site_matrix(indicator_profile(1.0, 0.4), sites, grid)
             @ np.ones(len(sites))).reshape(16, 16)
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
        profile = indicator_profile(1.0, 0.4)
        lo = {s: min(a, b) for s, a, b in zip(sites, lows, highs)}
        hi = {s: max(a, b) for s, a, b in zip(sites, lows, highs)}
        f_lo = assemble_random_potential(config_from(lo), profile, sites, grid)
        f_hi = assemble_random_potential(config_from(hi), profile, sites, grid)
        w = site_matrix(profile, sites, grid) @ np.ones(len(sites))
        assert np.all(f_lo <= f_hi + 1e-12)
        assert np.all(f_lo >= 0.0)
        assert np.all(f_hi <= w + 1e-12)


def box_geometry_digest(box):
    """sha256 of U's CSC arrays, the live sites and the event mask of every
    live site's ball, each with its dtype and shape."""
    mask, _ = event_balls(box, box.sites)
    digest = hashlib.sha256()
    for array in (box.matrix.indptr, box.matrix.indices, box.matrix.data,
                  box.sites, mask):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


# recorded with the per-ball search (one window per centre, one profile
# evaluation per site) that the batched search replaced
REFERENCE_BOX_DIGESTS = {
    3: "11ba9bcdb9790fec", 4: "8684edb4d552e5a0", 5: "c86ab27c6ad4566c",
    6: "ea99957a7a30c1d5", 7: "0aaa63e14bcd4457", 8: "cb8ccadc47706072",
    9: "496e2ed2bcbda645", 10: "8f4a8d9101485acb", 11: "a0bcfb227571b504",
    12: "9f5428ce9573ad54"}


class TestBoxGeometry:
    """U, the live sites and the event balls from one batched ball search."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_site_matrix_equals_the_profile_by_profile_assembly(self, data):
        # one indicator or cone profile at a list of sites, repeats and
        # sites outside the box allowed: U's arrays equal, bit for bit,
        # those assembled one site at a time
        d = data.draw(st.sampled_from([2, 3]))
        side = data.draw(st.integers(1, 2 if d == 3 else 4))
        grid = GridSpec.per_unit(
            d, side, data.draw(st.sampled_from([4, 5] if d == 3 else [4, 9])),
            data.draw(st.sampled_from(["dirichlet", "neumann", "periodic"])))
        profile = data.draw(st.one_of(
            st.builds(indicator_profile, st.sampled_from([0.5, 1.0]),
                      st.sampled_from([0.3, 0.45])),
            st.builds(lambda r: cone_profile(2.0, r, 1.0, 0.25),
                      st.sampled_from([0.5, 0.7]))))
        sites = data.draw(st.lists(
            st.tuples(*[st.integers(-side, side)] * d), max_size=12))
        got = site_matrix(profile, np.array(sites, dtype=float), grid)
        want = site_matrix_by_profile(profile, sites, grid)
        assert got.shape == want.shape == (grid.num_points, len(sites))
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("L", range(3, 13))
    def test_reference_box_is_the_recorded_one(self, gapped_model, L):
        box = gapped_model.box(GridSpec.per_unit(2, L, 9))
        assert box_geometry_digest(box) == REFERENCE_BOX_DIGESTS[L]


class TestSingleSiteBound:
    def test_indicator_profile_passes(self, grid8):
        report = verify_single_site_bound(indicator_profile(1.0, 0.5), grid8)
        assert report.ok and report.bound_holds and report.ball_inside_cell

    def test_halved_profile_fails_its_stated_bound(self, grid8):
        p = indicator_profile(1.0, 0.5)
        halved = dataclasses.replace(p, shape=lambda x: 0.5 * p.shape(x))
        report = verify_single_site_bound(halved, grid8)
        assert not report.ok and not report.bound_holds

    def test_cone_profile_certifies_against_nodewise_scan(self, grid8):
        p = cone_profile(peak=4.0, radius=0.98, c=1.0, delta=0.5)
        report = verify_single_site_bound(p, grid8)
        ball = grid8.nodes_within_balls([(0.0, 0.0)], p.ball_radius)[1]
        values = p.evaluate(grid8.nodes()[ball])
        assert report.bound_holds == bool(np.all(values >= p.lower_bound))

    def test_ball_wider_than_half_a_period_leaves_the_cell(self, grid8):
        report = verify_single_site_bound(indicator_profile(1.0, 0.5), grid8,
                                          period=0.9)
        assert report.bound_holds and not report.ball_inside_cell
        assert not report.ok

    def test_unresolvable_ball_is_an_error(self):
        coarse = GridSpec(dimension=2, side=4.0, spacing=1.0,
                          boundary="periodic")
        with pytest.raises(UnresolvableBallError, match="delta/h = 0.5 < 4"):
            verify_single_site_bound(indicator_profile(1.0, 0.5), coarse)


class TestModelLoading:
    def test_reference_model_roundtrip(self, gapped_model):
        assert gapped_model.period == 1.0
        assert gapped_model.coupling_floor == 1.0
        assert gapped_model.ball_radius == 0.45
        assert gapped_model.disorder.kappa == pytest.approx(0.996)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown V0 kind 'mystery'"):
            load_model({"G": 1.0, "V0": {"kind": "mystery"},
                        "single_site": {"kind": "ball_indicator",
                                        "c": 1, "delta": 0.4},
                        "disorder": {"kind": "uniform01"}})

    @pytest.mark.parametrize("radius", [0.2, 0.3])
    def test_cone_no_wider_than_its_ball_is_refused(self, radius):
        # a cone of radius <= delta vanishes on part of B_delta, so u >= c
        # cannot hold there
        with pytest.raises(ValueError,
                           match=rf"radius {radius:g} .*delta 0\.3"):
            load_model({"G": 1.0, "V0": {"kind": "zero"},
                        "single_site": {"kind": "cone", "c": 1.0,
                                        "delta": 0.3, "radius": radius},
                        "disorder": {"kind": "uniform01"}})

    def test_sites_for_covers_the_box(self, gapped_model):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        # support radius 0.45: the sites within 2.45 of the origin on
        # each axis, in lexicographic order
        sites = gapped_model.sites_for(grid)
        assert sites.dtype == np.int64
        assert sites.tolist() == [[i, j] for i in range(-2, 3)
                                  for j in range(-2, 3)]
