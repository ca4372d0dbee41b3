import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab import events
from iselab.errors import ScaleWindowError
from iselab.events import (EventSpec, build_ledger, cell_count,
                           event_choice, exact_event_probability,
                           ledger_verdict, lifting_bound,
                           min_scale_for_probability,
                           monte_carlo_event_probability, select_scale,
                           wilson_interval)

from conftest import exact_event_log_failure, min_scale_by_scan


class TestEventIndicator:
    def test_all_qualifying_sites(self, brute_force_cells, config_from):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        cfg = config_from({s: 1.0 for _, cell in brute_force_cells(spec)
                           for s in cell})
        assert event_choice(cfg, spec) is not None

    def test_one_dead_cell(self, brute_force_cells, config_from):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        values = {s: 1.0 for _, cell in brute_force_cells(spec) for s in cell}
        values[(1, -1)] = 0.0
        assert event_choice(config_from(values), spec) is None

    def test_matches_brute_force_conjunction(self, brute_force_cells,
                                             config_from):
        gen = np.random.default_rng(1)
        # nine cells each; eta makes the event hold about half the time
        for spec in (EventSpec(dimension=2, l=1, L=2, eta=0.075, kappa=0.5),
                     EventSpec(dimension=2, l=3, L=4, eta=0.75, kappa=0.5)):
            cells = brute_force_cells(spec)
            seen = set()
            for _ in range(50):
                values = {s: float(gen.random())
                          for _, sites in cells for s in sites}
                brute = all(any(values[s] >= spec.eta for s in sites)
                            for _, sites in cells)
                assert (event_choice(config_from(values), spec)
                        is not None) == brute
                seen.add(brute)
            assert seen == {True, False}

    def test_even_l_rejected(self):
        with pytest.raises(ValueError,
                           match="l must be an odd positive integer"):
            EventSpec(dimension=2, l=2, L=4, eta=0.5, kappa=0.5)


class TestExactProbability:
    def test_certain_distribution(self):
        spec = EventSpec(dimension=2, l=1, L=6, eta=0.5, kappa=1.0)
        assert exact_event_probability(spec) == 1.0

    def test_nine_cell_coin_flip(self):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        assert exact_event_probability(spec) == pytest.approx(1 / 512)

    def test_coarse_cells(self):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.3)
        want = (1.0 - 0.7 ** 9) ** 9
        assert exact_event_probability(spec) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_agrees(self):
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=0.3)
        p_hat, lo, hi = monte_carlo_event_probability(spec, 100_000, seed=5)
        exact = exact_event_probability(spec)
        se = (hi - lo) / (2 * 1.96)
        assert abs(p_hat - exact) <= 3 * se

    def test_monte_carlo_is_deterministic(self):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        a = monte_carlo_event_probability(spec, 20_000, seed=3)
        b = monte_carlo_event_probability(spec, 20_000, seed=3)
        assert a == b

    def test_monte_carlo_chunking_is_invisible(self):
        spec = EventSpec(dimension=2, l=1, L=2, eta=0.5, kappa=0.5)
        a = monte_carlo_event_probability(spec, 5_000, seed=3, chunk=2048)
        for chunk in (137, 50, 1):
            b = monte_carlo_event_probability(spec, 5_000, seed=3,
                                              chunk=chunk)
            assert a == b, chunk

    def test_monte_carlo_at_certain_cells_draws_nothing(self, monkeypatch):
        # u < kappa = 1 for every uniform u in [0, 1): each trial hits
        spec = EventSpec(dimension=2, l=3, L=6, eta=0.5, kappa=1.0)
        monkeypatch.setattr(events.rng, "stream", None)
        for trials in (1, 100_000):
            assert monte_carlo_event_probability(spec, trials, seed=5) == \
                wilson_interval(trials, trials)
        with pytest.raises(ValueError, match="need at least one trial"):
            monte_carlo_event_probability(spec, 0, seed=5)

    def test_union_bound_dominates_exact_failure(self):
        for kappa in (0.1, 0.5, 0.9):
            for l, L in ((1, 4), (3, 9), (5, 25)):
                spec = EventSpec(dimension=2, l=l, L=L, eta=0.5, kappa=kappa)
                # ln(M (1-kappa)^(l^d)), the union bound on 1 - P[A]
                union = (math.log(cell_count(2, L, l))
                         + l ** 2 * math.log1p(-kappa))
                assert exact_event_log_failure(spec) <= union + 1e-12

    def test_log_failure_finite_at_astronomical_L(self):
        L = 10 ** 5000
        spec = EventSpec(dimension=2, l=9, L=L, eta=0.5, kappa=0.5)
        lf = exact_event_log_failure(spec)
        assert math.isfinite(lf)

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(0.01, 0.99), L=st.integers(2, 60),
           l=st.sampled_from([1, 3, 5]))
    def test_probability_bounds_and_kappa_monotonicity(self, kappa, L, l):
        if l > L:
            return
        spec = EventSpec(dimension=2, l=l, L=L, eta=0.5, kappa=kappa)
        p = exact_event_probability(spec)
        assert 0.0 <= p <= 1.0
        bumped = EventSpec(dimension=2, l=l, L=L, eta=0.5,
                           kappa=min(1.0, kappa + 0.05))
        assert exact_event_probability(bumped) >= p - 1e-15


class TestCellTable:
    @pytest.mark.parametrize("d, l, L", [(2, 1, 2), (2, 1, 5), (2, 3, 3),
                                         (2, 3, 7), (2, 5, 9), (2, 7, 8),
                                         (3, 1, 2), (3, 1, 4), (3, 3, 4),
                                         (3, 3, 5), (3, 5, 6)])
    def test_matches_brute_force(self, brute_force_cells, d, l, L):
        spec = EventSpec(dimension=d, l=l, L=L, eta=0.5, kappa=0.5)
        table = spec.cells()
        want = brute_force_cells(spec)
        assert table.dtype == np.int64
        assert table.shape == (cell_count(d, L, l), l ** d, d)
        assert [tuple(r) for r in table[:, l ** d // 2].tolist()] == \
            [center for center, _ in want]
        rows = [list(map(tuple, row)) for row in table.tolist()]
        assert rows == [sites for _, sites in want]
        flat = [s for row in rows for s in row]
        assert len(set(flat)) == len(flat)


class TestCellCount:
    def test_desk_scale_counts(self):
        assert cell_count(2, 2, 1) == 9
        assert cell_count(2, 6, 3) == 9

    def test_huge_L_is_exact_integer(self):
        L = 10 ** 30
        per_axis = 2 * ((2 * L - 1) // 2) + 1
        assert cell_count(2, L, 1) == per_axis ** 2


class TestScaleSelector:
    def test_known_scale_examples(self):
        assert select_scale(math.ceil(math.e ** 8), 1.0) == 3
        assert select_scale(math.ceil(math.e ** 27), 1.0) == 9
        assert select_scale(10, 0.5) == 1

    def test_empty_window_raises(self):
        with pytest.raises(ScaleWindowError, match="no odd integer in"):
            select_scale(6, 0.4)

    @settings(max_examples=80, deadline=None)
    @given(L=st.integers(3, 10 ** 9), alpha=st.floats(0.05, 0.999))
    def test_window_inequalities_hold_verbatim(self, L, alpha):
        x = (alpha * math.log(L)) ** (2.0 / 3.0)
        try:
            l = select_scale(L, alpha)
        except ScaleWindowError:
            assert not any(k % 2 == 1 for k in range(1, int(x) + 1)
                           if x / 2 < k <= x)
            return
        assert l % 2 == 1
        assert x / 2 < l <= x
        # largest such odd integer
        assert not (l + 2 <= x)


class TestLiftingBound:
    def test_zero_eta(self):
        assert lifting_bound(3, 0.0, 1.0) == 0.0

    def test_unit_parameters(self):
        assert lifting_bound(1, 1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_coarse_scale_value(self):
        assert lifting_bound(3, 0.5, 1.0) == \
            pytest.approx(0.5 * math.exp(-(3 ** 1.4)), rel=1e-12)

    def test_strictly_decreasing_and_bilinear(self):
        values = [lifting_bound(l, 1.0, 1.0) for l in (1, 3, 5, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert lifting_bound(3, 0.2, 5.0) == \
            pytest.approx(lifting_bound(3, 1.0, 1.0))


class TestWilson:
    def test_interval_contains_p_hat(self):
        p, lo, hi = wilson_interval(7, 10)
        assert lo < p < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_extremes_stay_in_unit_interval(self):
        _, lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 or lo > 0.0
        _, lo2, hi2 = wilson_interval(50, 50)
        assert hi2 <= 1.0


class TestLedger:
    def test_certain_distribution_probability_lines_pass(self):
        ledger = build_ledger(2, 10 ** 40, 0.5, 1.0, kappa=1.0, eta=1.0, c=1.0)
        failing = {line.name for line in ledger.failing()}
        assert "per_cell_failure_vs_target" not in failing
        assert "union_bound_vs_target" not in failing

    def test_desk_scale_lifting_line_fails_cleanly(self):
        ledger = build_ledger(2, 5000, 0.9, 1.0, kappa=0.5, eta=0.5, c=1.0)
        assert not ledger.verdict
        assert len(ledger.failing()) >= 1

    def test_ledger_json_is_self_contained(self):
        ledger = build_ledger(2, 10 ** 6, 0.5, 1.0, kappa=0.5, eta=1.0, c=1.0)
        blob = ledger.to_json()
        assert blob["verdict"] == ledger.verdict
        assert len(blob["lines"]) == len(ledger.lines)
        for line in blob["lines"]:
            assert set(line) >= {"name", "holds"}

    def test_true_verdict_implies_probability_target(self):
        # spot instance; the acceptance suite scans this property widely
        params = dict(alpha=0.95, q=0.1, kappa=0.99, eta=0.5, c=1.0)
        L0 = min_scale_for_probability(3, **params)
        ledger = build_ledger(3, L0, **params)
        assert ledger.verdict
        spec = EventSpec(dimension=3, l=select_scale(L0, 0.95), L=L0,
                         eta=0.5, kappa=0.99)
        assert exact_event_log_failure(spec) <= -0.1 * math.log(L0)

    def test_min_scale_strategies_agree(self):
        params = dict(alpha=0.95, q=0.1, kappa=0.99, eta=0.5, c=1.0)
        scan = min_scale_by_scan(3, **params)
        solve = min_scale_for_probability(3, **params)
        assert scan == solve

    def test_verdict_monotone_up_to_the_doubling_bracket(self):
        # the verdict stays true from the smallest L up to the first
        # doubling 3 * 2^k with a true verdict
        params = dict(alpha=0.95, q=0.1, kappa=0.99, eta=0.5, c=1.0)
        scan = min_scale_by_scan(3, **params)
        bracket = 3
        while not ledger_verdict(3, bracket, **params):
            bracket *= 2
        assert (scan, bracket) == (21369, 24576)
        assert all(ledger_verdict(3, L, **params)
                   for L in range(scan, bracket + 1))

    def test_verdict_keeps_its_input_errors(self):
        # eta * c must be positive, also where the scale window is empty
        for eta, c in ((0.0, 1.0), (0.5, -1.0), (-0.5, 1.0)):
            for L, alpha in ((10 ** 6, 0.5), (6, 0.4)):
                with pytest.raises(ValueError, match=(
                        rf"eta \* c must be positive: eta = {eta}, c = {c}")):
                    ledger_verdict(2, L, alpha, 1.0, kappa=0.5, eta=eta, c=c)
            with pytest.raises(ValueError, match=r"eta \* c must be positive"):
                build_ledger(2, 10 ** 6, 0.5, 1.0, 0.5, eta, c)
        # kappa = P[omega >= eta] must lie in (0, 1], also where the scale
        # window is empty
        for kappa in (0.0, -0.5, 1.5):
            for L, alpha in ((10 ** 6, 0.5), (6, 0.4)):
                with pytest.raises(ValueError, match="kappa"):
                    ledger_verdict(2, L, alpha, 1.0, kappa=kappa, eta=0.5,
                                   c=1.0)
            with pytest.raises(ValueError, match="kappa"):
                build_ledger(2, 10 ** 6, 0.5, 1.0, kappa, 0.5, 1.0)
        # select_scale(6, 0.4) has an empty window
        assert ledger_verdict(2, 6, 0.4, 1.0, kappa=0.5, eta=0.5,
                              c=1.0) is False

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([2, 3]),
           L=st.integers(2, 10 ** 30),
           alpha=st.floats(0.05, 3.0),
           q=st.floats(0.01, 3.0),
           kappa=st.floats(0.01, 1.0),
           eta=st.floats(0.01, 2.0),
           c=st.floats(0.01, 10.0))
    def test_lines_and_verdict_read_one_table(self, d, L, alpha, q, kappa,
                                               eta, c):
        relations = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b}
        verdict = ledger_verdict(d, L, alpha, q, kappa, eta, c)
        try:
            ledger = build_ledger(d, L, alpha, q, kappa, eta, c)
        except ScaleWindowError:
            assert verdict is False
            return
        assert len(ledger.lines) == 9
        for line in ledger.lines:
            assert line.holds == relations[line.relation](line.lhs, line.rhs)
        assert verdict == ledger.verdict

    def test_min_scale_monotone_in_q(self):
        base = dict(alpha=0.95, kappa=0.99, eta=0.5, c=1.0)
        l0_small = min_scale_for_probability(3, q=0.05, **base)
        l0_large = min_scale_for_probability(3, q=0.2, **base)
        assert l0_large >= l0_small

    def test_search_budget_error(self):
        # no band that starts below e^700 holds a true verdict
        assert min_scale_for_probability(2, alpha=0.5, q=1.0, kappa=0.5,
                                         eta=1.0, c=1.0) is None

    def test_search_gives_up_on_bands_above_e_700(self):
        # sufficient_large_L first holds near ln L = 645 and 777
        L0 = min_scale_for_probability(2, 1.0, 0.2, 0.81, 0.5, 1.0)
        assert 600 < math.log(L0) < 700
        assert ledger_verdict(2, L0, 1.0, 0.2, 0.81, 0.5, 1.0)
        assert not ledger_verdict(2, L0 - 1, 1.0, 0.2, 0.81, 0.5, 1.0)
        assert min_scale_for_probability(2, 1.0, 0.2, 0.79, 0.5, 1.0) is None

    @pytest.mark.parametrize("params, L0", [
        ((2, 2.0, 1.0, 0.999, 1.0, 2.0), 3),        # in the band of l = 1
        ((2, 1.0, 1.0, 0.999999, 0.5, 2.0), 8),
        ((3, 1.0, 1.0, 0.999999, 0.5, 2.0), 181),   # first L of l = 3
        # x(150) is exactly 3.0 here, so l = 3 starts at 150, not 151
        ((2, 1.0370246720668257, 1.0, 1 - math.exp(-11), 0.5, 2.0), 150),
    ])
    def test_smallest_scale_at_band_edges(self, params, L0):
        assert min_scale_for_probability(*params) == L0
        assert min_scale_by_scan(*params) == L0

    def test_smallest_scale_far_beyond_any_scan(self):
        params = dict(alpha=1.0, q=0.2, kappa=0.9, eta=0.5, c=1.0)
        L0 = min_scale_for_probability(2, **params)
        assert L0 == int(
            "10372667565791161212741075037377547182128294065042548836597938"
            "86556540496011181827713951963743503503065089")
        assert ledger_verdict(2, L0, **params)
        assert not ledger_verdict(2, L0 - 1, **params)

    @pytest.mark.parametrize("d, alpha", [(1, 1.0), (0, 1.0), (2, 0.0)])
    def test_search_refuses_d_below_two_or_alpha_zero(self, d, alpha):
        # at d < 2 sufficient_large_L falls with L
        with pytest.raises(ValueError,
                           match="the search needs d >= 2 and alpha > 0"):
            min_scale_for_probability(d, alpha, 0.2, kappa=0.9, eta=0.5, c=1.0)

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([2, 3]),
           alpha=st.floats(0.05, 3.0),
           q=st.floats(-1.0, 3.0),
           kappa=st.floats(0.01, 1.0),
           eta=st.floats(0.01, 2.0),
           c=st.floats(0.01, 10.0))
    def test_smallest_scale_is_the_first_true_verdict(self, d, alpha, q,
                                                       kappa, eta, c):
        L0 = min_scale_for_probability(d, alpha, q, kappa, eta, c)
        if L0 is None:
            return
        assert ledger_verdict(d, L0, alpha, q, kappa, eta, c)
        assert not any(ledger_verdict(d, L, alpha, q, kappa, eta, c)
                       for L in range(max(3, L0 - 200), L0))

    def test_cell_count_line_is_exact_in_integers(self):
        # M = (2L - 1)^3 < (2L)^3, but ln M rounds above 3 (ln 2 + ln L)
        L = 32331189578227200
        assert select_scale(L, 0.054) == 1
        assert math.log((2 * L - 1) ** 3) > 3 * (math.log(2.0) + math.log(L))
        ledger = build_ledger(3, L, 0.054, 0.1, 0.99, 0.5, 1.0)
        line = next(ln for ln in ledger.lines
                    if ln.name == "cell_count_vs_doubled_box")
        assert line.holds
        assert line.rhs == math.log((2 * L) ** 3)


RISING = {"sufficient_large_L", "lifting_at_selected_scale",
          "lifting_scale_free"}
FALLING = {"per_cell_failure_vs_target", "union_bound_vs_target"}


class TestLedgerLinesWithinABand:
    """Among the L of one selected scale each ledger line is monotone in L,
    and the verdict rises: the search bisects on it band by band."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 3]),
           u=st.floats(math.log(3.0), 69.0),
           v=st.floats(0.0, 3.0),
           alpha=st.floats(0.05, 3.0),
           q=st.floats(0.0, 3.0),
           kappa=st.floats(0.01, 1.0),
           eta=st.floats(0.01, 2.0),
           c=st.floats(0.01, 10.0))
    def test_each_line_keeps_its_direction(self, d, u, v, alpha, q, kappa,
                                           eta, c):
        # L < L2 <= 10^30 with one l: a rising line's margin rhs - lhs does
        # not fall, a falling one's does not rise, every other line holds
        L = max(3, int(math.exp(u)))
        L2 = max(L + 1, int(math.exp(min(u + v, 69.0))))
        try:
            low, high = (build_ledger(d, x, alpha, q, kappa, eta, c)
                         for x in (L, L2))
        except ScaleWindowError:
            return
        if low.l != high.l:
            return
        for a, b in zip(low.lines, high.lines):
            rise = b.rhs - b.lhs - (a.rhs - a.lhs)
            if math.isnan(rise):   # an infinite margin at kappa = 1
                rise = 0.0
            tol = 1e-12 * (1.0 + abs(a.lhs) + abs(a.rhs))
            if a.name in RISING:
                assert rise >= -tol and (b.holds or not a.holds), a.name
            elif a.name in FALLING:
                assert rise <= tol and (a.holds or not b.holds), a.name
            else:
                assert a.holds and b.holds, a.name
        assert high.verdict or not low.verdict

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]),
           L=st.integers(3, 10 ** 300),
           alpha=st.floats(0.01, 5.0),
           q=st.floats(-5.0, 10.0),
           kappa=st.floats(0.001, 1.0),
           eta=st.floats(0.01, 2.0),
           c=st.floats(0.01, 10.0))
    def test_sufficient_condition_implies_the_target_lines(self, d, L, alpha,
                                                           q, kappa, eta, c):
        # so the falling lines never decide a verdict
        try:
            ledger = build_ledger(d, L, alpha, q, kappa, eta, c)
        except ScaleWindowError:
            return
        holds = {line.name: line.holds for line in ledger.lines}
        if holds["sufficient_large_L"]:
            assert all(holds[name] for name in FALLING)

