import dataclasses
import importlib.util
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from iselab import eigensolve, ise, potentials, rng
from iselab.eigensolve import (TOL_EIG, background_spectrum, count_below,
                               enclosure, min_eig_above)
from iselab.errors import GapNotFoundError, SolverError
from iselab.events import EventSpec, event_choice, select_scale
from iselab.grid import GridSpec, assemble_schrodinger
from iselab.ise import (ExperimentPlan, TrialContext, band_edge_of_background,
                        estimate_ise_probability, ids_estimate, run_ise_trial,
                        trial_records, window_floor)
from iselab.potentials import (DisorderConfiguration, DisorderDistribution,
                               load_model, zero_potential)

from conftest import (MODELS, event_ball_mask, laplacian_eigenvalues,
                      reference_plan, shipped)

PLAN = reference_plan()
REFERENCE_ALPHA = PLAN.alpha
REFERENCE_GAP_HINT = PLAN.band_edge_hint
REFERENCE_SEED = PLAN.master_seed


def bernoulli_model(p):
    return {"G": 1.0,
            "V0": {"kind": "zero"},
            "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
            "disorder": {"kind": "bernoulli", "p": p, "eta": 0.5}}


class TestBandEdge:
    def test_hint_below_the_spectrum_raises(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        with pytest.raises(GapNotFoundError,
                           match="outside the computed spectrum"):
            band_edge_of_background(grid, zero_potential(), hint=-1.0)

    def test_unknown_mode_raises(self):
        # a typo once ran gap mode silently
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        with pytest.raises(ValueError, match="unknown band_edge mode 'botom'"):
            band_edge_of_background(grid, zero_potential(), hint=1.0,
                                    mode="botom")

    def test_gap_endpoints_match_dense_diagonalization(self, gapped_model,
                                                       dense_eigvals):
        for boundary in ("periodic", "dirichlet", "neumann"):
            grid = GridSpec(dimension=2, side=3.0, spacing=1.0 / 9,
                            boundary=boundary)
            a, b = band_edge_of_background(grid, gapped_model.background,
                                           hint=REFERENCE_GAP_HINT)
            vals = dense_eigvals(assemble_schrodinger(
                grid, gapped_model.background.evaluate(grid.nodes())))
            below = vals[vals < REFERENCE_GAP_HINT]
            above = vals[vals >= REFERENCE_GAP_HINT]
            assert a == pytest.approx(below.max(), abs=1e-9)
            assert b == pytest.approx(above.min(), abs=1e-9)
            bottom = band_edge_of_background(grid, gapped_model.background,
                                             mode="bottom")
            assert bottom == (-math.inf, pytest.approx(vals.min(), abs=1e-9))

    def test_bottom_mode_returns_ground_state_edge(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        a, b = band_edge_of_background(grid, zero_potential(), hint=None,
                                       mode="bottom")
        assert a == -math.inf
        assert b == pytest.approx(0.0, abs=1e-10)


def box_context(model_spec, L, alpha, b=0.0, points_per_unit=8):
    grid = GridSpec(dimension=2, side=float(L), spacing=1.0 / points_per_unit,
                    boundary="periodic")
    return TrialContext(load_model(model_spec), grid, None, b,
                        float(L) ** (-alpha))


def one_trial(ctx, seed):
    """run_ise_trial of `seed` with the box's floor, counted afresh."""
    return run_ise_trial(ctx, window_floor(ctx), seed)


class TestSingleTrial:
    def test_full_couplings_lift_clears_window(self):
        out = one_trial(box_context(bernoulli_model(1.0), 4, 0.9), 0)
        # every site fires, so the ground state moves well above 4^-0.9
        assert out["valid"] and out["outcome"]
        assert out["window_count"] == 0

    def test_zero_couplings_reduce_to_background(self):
        out = one_trial(box_context(bernoulli_model(1e-12), 4, 0.5), 0)
        # the background periodic Laplacian has its ground state at b, well
        # below the upper window edge 4^-0.5
        assert out["window_count"] == 1
        assert not out["outcome"]
        assert not out["borderline"]

    def test_window_narrower_than_tol_eig_is_borderline(self):
        # width 4^-alpha = TOL_EIG / 2: the ground state at b lies within
        # TOL_EIG of the upper window edge
        alpha = math.log(2e8) / math.log(4.0)
        out = one_trial(box_context(bernoulli_model(1e-12), 4, alpha), 0)
        assert out["valid"]
        assert out["window_count"] == 1
        assert not out["outcome"]
        assert out["borderline"]

    def test_vanishing_window_is_vacuously_clear(self):
        out = one_trial(box_context(bernoulli_model(1.0), 4, 200.0), 0)
        assert out["outcome"]


def public_path_record(model, grid, spec, b, width, seed, cfg=None):
    """One trial rebuilt from the public assembly and counting calls.

    V_omega is summed site by site here, not read from U @ omega.
    The couplings are `cfg`, by default the seed's DisorderConfiguration.
    """
    if cfg is None:
        cfg = DisorderConfiguration(seed, model.disorder)
    profile, sites = model.profile, model.sites_for(grid)
    v0_nodes = model.background.evaluate(grid.nodes())
    v_omega = np.zeros(grid.num_points)
    for site in sites:
        center = model.period * site
        idx = grid.nodes_within_balls([center], profile.support_radius)[1]
        if idx.size:
            v_omega[idx] += cfg[site] * profile.evaluate(
                grid.nodes()[idx] - center)
    h = assemble_schrodinger(grid, v0_nodes + v_omega)
    below = count_below(h, b - TOL_EIG)
    count = count_below(h, b + width) - below
    record = {"seed": seed, "valid": True, "outcome": count == 0,
              "window_count": count,
              "borderline": (count != 0 and
                             count_below(h, b + width - TOL_EIG) == below),
              "event": event_choice(cfg, spec) is not None,
              "observed_lift": None}
    if record["event"]:
        mask = event_ball_mask(cfg, spec, profile, sites, grid)
        v_test = np.zeros(grid.num_points)
        v_test[mask] = model.disorder.eta * model.coupling_floor
        h_pert = assemble_schrodinger(grid, v0_nodes + v_test)
        record["observed_lift"] = min_eig_above(
            h_pert, b, v_test,
            background_spectrum(grid, model.background)) - b
    return record, cfg, h


def reference_box(L, trials=8):
    """(context, seeds) of the reference plan's first box size, here at L."""
    model = load_model(PLAN.model)
    grid = GridSpec(dimension=2, side=float(L), spacing=1.0 / 9,
                    boundary="periodic")
    _, b = band_edge_of_background(grid, model.background,
                                   hint=REFERENCE_GAP_HINT)
    spec = EventSpec(dimension=2, l=select_scale(L, REFERENCE_ALPHA), L=L,
                     eta=model.disorder.eta, kappa=model.disorder.kappa)
    ctx = TrialContext(model, grid, spec, b, float(L) ** (-REFERENCE_ALPHA))
    seeds = [rng.derive_seed(REFERENCE_SEED, rng.TRIAL_STREAM, (0, t))
             for t in range(trials)]
    return ctx, seeds


def assert_records_match(got, want):
    """Equal records, the observed lifts to 1e-12."""
    got, want = dict(got), dict(want)
    lifts = got.pop("observed_lift"), want.pop("observed_lift")
    assert got == want
    assert (lifts[0] is None) == (lifts[1] is None)
    if lifts[0] is not None:
        assert abs(lifts[0] - lifts[1]) <= 1e-12


class TestTrialContext:
    L = 6

    @pytest.fixture(scope="class")
    def reference_context(self):
        return reference_box(self.L)

    def test_trial_equals_the_public_path(self, reference_context):
        # H0 + eta W lifts the band bottom by about 0.2995: below
        # w = 6^-0.6 ~ 0.341, so the L = 6 holed floor is refused and no
        # trial is certified; above w = 8^-0.6 ~ 0.287, and so is the holed
        # floor, so L = 8 trials with at most one coupling below eta are,
        # and the public path counts their H_omega
        certified, floored = {}, {}
        for ctx, seeds in (reference_context, reference_box(8)):
            box = ctx.box
            events = certified[box.grid.side] = floored[box.grid.side] = 0
            for seed, record in zip(seeds, trial_records(ctx, seeds)):
                want, cfg, h = public_path_record(ctx.model, box.grid,
                                                  ctx.event_spec, ctx.b,
                                                  ctx.width, seed)
                assert_records_match(record, want)
                assert (box.hamiltonian(box.potential(cfg)) != h).nnz == 0
                events += bool(want["event"])
                certified[box.grid.side] += record.lift_certified
                floored[box.grid.side] += record.floor_certified
            assert events >= 1
        assert certified[6.0] == floored[6.0] == 0
        assert floored[8.0] > certified[8.0] >= 1

    def test_pickled_context_gives_the_same_records(self, reference_context):
        ctx, seeds = reference_context
        clone = pickle.loads(pickle.dumps(ctx))
        assert [one_trial(clone, s) for s in seeds[:4]] == \
            [one_trial(ctx, s) for s in seeds[:4]]


def small_context_inputs():
    """(model, grid, event_spec, b, width) of a 2 x 2 reference box, each
    built afresh."""
    model = load_model(shipped("reference_gapped"))
    grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 9,
                    boundary="periodic")
    _, b = band_edge_of_background(grid, model.background,
                                   hint=REFERENCE_GAP_HINT)
    spec = EventSpec(dimension=2, l=1, L=2, eta=model.disorder.eta,
                     kappa=model.disorder.kappa)
    return model, grid, spec, b, 2.0 ** (-REFERENCE_ALPHA)


class TestContextValue:
    def test_equal_inputs_give_equal_contexts(self):
        ctx, twin = (TrialContext(*small_context_inputs()) for _ in range(2))
        assert ctx is not twin
        for other in (twin, pickle.loads(pickle.dumps(twin))):
            assert other == ctx and hash(other) == hash(ctx)


class TestLowerCountCertificate:
    L = 6

    def context(self, spec, mode):
        model = load_model(spec)
        grid = GridSpec(dimension=2, side=float(self.L), spacing=1.0 / 9,
                        boundary="periodic")
        _, b = band_edge_of_background(grid, model.background,
                                       hint=REFERENCE_GAP_HINT, mode=mode)
        event = EventSpec(dimension=2, l=select_scale(self.L, REFERENCE_ALPHA),
                          L=self.L, eta=model.disorder.eta,
                          kappa=model.disorder.kappa)
        return TrialContext(model, grid, event, b,
                            float(self.L) ** (-REFERENCE_ALPHA))

    def seeds(self, count):
        return [rng.derive_seed(REFERENCE_SEED, rng.TRIAL_STREAM, (0, t))
                for t in range(count)]

    def assert_public_path(self, ctx, seeds):
        for seed, record in zip(seeds, trial_records(ctx, seeds)):
            want, _, _ = public_path_record(ctx.model, ctx.box.grid,
                                            ctx.event_spec, ctx.b,
                                            ctx.width, seed)
            assert record == want

    def test_reference_gap_is_certified(self):
        ctx = self.context(shipped("reference_gapped"), "gap")
        # s = 1 against a gap about 20 wide: the count is the background's
        below = int(np.sum(ctx.box.spectrum.values < ctx.b))
        assert ctx.certified_below == below > 0

    def test_bottom_mode_certifies_trivially(self):
        ctx = self.context(shipped("reference_gapped"), "bottom")
        assert ctx.certified_below == 0
        self.assert_public_path(ctx, self.seeds(4))

    def test_coupling_larger_than_the_gap_is_refused(self):
        spec = shipped("reference_gapped")
        spec["single_site"]["c"] = 40.0
        ctx = self.context(spec, "gap")
        assert ctx.certified_below is None
        self.assert_public_path(ctx, self.seeds(4))

    def test_estimate_records_the_certificate(self):
        for c, certified in ((1.0, True), (40.0, False)):
            spec = shipped("reference_gapped")
            spec["single_site"]["c"] = c
            plan = ExperimentPlan(
                model=spec, L_values=(self.L,), alpha=REFERENCE_ALPHA, q=1.0,
                trials=2, master_seed=REFERENCE_SEED,
                band_edge_hint=REFERENCE_GAP_HINT)
            per_L = estimate_ise_probability(plan).to_json()["per_L"]
            assert per_L[0]["lower_count_certified"] is certified

    def test_one_background_spectrum_per_box_size(self, monkeypatch):
        # background_spectrum is memoized: each box size computes it once,
        # and every later read (band edge, certificate) is a cache hit.
        # Each computation builds one 1D block, n = 9 L nodes per side.
        sides = []
        real = eigensolve._lap1d

        def spy(n, h, boundary):
            sides.append(n)
            return real(n, h, boundary)

        eigensolve.background_spectrum.cache_clear()
        monkeypatch.setattr(eigensolve, "_lap1d", spy)
        plan = ExperimentPlan(
            model=shipped("reference_gapped"), L_values=(4, self.L),
            alpha=REFERENCE_ALPHA, q=1.0, trials=1,
            master_seed=REFERENCE_SEED, band_edge_hint=REFERENCE_GAP_HINT)
        estimate_ise_probability(plan)
        assert sides == [9 * 4, 9 * self.L]

    def test_refused_lower_count_counts_no_floor(self, monkeypatch):
        # no floor count can match a count that is not certified
        spec = shipped("reference_gapped")
        spec["single_site"]["c"] = 40.0
        ctx = self.context(spec, "gap")
        assert ctx.certified_below is None
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", spy)
        assert window_floor(ctx) == (None, None)
        assert not factorizations

    def test_certified_trial_factorizes_once(self, monkeypatch):
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        ctx = self.context(shipped("reference_gapped"), "gap")
        # the floor is counted before the spy, so that only H_omega's
        # factorizations are counted below
        floor = window_floor(ctx)
        monkeypatch.setattr(eigensolve, "splu", spy)
        outcomes, counted = [], []
        for seed in self.seeds(48)[32:]:
            factorizations.clear()
            record = run_ise_trial(ctx, floor, seed)
            outcomes.append(record["outcome"])
            counted.append(len(factorizations))
            # borderline takes a second count only on a failed window
            assert len(factorizations) <= (1 if record["outcome"] else 2)
        assert True in outcomes and False in outcomes
        # trials 32 to 47, here 0 to 15: the enclosure decides ten before
        # any count, clearing the window of 1, 3, 4, 7 and 12 (Lehmann) and
        # putting an eigenvalue in it for 0, 2, 5, 6 and 11; it puts one in
        # the window below b + w - tol_eig of 9, 10 and 13, so they take no
        # borderline count; only 14 needs both
        assert counted == [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 2, 1]
        assert not any(outcomes[t] for t in (0, 2, 5, 6, 9, 10, 11, 13, 14))


def overclaimed_floor(ctx, eta=1.0):
    """The context with eta raised to 1 in its model and its event.

    Under the reference three-point law only one coupling in six reaches
    1, so H0 + eta W lies above almost every H_omega.
    """
    disorder = dataclasses.replace(ctx.model.disorder, eta=eta, kappa=0.166)
    model = dataclasses.replace(ctx.model, disorder=disorder)
    spec = dataclasses.replace(ctx.event_spec, eta=eta, kappa=0.166)
    return TrialContext(model, ctx.grid, spec, ctx.b, ctx.width)


class TestLiftCertificate:
    def test_overclaimed_floor_takes_the_counted_path(self):
        # at L = 6 a floor with eta = 1 clears the window, so only the
        # node-wise check against it sends these trials to their own count
        ctx, seeds = reference_box(6, trials=12)
        ctx = overclaimed_floor(ctx)
        assert window_floor(ctx)[0] is not None
        failed = 0
        for seed, record in zip(seeds, trial_records(ctx, seeds)):
            want, _, _ = public_path_record(ctx.model, ctx.box.grid,
                                            ctx.event_spec, ctx.b, ctx.width,
                                            seed)
            assert_records_match(record, want)
            assert not record.floor_certified
            failed += not record["outcome"]
        assert failed >= 1

    def test_one_lift_solve_per_box_size(self, monkeypatch):
        solves, factorizations = [], []
        real_eigsh, real_splu = eigensolve.eigsh, eigensolve.splu

        def eigsh_spy(*args, **kwargs):
            solves.append(1)
            return real_eigsh(*args, **kwargs)

        def splu_spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "eigsh", eigsh_spy)
        monkeypatch.setattr(eigensolve, "splu", splu_spy)
        plan = ExperimentPlan(
            model=shipped("reference_gapped"), L_values=(12,),
            alpha=REFERENCE_ALPHA, q=1.0, trials=24,
            master_seed=REFERENCE_SEED, band_edge_hint=REFERENCE_GAP_HINT)
        per = estimate_ise_probability(plan).per_L[0]
        assert per.event_count >= 2 and per.lift_certified >= 2
        assert per.floor_certified > per.lift_certified
        assert len(solves) == 1
        # the lift's factor (the holed floor's enclosure decides it with no
        # count), then H_omega's counts on every trial the floor did not
        # settle: at L = 12 trials 2, 7 and 23 have two couplings below eta
        counted = [r for r in per.trial_records if not r.floor_certified]
        assert counted
        assert len(factorizations) == 1 + sum(
            1 if r["outcome"] else 2 for r in counted)

    @pytest.mark.parametrize("L", [6, 8])
    def test_reference_lift_is_twelve_shift_invert_steps(self, monkeypatch,
                                                         L):
        # the shift sits tol_gap above the lift's Ritz value, next to its
        # twofold level and far from the rest of the band: ARPACK applies
        # (H - sigma)^-1 12 times, where the shift at b - tol_eig took 31
        ctx, seeds = reference_box(L, trials=40)
        choice = next(filter(None, (event_choice(
            DisorderConfiguration(s, ctx.model.disorder), ctx.event_spec)
            for s in seeds)))
        applications = []
        real = eigensolve.LinearOperator

        def counted(shape, matvec, dtype):
            def apply(x):
                applications.append(1)
                return matvec(x)
            return real(shape, matvec=apply, dtype=dtype)

        monkeypatch.setattr(eigensolve, "LinearOperator", counted)
        lift, error = ise.event_lift(ctx, choice)
        assert error is None and lift > 0
        assert len(applications) <= 13


class TestFloorCertificate:
    @settings(max_examples=30, deadline=None)
    @given(eta=st.floats(0.05, 0.95), width=st.floats(0.01, 3.0),
           data=st.data())
    def test_floor_count_bounds_the_dense_count(self, dense_eigvals, eta,
                                                width, data):
        # omega_j >= eta on every site gives V_omega >= eta W node by node,
        # so by min-max no H_omega has more eigenvalues below b + width
        # than H0 + eta W; where a floor clears the window (the holed one
        # lies below eta W), none is in it
        model = dataclasses.replace(
            load_model(shipped("reference_gapped")),
            disorder=DisorderDistribution("uniform01", eta,
                                          min(0.5, 1.0 - eta)))
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 9,
                        boundary="periodic")
        _, b = band_edge_of_background(grid, model.background,
                                       hint=REFERENCE_GAP_HINT)
        ctx = TrialContext(model, grid, None, b, width)
        box = ctx.box
        floor = eta * box.w
        omega = data.draw(st.lists(st.floats(eta, 1.0), min_size=len(box.sites),
                                   max_size=len(box.sites)))
        v_omega = box.matrix @ np.array(omega)
        assume(np.all(v_omega >= floor))
        top = b + width
        count = np.sum(dense_eigvals(box.hamiltonian(v_omega)) < top)
        assert count <= np.sum(dense_eigvals(box.hamiltonian(floor)) < top)
        if window_floor(ctx)[0] is not None:
            assert count == ctx.certified_below

    def test_refused_floor_counts_every_trial(self, monkeypatch):
        # at L = 6 the holed floor has 38 eigenvalues below b + w against
        # the certified 36: its enclosure closes on 38, so it is refused
        # without a count, and every trial counts its own H_omega
        ctx, seeds = reference_box(6)
        assert ctx.certified_below == 36
        floor, counted = floor_counts(monkeypatch, ctx)
        assert (floor, counted) == ((None, None), 0)
        assert not any(run_ise_trial(ctx, floor, s).floor_certified
                       for s in seeds)

    def test_floor_is_counted_once_per_box_size(self, monkeypatch):
        # a serial estimate checks each box's floor once, whatever its trial
        # count: at L = 4 the enclosure refuses it without a count; the L = 8
        # box translates, so its floor is the holed one, whose enclosure
        # stays open at b + w: it takes its one count
        counts, floors = [], []
        real_count, real_floor = eigensolve.count_below, ise.window_floor

        def count_spy(*args):
            counts.append(args)
            return real_count(*args)

        def floor_spy(ctx):
            start = len(counts)
            floor = real_floor(ctx)
            floors.append((ctx.grid.side, floor[1] is not None,
                           len(counts) - start))
            return floor

        monkeypatch.setattr(eigensolve, "count_below", count_spy)
        monkeypatch.setattr(ise, "window_floor", floor_spy)
        per_L = estimate_ise_probability(
            reference_plan(L_values=(4, 8), trials=12)).per_L
        assert floors == [(4.0, False, 0), (8.0, True, 1)]
        assert [p.floor_certified > 0 for p in per_L] == [False, True]

    @pytest.mark.parametrize("L, counts", [(8, 1), (9, 0), (10, 0), (12, 0)])
    def test_reference_floor_counts(self, monkeypatch, L, counts):
        # every reference holed floor clears the window; Lehmann at the
        # widest background gap in [J0, 2 J0] closes its bracket at b + w
        # on the certified count from L = 9 on, while at L = 8 the bracket
        # stays open and the floor takes its one count
        ctx, _ = reference_box(L)
        floor, counted = floor_counts(monkeypatch, ctx)
        assert floor[0] is not None and floor[1] is not None
        assert counted == counts

    def test_floor_that_cannot_be_counted_is_refused(self, monkeypatch):
        # the L = 8 floor's enclosure stays open at b + w, so it is counted
        ctx, _ = reference_box(8)

        def fail(*args):
            raise SolverError("no trusted LDL^T factor")

        monkeypatch.setattr(eigensolve, "count_below", fail)
        assert window_floor(ctx)[0] is None

    def test_floor_decided_trial_factorizes_nothing(self, monkeypatch):
        # trials 2 and 7 have two couplings below eta, and their enclosure
        # leaves the count at b + w open
        ctx, seeds = reference_box(12, trials=8)
        floor = window_floor(ctx)
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", spy)
        eta = ctx.model.disorder.eta
        decided, one_low = 0, 0
        for seed in seeds:
            factorizations.clear()
            record = run_ise_trial(ctx, floor, seed)
            low = np.count_nonzero(
                DisorderConfiguration(seed, ctx.model.disorder)[ctx.box.sites]
                < eta)
            # the holed floor clears at L = 12: it decides every |Z| <= 1
            assert record.floor_certified == (low <= 1)
            if record.floor_certified:
                assert not factorizations
                assert (record["window_count"], record["outcome"],
                        record["borderline"]) == (0, True, False)
                decided += 1
                one_low += low == 1
            else:
                assert factorizations
        assert 1 <= decided < len(seeds)
        assert one_low >= 1

    def test_pool_maps_each_lift_then_every_seed(self, monkeypatch):
        mapped = []

        class SerialPool(ise.ProcessPoolExecutor):
            def map(self, fn, items, chunksize=1):
                mapped.append((fn, list(items)))
                return map(fn, mapped[-1][1])

        monkeypatch.setattr(ise, "ProcessPoolExecutor", SerialPool)
        plan = reference_plan(L_values=(8,), trials=12)
        serial = estimate_ise_probability(plan).per_L[0]
        pooled = estimate_ise_probability(
            dataclasses.replace(plan, workers=2)).per_L[0]
        assert pooled.trial_records == serial.trial_records
        flags = [r["event"] for r in serial.trial_records]
        seeds = [r["seed"] for r in serial.trial_records]
        assert True in flags and False in flags
        (lift, choices), (floor_task, [ctx]), (count, counted) = mapped
        # at l = 1 every event trial makes the same choice: one lift
        want = {event_choice(DisorderConfiguration(s, ctx.model.disorder),
                             ctx.event_spec) for s in seeds} - {None}
        assert lift.func is ise.event_lift and lift.args == (ctx,)
        assert len(want) == 1 and choices == list(want)
        # the trials get the floor the one floor task returned
        assert floor_task is ise.window_floor
        floor, shifts = window_floor(ctx)
        assert count.func is ise.run_ise_trial and count.args[0] is ctx
        assert np.array_equal(count.args[1][0], floor)
        assert np.array_equal(count.args[1][1], shifts)
        assert counted == seeds

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_box_size_maps_one_floor(self, monkeypatch, workers):
        # per box size the parent maps the lifts, then the floor, one task,
        # and the trials only with the floor back; in a pool run the parent
        # counts nothing itself, the floor included
        mapped, parent_counts = [], []
        real_map, real_count = ise.serial_map, eigensolve.count_below

        def spy_map(fn, items):
            mapped.append((fn, list(items)))
            return real_map(fn, mapped[-1][1])

        class SpyPool(ise.ProcessPoolExecutor):
            def map(self, fn, items, chunksize=1):
                mapped.append((fn, list(items)))
                return super().map(fn, mapped[-1][1], chunksize=chunksize)

        def count_spy(*args):
            parent_counts.append(args)
            return real_count(*args)

        monkeypatch.setattr(ise, "serial_map", spy_map)
        monkeypatch.setattr(ise, "ProcessPoolExecutor", SpyPool)
        # a forked worker inherits the count spy, but appends to its own list
        monkeypatch.setattr(eigensolve, "count_below", count_spy)
        per_L = estimate_ise_probability(reference_plan(
            L_values=(4, 8), trials=8, workers=workers)).per_L
        assert (workers > 1) == (not parent_counts)
        tasks = [getattr(fn, "func", fn) for fn, _ in mapped]
        assert tasks == [ise.event_lift, ise.window_floor,
                         ise.run_ise_trial] * 2
        for L, (_, [ctx]), (trial, seeds) in zip(
                (4, 8), mapped[1::3], mapped[2::3]):
            assert ctx.grid.side == L and trial.args[0] is ctx
            # the L = 4 floor is refused, the L = 8 holed floor clears
            assert (trial.args[1][0] is not None) == (L == 8)
            assert seeds == [r["seed"] for r in per_L[L // 4 - 1]
                             .trial_records]


class TestMergeRules:
    """trial_records merges each event trial's lift into its count."""

    def test_failed_lift_invalidates_the_event_trial(self, monkeypatch):
        ctx, seeds = reference_box(6)

        def fail(*args):
            raise SolverError("no converged lift")

        monkeypatch.setattr(ise, "perturbed_eigenvalue", fail)
        records = trial_records(ctx, seeds)
        assert True in [r["event"] for r in records]
        for record in records:
            if record["event"]:
                assert not record["valid"]
                assert record["error"] == "no converged lift"
                assert record["observed_lift"] is None
            else:
                assert record["valid"] and "error" not in record

    def test_failed_count_leaves_the_event_unset(self, monkeypatch):
        ctx, seeds = reference_box(6, trials=16)
        # the L = 6 floor is refused, so no trial is floor-decided; of the
        # first 16 trials, the enclosure decides all but these, which count
        assert window_floor(ctx) == (None, None)
        clean = trial_records(ctx, seeds)
        counting = [6, 8, 9, 10, 13, 15]
        assert any(event_choice(DisorderConfiguration(seeds[t],
                                                      ctx.model.disorder),
                                ctx.event_spec) for t in counting)

        def fail(*args):
            raise SolverError("no trusted LDL^T factor")

        monkeypatch.setattr(eigensolve, "count_below", fail)
        for t, record in enumerate(trial_records(ctx, seeds)):
            if t not in counting:
                assert record == clean[t] and record["valid"]
                continue
            assert not record["valid"]
            assert record["error"] == "no trusted LDL^T factor"
            assert record["event"] is None
            assert record["observed_lift"] is None


class TestBracketedCounts:
    """Every count on the ISE path is bracketed by eigensolve.enclosure
    first, and factorized only where the bracket stays open."""

    def test_matrix_is_assembled_only_for_a_count(self, monkeypatch):
        # H is built at a floor's or trial's first factorization, and only
        # then: the L = 10 holed floor and the trials with two couplings
        # below eta (2, 7, 23, 30 and 31 of the first 32) are decided by
        # their enclosure and build none; an L = 6 trial that counts twice
        # builds one
        events = []
        real_splu = eigensolve.splu
        real_assemble = potentials.assemble_schrodinger

        def splu_spy(*args, **kwargs):
            events.append("factor")
            return real_splu(*args, **kwargs)

        def assemble_spy(*args):
            events.append("assemble")
            return real_assemble(*args)

        monkeypatch.setattr(eigensolve, "splu", splu_spy)
        monkeypatch.setattr(potentials, "assemble_schrodinger", assemble_spy)
        ctx, seeds = reference_box(10, trials=32)
        floor = window_floor(ctx)
        assert floor[0] is not None and not events
        decided = [t for t, seed in enumerate(seeds)
                   if not run_ise_trial(ctx, floor, seed).floor_certified]
        assert decided == [2, 7, 23, 30, 31] and not events
        ctx, seeds = reference_box(6, trials=48)
        floor, made = window_floor(ctx), []
        for seed in seeds[32:]:
            events.clear()
            run_ise_trial(ctx, floor, seed)
            made.append((events.count("assemble"), events.count("factor")))
        assert all(a == min(f, 1) for a, f in made)
        assert (1, 2) in made and (0, 0) in made

    def test_reference_box_of_side_4_factorizes_nothing(self, monkeypatch):
        # at L = 4 the enclosure refuses the floor (it closes above the
        # certified count) and closes every trial's count at b + w
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "splu", spy)
        per = estimate_ise_probability(
            reference_plan(L_values=(4,), trials=16)).per_L[0]
        assert not factorizations
        monkeypatch.undo()
        assert per.valid == per.trials == 16 and per.floor_certified == 0
        assert per.lower_count_certified
        # the records are the exact counts'
        model = load_model(PLAN.model)
        box = model.box(GridSpec(dimension=2, side=4.0, spacing=1.0 / 9,
                                 boundary="periodic"))
        b, top = per.band_edge, per.band_edge + per.window_width
        for record in per.trial_records:
            h = box.hamiltonian(box.potential(
                DisorderConfiguration(record["seed"], model.disorder)))
            below = count_below(h, b - TOL_EIG)
            count = count_below(h, top) - below
            assert (record["window_count"], record["outcome"]) == \
                (count, count == 0)
            assert record["borderline"] == (
                count != 0 and count_below(h, top - TOL_EIG) == below)

    def test_count_outside_its_bracket_invalidates_the_record(
            self, monkeypatch):
        # trial 6 at L = 6 counts at b + w with its bracket open, trial 7
        # is decided by its enclosure (TestMergeRules)
        ctx, seeds = reference_box(6, trials=8)
        seeds = seeds[6:]
        floor = window_floor(ctx)
        clean = [run_ise_trial(ctx, floor, seed) for seed in seeds]
        real = eigensolve.count_below
        monkeypatch.setattr(eigensolve, "count_below",
                            lambda mat, sigma: real(mat, sigma) + 3)
        wrong, decided = (run_ise_trial(ctx, floor, seed) for seed in seeds)
        assert not wrong["valid"]
        assert wrong["error"] == "count outside its bracket"
        assert wrong["window_count"] is None and wrong["outcome"] is None
        assert decided == clean[1] and decided["valid"]


# periodic reference boxes (side, points per unit) small enough for the
# dense oracle: at most 400 nodes
SMALL_BOXES = [(2, p) for p in range(5, 11)] + [(3, 5), (3, 6), (4, 5)]


def small_box_context(side, points_per_unit, width, spec=None,
                      boundary="periodic"):
    """The reference model's context on a small box at the gap edge b."""
    model = load_model(spec or shipped("reference_gapped"))
    grid = GridSpec(dimension=2, side=float(side),
                    spacing=1.0 / points_per_unit, boundary=boundary)
    _, b = band_edge_of_background(grid, model.background,
                                   hint=REFERENCE_GAP_HINT)
    event = EventSpec(dimension=2, l=1, L=int(side), eta=model.disorder.eta,
                      kappa=model.disorder.kappa)
    return TrialContext(model, grid, event, b, width)


def floor_counts(monkeypatch, ctx):
    """(window_floor(ctx) counted afresh, the number of counts it made)."""
    counts = []
    real = eigensolve.count_below

    def spy(*args):
        counts.append(args)
        return real(*args)

    monkeypatch.setattr(eigensolve, "count_below", spy)
    return window_floor(ctx), len(counts)


class TestTranslatedFloor:
    """The holed floor, rolled onto the one site with omega_j < eta."""

    @settings(max_examples=30, deadline=None)
    @given(box_size=st.sampled_from(SMALL_BOXES),
           width=st.floats(0.01, 0.3), data=st.data())
    def test_certificate_holds_against_the_dense_count(
            self, dense_eigvals, config_from, box_size, width, data):
        ctx = small_box_context(*box_size, width)
        box, eta = ctx.box, ctx.model.disorder.eta
        # couplings in [eta, 1] at the box's and the event's sites, then at
        # most one live site, inside or on the boundary, below eta
        sites = np.unique(np.concatenate(
            [box.sites, ctx.event_spec.cells().reshape(-1, 2)]), axis=0)
        values = dict(zip(map(tuple, sites.tolist()), data.draw(st.lists(
            st.floats(eta, 1.0), min_size=len(sites), max_size=len(sites)))))
        low = data.draw(st.none() | st.integers(0, len(box.sites) - 1))
        if low is not None:
            values[tuple(box.sites[low].tolist())] = data.draw(
                st.floats(0.0, eta, exclude_max=True))
        cfg = config_from(values)
        with mock.patch.object(ise, "DisorderConfiguration",
                               lambda seed, dist: cfg):
            [record] = trial_records(ctx, [0])
        want, _, h = public_path_record(ctx.model, box.grid, ctx.event_spec,
                                        ctx.b, ctx.width, 0, cfg)
        assert_records_match(record, want)
        if window_floor(ctx)[1] is not None:
            # the holed floor clears: it decides every trial with |Z| <= 1
            assert record.floor_certified
        if record.floor_certified:
            vals = dense_eigvals(h)
            assert not np.any((vals >= ctx.b - TOL_EIG)
                              & (vals < ctx.b + ctx.width))

    def test_every_site_rolls_the_hole_onto_itself(self, dense_eigvals,
                                                     config_from):
        # side 2: every live site but the centre is a boundary half ball,
        # whose hole the roll wraps around the box
        ctx = small_box_context(2, 6, 0.1)
        box, eta = ctx.box, ctx.model.disorder.eta
        floor = window_floor(ctx)
        assert floor[1] is not None
        sites = [tuple(j) for j in ctx.event_spec.cells().reshape(-1, 2)
                 .tolist()]
        assert sorted(sites) == sorted(map(tuple, box.sites.tolist()))
        for low in sites:
            cfg = config_from({j: 0.0 if j == low else eta for j in sites})
            with mock.patch.object(ise, "DisorderConfiguration",
                                   lambda seed, dist: cfg):
                record = run_ise_trial(ctx, floor, 0)
            assert record.floor_certified, low
            vals = dense_eigvals(box.hamiltonian(box.potential(cfg)))
            assert np.sum(vals < ctx.b + ctx.width) == ctx.certified_below

    def test_translating_box_counts_no_plain_floor(self, monkeypatch):
        # side 2 at 9 points per unit, width 0.25: the certified count is 4
        # and the plain floor has 4 below b + w, but the box translates, so
        # its floor is the holed one, with 6: its enclosure closes on 6, so
        # it is refused without a count, and every trial counts its own
        # H_omega
        ctx = small_box_context(2, 9, 0.25)
        assert ctx.box.lattice_step == 9 and ctx.certified_below == 4
        assert floor_counts(monkeypatch, ctx) == ((None, None), 0)
        seeds = [rng.derive_seed(REFERENCE_SEED, rng.TRIAL_STREAM, (0, t))
                 for t in range(6)]
        for seed, record in zip(seeds, trial_records(ctx, seeds)):
            want, _, _ = public_path_record(ctx.model, ctx.box.grid,
                                            ctx.event_spec, ctx.b, ctx.width,
                                            seed)
            assert_records_match(record, want)
            assert not record.floor_certified

    def test_reference_boxes_translate_by_one_period(self):
        for side in (6, 9):
            box = small_box_context(side, 9, 0.1).box
            assert box.lattice_step == 9

    def test_dirichlet_and_neumann_boxes_refuse_translation(self,
                                                            monkeypatch):
        for boundary in ("dirichlet", "neumann"):
            ctx = small_box_context(2, 6, 0.1, boundary=boundary)
            assert ctx.box.lattice_step is None
            # the box does not translate: its floor is the plain one, which
            # its enclosure clears without a count
            (floor, shifts), counted = floor_counts(monkeypatch, ctx)
            assert floor is not None and shifts is None and counted == 0

    def test_period_off_the_nodes_refuses_translation(self, monkeypatch):
        # G / h = 0.75 * 5 = 3.75 nodes; the plain floor still clears
        spec = shipped("reference_gapped")
        spec["G"] = 0.75
        ctx = small_box_context(2, 5, 0.1, spec=spec)
        assert ctx.box.lattice_step is None
        (floor, shifts), counted = floor_counts(monkeypatch, ctx)
        assert floor is not None and shifts is None and counted == 0

    def test_background_that_a_roll_moves_refuses_translation(self):
        # G / h = 10 nodes, but the periodic box is 25 nodes wide: a roll by
        # 10 moves the square wave, and only the constant V0 stays put
        spec = shipped("reference_gapped")
        box = load_model(spec).box(GridSpec(dimension=2, side=2.5,
                                            spacing=0.1))
        assert box.lattice_step is None
        spec["V0"] = {"kind": "constant", "value": 3.0}
        box = load_model(spec).box(GridSpec(dimension=2, side=2.5,
                                            spacing=0.1))
        assert box.lattice_step == 10


class TestPlan:
    def test_plan_validation(self):
        with pytest.raises(ValueError, match="L_values"):
            ExperimentPlan(model={}, L_values=(), alpha=0.5, q=1.0,
                           trials=4, master_seed=0)
        with pytest.raises(ValueError, match="sorted ascending"):
            ExperimentPlan(model={}, L_values=(6, 3), alpha=0.5, q=1.0,
                           trials=4, master_seed=0)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ExperimentPlan(model={}, L_values=(3, 6), alpha=1.5, q=1.0,
                           trials=4, master_seed=0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="worker"):
                ExperimentPlan(model={}, L_values=(3, 6), alpha=0.5, q=1.0,
                               trials=4, master_seed=0, workers=workers)
        with pytest.raises(ValueError, match="band_edge mode 'botom'"):
            ExperimentPlan(model={}, L_values=(3, 6), alpha=0.5, q=1.0,
                           trials=4, master_seed=0, band_edge_mode="botom")

    def test_box_sides_are_whole(self):
        # the event's cells and the ledger count integer sites: a side of
        # 6.5 once ran its box with the event and ledger of L = 6
        with pytest.raises(ValueError, match=r"whole numbers: \[3, 6\.5\]"):
            ExperimentPlan(model={}, L_values=(3, 6.5), alpha=0.5, q=1.0,
                           trials=4, master_seed=0)
        plan = ExperimentPlan(model={}, L_values=(3.0, 6), alpha=0.5, q=1.0,
                              trials=4, master_seed=0)
        assert plan.L_values == (3, 6)
        assert all(type(L) is int for L in plan.L_values)

    def test_benchmark_restates_the_shipped_plan(self):
        # perfbench/workloads.py spells out the reference models and plan
        # fields; they must not drift from models/
        path = MODELS.parent / "perfbench" / "workloads.py"
        loader = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(workloads)
        assert workloads.REFERENCE_MODEL == shipped("reference_gapped")
        assert workloads.FREE_MODEL == shipped("free_uniform")
        plan = workloads._plan(0, [6], 1)
        for name in ("model", "alpha", "q", "points_per_unit", "boundary",
                     "band_edge"):
            assert plan[name] == shipped("reference_plan")[name], name

    def test_from_json_round_trip(self):
        spec = {"model": shipped("reference_gapped"), "L_values": [6, 9],
                "alpha": 0.6, "q": 1.0, "trials": 3, "seed": 11}
        plan = ExperimentPlan.from_json(spec)
        assert plan.L_values == (6, 9)
        assert plan.master_seed == 11


class TestEstimate:
    def test_single_deterministic_trial(self):
        plan = ExperimentPlan(
            model=bernoulli_model(1.0), L_values=(4,), alpha=0.9, q=1.0,
            trials=1, master_seed=0, points_per_unit=8,
            band_edge_mode="bottom")
        report = estimate_ise_probability(plan)
        assert report.per_L[0].p_hat in (0.0, 1.0)
        assert report.per_L[0].p_hat == 1.0

    def test_workers_do_not_change_the_report(self, monkeypatch):
        pools = []

        class CountedPool(ise.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ise, "ProcessPoolExecutor", CountedPool)
        r1 = estimate_ise_probability(reference_plan(trials=4, workers=1))
        assert pools == []
        r2 = estimate_ise_probability(reference_plan(trials=4, workers=3))
        # one pool serves every box size of the plan
        assert len(pools) == 1 and len(r2.per_L) >= 2
        assert json.dumps(r1.to_json(), sort_keys=True) == \
            json.dumps(r2.to_json(), sort_keys=True)

    def test_certain_disorder_hits_whenever_lift_clears(self):
        plan = ExperimentPlan(
            model=bernoulli_model(1.0), L_values=(4,), alpha=0.9, q=1.0,
            trials=2, master_seed=3, points_per_unit=8,
            band_edge_mode="bottom")
        report = estimate_ise_probability(plan)
        per = report.per_L[0]
        assert per.p_hat == 1.0
        assert per.event_count == per.valid   # kappa = 1: event always holds


class TestIDS:
    def test_zero_below_the_spectrum(self):
        rec = ids_estimate(load_model(bernoulli_model(0.5)), L=3,
                           E_grid=[-2.0, -1.0], trials=2, seed=0,
                           reference_energy=-2.0, points_per_unit=6)
        assert rec.counting == (0.0, 0.0)

    def test_free_laplacian_matches_closed_form_count(self):
        model = {"G": 1.0, "V0": {"kind": "zero"},
                 "single_site": {"kind": "ball_indicator",
                                 "c": 1.0, "delta": 0.45},
                 "disorder": {"kind": "bernoulli", "p": 1e-12, "eta": 0.5}}
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0 / 6,
                        boundary="periodic")
        closed = laplacian_eigenvalues(grid)
        e_grid = [0.5, 2.0, 5.0]
        rec = ids_estimate(load_model(model), L=4, E_grid=e_grid, trials=1,
                           seed=0, reference_energy=0.0, points_per_unit=6)
        for e, n in zip(e_grid, rec.counting):
            assert n == pytest.approx(np.sum(closed <= e) / 16.0, abs=1e-9)

    def test_counting_is_monotone_and_statistic_guarded(self):
        rec = ids_estimate(load_model(bernoulli_model(0.5)), L=3,
                           E_grid=[0.0, 1.0, 2.0, 4.0], trials=3, seed=1,
                           reference_energy=0.0, points_per_unit=6)
        assert all(b >= a for a, b in zip(rec.counting, rec.counting[1:]))
        for n, stat in zip(rec.counting, rec.double_log):
            diff = n - rec.counting[0]
            if not 0.0 < diff < 1.0:
                assert stat is None


# the free model and `ids` input of the benchmark's diagnostics workload
FREE_MODEL = shipped("free_uniform")
DISORDER_KINDS = (
    {"kind": "uniform01", "eta": 0.5, "kappa": 0.5},
    {"kind": "bernoulli", "p": 1e-12, "eta": 0.5},
    {"kind": "bernoulli", "p": 0.5, "eta": 0.5},
    {"kind": "truncated", "values": [0.0, 0.5, 1.0],
     "probs": [0.3, 0.4, 0.3], "eta": 0.5},
)


def per_energy_counts(build, energies, bounds=None):
    return [count_below(build(), e) for e in energies]


class TestCountsOnGrid:
    """eigensolve.counts_below, its eigenvalue bracket and the bisection."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_one_count_per_energy(self, data):
        spec = {"G": 1.0,
                "V0": data.draw(st.sampled_from((
                    {"kind": "zero"},
                    {"kind": "separable_square", "amplitude": 20.0}))),
                "single_site": data.draw(st.sampled_from((
                    {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
                    {"kind": "cone", "c": 2.0, "delta": 0.25,
                     "radius": 0.7}))),
                "disorder": data.draw(st.sampled_from(DISORDER_KINDS))}
        model = load_model(spec)
        grid = GridSpec(dimension=2, side=float(data.draw(st.integers(2, 3))),
                        spacing=1.0 / data.draw(st.integers(4, 6)),
                        boundary=data.draw(st.sampled_from(
                            ("periodic", "dirichlet", "neumann"))))
        box = model.box(grid)
        v = box.potential(DisorderConfiguration(
            data.draw(st.integers(0, 2 ** 32)), model.disorder))
        h = box.hamiltonian(v)
        values = box.spectrum.values
        s = box.envelope
        top = float(values[min(40, values.size - 1)]) + s
        # energies on background eigenvalues (where H_omega = H0 they sit on
        # its spectrum), anywhere in the range, duplicated, or a step below
        # the nudge above another
        energy = st.one_of(st.sampled_from(values[:41].tolist()),
                           st.floats(float(values[0]) - 1.0, top + 1.0))
        energies = data.draw(st.lists(energy, min_size=1, max_size=12))
        for e in list(energies):
            kind = data.draw(st.sampled_from(("keep", "duplicate", "close")))
            if kind == "duplicate":
                energies.append(e)
            elif kind == "close":
                energies.append(e + data.draw(st.integers(1, 99)) * TOL_EIG)
        energies.sort()
        want = per_energy_counts(lambda: h, energies)
        weyl = (values, values + s)
        assert eigensolve.counts_below(lambda: h, energies, weyl) == want
        bounds = enclosure(v, box.spectrum, energies[-1])
        assert eigensolve.counts_below(lambda: h, energies, bounds) == want
        open_ = (np.full(h.shape[0], -np.inf), np.full(h.shape[0], np.inf))
        assert eigensolve.counts_below(lambda: h, energies, open_) == want

    def test_weyl_bracket_holds_and_closes(self):
        model = load_model(FREE_MODEL)
        box = model.box(GridSpec(dimension=2, side=3.0, spacing=1.0 / 9,
                                 boundary="periodic"))
        values = box.spectrum.values
        s = box.envelope
        assert s == pytest.approx(1.0)   # disjoint unit balls
        h = box.hamiltonian(box.potential(
            DisorderConfiguration(7, model.disorder)))
        closed = 0
        for e in np.linspace(0.0, 6.0, 25):
            n = count_below(h, e)
            lo = np.searchsorted(values, e - s - eigensolve.TOL_GAP)
            hi = np.searchsorted(values, eigensolve._nudge(e)
                                 + eigensolve.TOL_GAP)
            assert lo <= n <= hi
            closed += lo == hi
        assert closed > 0

    def test_unsorted_energies_rejected(self):
        with pytest.raises(ValueError, match="energies must be sorted"):
            eigensolve.counts_below(lambda: np.diag([0.0, 1.0, 2.0]),
                                    [1.0, 0.0],
                                    (np.full(3, -np.inf), np.full(3, np.inf)))

    def test_bracket_that_misses_the_count_raises(self):
        h = sparse.csr_matrix(np.diag([0.0, 1.0, 2.0]))
        # two eigenvalues lie below 1.5, but the open bracket is [0, 1]
        lower, upper = np.array([0.0, 5.0, 6.0]), np.full(3, 9.0)
        with pytest.raises(SolverError) as err:
            eigensolve.counts_below(lambda: h, [1.5], (lower, upper))
        assert err.value.telemetry == {"sigma": 1.5, "count": 2,
                                       "lo": 0, "hi": 1}

    def test_count_is_counts_only_an_open_bracket_holding_k(
            self, monkeypatch):
        h = sparse.csr_matrix(np.diag([0.0, 1.0, 2.0]))
        counted = []
        real = eigensolve.count_below

        def spy(mat, sigma):
            counted.append(sigma)
            return real(mat, sigma)

        monkeypatch.setattr(eigensolve, "count_below", spy)
        weyl = (np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5]))
        # at 1.2 the bracket is [1, 2]: k = 0 lies outside it, and 1 and 2
        # are counted (two eigenvalues lie below 1.2)
        assert not eigensolve.count_is(lambda: h, 1.2, weyl, 0)
        assert not counted
        assert not eigensolve.count_is(lambda: h, 1.2, weyl, 1)
        assert counted == [1.2]
        assert eigensolve.count_is(lambda: h, 1.2, weyl, 2)
        assert len(counted) == 2
        # at 0.7 it closes on 1
        assert eigensolve.count_is(lambda: h, 0.7, weyl, 1)
        assert not eigensolve.count_is(lambda: h, 0.7, weyl, 2)
        assert len(counted) == 2

    def test_ids_makes_at_most_a_tenth_of_the_per_energy_counts(
            self, monkeypatch):
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        def ids(L):
            return ids_estimate(load_model(FREE_MODEL), L,
                                list(np.linspace(0, 6, 25)),
                                trials=3, seed=20260824, reference_energy=0.0)

        monkeypatch.setattr(eigensolve, "splu", spy)
        got = [ids(L) for L in (3.0, 4.0)]
        fewest = len(factorizations)
        factorizations.clear()
        monkeypatch.setattr(ise, "counts_below", per_energy_counts)
        want = [ids(L) for L in (3.0, 4.0)]
        assert got == want
        assert len(factorizations) >= 2 * 3 * 25
        assert fewest <= len(factorizations) // 10


class TestEnclosure:
    """eigensolve.enclosure against the dense spectrum."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_brackets_the_dense_spectrum(self, data):
        spec = {"G": 1.0,
                "V0": data.draw(st.sampled_from((
                    {"kind": "zero"},
                    {"kind": "separable_square", "amplitude": 20.0},
                    {"kind": "separable_square", "amplitude": 40.0}))),
                "single_site": data.draw(st.sampled_from((
                    {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
                    {"kind": "ball_indicator", "c": 1.0, "delta": 0.25},
                    {"kind": "cone", "c": 2.0, "delta": 0.25,
                     "radius": 0.7}))),
                "disorder": data.draw(st.sampled_from(DISORDER_KINDS))}
        model = load_model(spec)
        # at most 400 nodes: side 2 to 4, 5 to 9 points per unit
        side, per_unit = data.draw(st.sampled_from(
            [(2, p) for p in range(5, 10)] + [(3, 5), (3, 6), (4, 5)]))
        grid = GridSpec(dimension=2, side=float(side), spacing=1.0 / per_unit,
                        boundary=data.draw(st.sampled_from(
                            ("periodic", "dirichlet", "neumann"))))
        box = model.box(grid)
        v = box.potential(DisorderConfiguration(
            data.draw(st.integers(0, 2 ** 32)), model.disorder))
        values = box.spectrum.values
        top = data.draw(st.floats(float(values[0]), float(values[-1])))
        if data.draw(st.booleans()):
            lower, upper = enclosure(v, box.spectrum, top)
            assume(np.any(lower > values))      # Lehmann tightened a level
        else:
            # a spike wider than the spectrum at one node: past the
            # spectrum's width no background gap is wider than s = max V, so
            # only Rayleigh-Ritz applies
            v[data.draw(st.integers(0, v.size - 1))] += float(
                values[-1] - values[0]) + 1.0
            lower, upper = enclosure(v, box.spectrum, top)
            assert np.array_equal(lower, values)
        h = box.hamiltonian(v)
        exact = np.linalg.eigvalsh(h.toarray())
        slack = 1e-9 * (1.0 + np.abs(exact))
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)
        assert np.all(np.diff(lower) >= 0) and np.all(np.diff(upper) >= 0)


class TestReferencePlanShape:
    def test_reference_plan_is_well_formed(self):
        plan = reference_plan()
        assert plan.L_values == (6, 9, 12)
        assert 0 < plan.alpha < 1
        assert plan.trials == 200
        model = load_model(plan.model)
        assert model.disorder.kappa >= 0.99

    def test_plan_runs_the_reference_model(self):
        # the README's bands, lift and gap examples run reference_gapped.json
        assert shipped("reference_plan")["model"] == \
            shipped("reference_gapped")
