import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab import eigensolve, ise, rng
from iselab.eigensolve import (TOL_EIG, background_spectrum, count_below,
                               min_eig_above)
from iselab.errors import GapNotFoundError
from iselab.events import (EventSpec, cell_choice, cell_hits,
                           event_A_indicator, select_scale)
from iselab.grid import GridSpec, assemble_schrodinger, laplacian_eigenvalues
from iselab.ise import (ExperimentPlan, TrialContext, band_edge_of_background,
                        estimate_ise_probability, ids_estimate, run_ise_trial)
from iselab.potentials import (PotentialModel, load_model,
                               sample_configuration, zero_potential)
from iselab.reference import (REFERENCE_ALPHA, REFERENCE_GAP_HINT,
                              REFERENCE_SEED, reference_model_spec,
                              reference_plan)
from iselab.ucp import equidistributed_from_event


def bernoulli_model(p):
    return {"G": 1.0,
            "V0": {"kind": "zero"},
            "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
            "disorder": {"kind": "bernoulli", "p": p, "eta": 0.5}}


class TestBandEdge:
    def test_hint_below_the_spectrum_raises(self):
        grid = GridSpec(dimension=2, side=4.0, spacing=0.25,
                        boundary="periodic")
        with pytest.raises(GapNotFoundError):
            band_edge_of_background(grid, zero_potential(), hint=-1.0)

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
    return TrialContext.build(load_model(model_spec), grid, b=b,
                              width=float(L) ** (-alpha))


class TestSingleTrial:
    def test_full_couplings_lift_clears_window(self):
        out = run_ise_trial(box_context(bernoulli_model(1.0), 4, 0.9), 0)
        # every site fires, so the ground state moves well above 4^-0.9
        assert out["valid"] and out["outcome"]
        assert out["window_count"] == 0

    def test_zero_couplings_reduce_to_background(self):
        out = run_ise_trial(box_context(bernoulli_model(1e-12), 4, 0.5), 0)
        # the background periodic Laplacian has its ground state at b, well
        # below the upper window edge 4^-0.5
        assert out["window_count"] == 1
        assert not out["outcome"]
        assert not out["borderline"]

    def test_window_narrower_than_tol_eig_is_borderline(self):
        # width 4^-alpha = TOL_EIG / 2: the ground state at b lies within
        # TOL_EIG of the upper window edge
        alpha = math.log(2e8) / math.log(4.0)
        out = run_ise_trial(box_context(bernoulli_model(1e-12), 4, alpha), 0)
        assert out["valid"]
        assert out["window_count"] == 1
        assert not out["outcome"]
        assert out["borderline"]

    def test_vanishing_window_is_vacuously_clear(self):
        out = run_ise_trial(box_context(bernoulli_model(1.0), 4, 200.0), 0)
        assert out["outcome"]


def public_path_record(model, grid, spec, b, width, seed):
    """One trial rebuilt from the public assembly and counting calls.

    V_omega is summed profile by profile here, not read from U @ omega.
    """
    sites = sorted(set(model.sites_for(grid)) | set(spec.required_sites()))
    cfg = sample_configuration(seed, sites, model.disorder)
    profiles = model.profiles_for(grid)
    v0_nodes = model.background.evaluate(grid.nodes())
    v_omega = np.zeros(grid.num_points)
    for p in profiles:
        idx = grid.nodes_within_ball(p.ball_center, p.support_radius)
        if idx.size:
            v_omega[idx] += cfg[p.site] * p.evaluate(grid.nodes()[idx])
    h = assemble_schrodinger(grid, v0_nodes + v_omega)
    below = count_below(h, b - TOL_EIG)
    count = count_below(h, b + width) - below
    record = {"seed": seed, "valid": True, "outcome": count == 0,
              "window_count": count,
              "borderline": (count != 0 and
                             count_below(h, b + width - TOL_EIG) == below),
              "event": event_A_indicator(cfg, spec), "observed_lift": None}
    if record["event"]:
        _, mask = equidistributed_from_event(cfg, spec, profiles, grid)
        v_test = np.zeros(grid.num_points)
        v_test[mask] = model.disorder.eta * model.coupling_floor
        h_pert = assemble_schrodinger(grid, v0_nodes + v_test)
        record["observed_lift"] = min_eig_above(h_pert, b) - b
    return record, cfg, h


def reference_box(L, trials=8):
    """(context, seeds) of the reference plan's first box size, here at L."""
    model = load_model(reference_model_spec())
    grid = GridSpec(dimension=2, side=float(L), spacing=1.0 / 9,
                    boundary="periodic")
    _, b = band_edge_of_background(grid, model.background,
                                   hint=REFERENCE_GAP_HINT)
    spec = EventSpec(dimension=2, l=select_scale(L, REFERENCE_ALPHA), L=L,
                     eta=model.disorder.eta, kappa=model.disorder.kappa)
    ctx = TrialContext.build(model, grid, spec, b,
                             float(L) ** (-REFERENCE_ALPHA))
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
        # the lift is about 0.2995: below w = 6^-0.6 ~ 0.341, so no L = 6
        # trial is certified; above w = 8^-0.6 ~ 0.287, so L = 8 event
        # trials are, and the public path counts their H_omega instead
        certified = {}
        for ctx, seeds in (reference_context, reference_box(8)):
            events = certified[ctx.grid.side] = 0
            for seed in seeds:
                want, cfg, h = public_path_record(ctx.model, ctx.grid,
                                                  ctx.event_spec, ctx.b,
                                                  ctx.width, seed)
                record = run_ise_trial(ctx, seed)
                assert_records_match(record, want)
                assert (ctx.hamiltonian(cfg) != h).nnz == 0
                events += bool(want["event"])
                certified[ctx.grid.side] += record.lift_certified
            assert events >= 1
        assert certified[6.0] == 0 and certified[8.0] >= 1

    def test_pickled_context_gives_the_same_records(self, reference_context):
        ctx, seeds = reference_context
        clone = pickle.loads(pickle.dumps(ctx))
        assert [run_ise_trial(clone, s) for s in seeds[:4]] == \
            [run_ise_trial(ctx, s) for s in seeds[:4]]


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
        return TrialContext.build(model, grid, event, b,
                                  float(self.L) ** (-REFERENCE_ALPHA))

    def seeds(self, count):
        return [rng.derive_seed(REFERENCE_SEED, rng.TRIAL_STREAM, (0, t))
                for t in range(count)]

    def assert_public_path(self, ctx, seeds):
        for seed in seeds:
            want, _, _ = public_path_record(ctx.model, ctx.grid,
                                            ctx.event_spec, ctx.b,
                                            ctx.width, seed)
            assert run_ise_trial(ctx, seed) == want

    def test_reference_gap_is_certified(self):
        ctx = self.context(reference_model_spec(), "gap")
        # s = 1 against a gap about 20 wide: the count is the background's
        below = int(np.sum(background_spectrum(ctx.grid, ctx.model.background)
                           .values < ctx.b))
        assert ctx.certified_below == below > 0

    def test_bottom_mode_certifies_trivially(self):
        ctx = self.context(reference_model_spec(), "bottom")
        assert ctx.certified_below == 0
        self.assert_public_path(ctx, self.seeds(4))

    def test_coupling_larger_than_the_gap_is_refused(self):
        spec = reference_model_spec()
        spec["single_site"]["c"] = 40.0
        ctx = self.context(spec, "gap")
        assert ctx.certified_below is None
        self.assert_public_path(ctx, self.seeds(4))

    def test_estimate_records_the_certificate(self):
        for c, certified in ((1.0, True), (40.0, False)):
            spec = reference_model_spec()
            spec["single_site"]["c"] = c
            plan = ExperimentPlan(
                model=spec, L_values=(self.L,), alpha=REFERENCE_ALPHA, q=1.0,
                trials=2, master_seed=REFERENCE_SEED,
                band_edge_hint=REFERENCE_GAP_HINT)
            per_L = estimate_ise_probability(plan).to_json()["per_L"]
            assert per_L[0]["lower_count_certified"] is certified

    def test_one_background_spectrum_per_box_size(self, monkeypatch):
        calls = []
        real = ise.background_spectrum

        def spy(*args, **kwargs):
            calls.append(args[0].side)
            return real(*args, **kwargs)

        monkeypatch.setattr(ise, "background_spectrum", spy)
        plan = ExperimentPlan(
            model=reference_model_spec(), L_values=(4, self.L),
            alpha=REFERENCE_ALPHA, q=1.0, trials=1,
            master_seed=REFERENCE_SEED, band_edge_hint=REFERENCE_GAP_HINT)
        estimate_ise_probability(plan)
        assert calls == [4.0, float(self.L)]

    def test_certified_trial_factorizes_once(self, monkeypatch):
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        ctx = self.context(reference_model_spec(), "gap")
        # the event lift is solved once per box size; warm it up so that
        # only H_omega's factorizations are counted below
        for seed in self.seeds(8):
            run_ise_trial(ctx, seed)
        monkeypatch.setattr(eigensolve, "splu", spy)
        outcomes = []
        for seed in self.seeds(8):
            factorizations.clear()
            record = run_ise_trial(ctx, seed)
            outcomes.append(record["outcome"])
            # borderline takes a second count only on a failed window
            assert len(factorizations) == (1 if record["outcome"] else 2)
        assert True in outcomes and False in outcomes


class OverclaimingModel(PotentialModel):
    """The reference model's bumps, which are c = 1 on their balls, with a
    claimed floor of 2: eta c chi_S then lies above V_omega."""

    @property
    def coupling_floor(self):
        return 2.0 * self.site_params[0]


class TestLiftCertificate:
    def test_overclaimed_floor_takes_the_counted_path(self):
        ctx, seeds = reference_box(6, trials=12)
        model = OverclaimingModel(**vars(ctx.model))
        ctx = TrialContext.build(model, ctx.grid, ctx.event_spec, ctx.b,
                                 ctx.width)
        lifted, failed = 0, 0
        for seed in seeds:
            want, _, _ = public_path_record(model, ctx.grid, ctx.event_spec,
                                            ctx.b, ctx.width, seed)
            record = run_ise_trial(ctx, seed)
            assert_records_match(record, want)
            assert not record.lift_certified
            if record["event"]:
                # the doubled test operator clears the window, so only the
                # node-wise check V_omega >= eta c chi_S refuses the lift
                cells, hits = cell_hits(
                    sample_configuration(seed, ctx.sites, model.disorder),
                    ctx.event_spec)
                choice = tuple(map(tuple, cell_choice(cells, hits).tolist()))
                top = ise.event_lift(model, ctx.grid, ctx.event_spec, ctx.b,
                                     ctx.width, choice)[2]
                lifted += top == ctx.certified_below
                failed += not record["outcome"]
        assert lifted >= 1 and failed >= 1

    def test_one_lift_solve_per_box_size(self, monkeypatch):
        solves, factorizations = [], []
        real_eigsh, real_splu = eigensolve.eigsh, eigensolve.splu

        def eigsh_spy(*args, **kwargs):
            solves.append(1)
            return real_eigsh(*args, **kwargs)

        def splu_spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        ise.event_lift.cache_clear()
        monkeypatch.setattr(eigensolve, "eigsh", eigsh_spy)
        monkeypatch.setattr(eigensolve, "splu", splu_spy)
        plan = ExperimentPlan(
            model=reference_model_spec(), L_values=(8,),
            alpha=REFERENCE_ALPHA, q=1.0, trials=10,
            master_seed=REFERENCE_SEED, band_edge_hint=REFERENCE_GAP_HINT)
        per = estimate_ise_probability(plan).per_L[0]
        assert per.event_count >= 2 and per.lift_certified >= 2
        assert len(solves) == 1
        # the lift's factor and its count at b + w, then H_omega's counts
        # on every trial the lift did not settle
        counted = [r for r in per.trial_records if not r.lift_certified]
        assert len(factorizations) == 2 + sum(
            1 if r["outcome"] else 2 for r in counted)


class TestPlan:
    def test_plan_validation(self):
        with pytest.raises(ValueError, match="L_values"):
            ExperimentPlan(model={}, L_values=(), alpha=0.5, q=1.0,
                           trials=4, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentPlan(model={}, L_values=(6, 3), alpha=0.5, q=1.0,
                           trials=4, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentPlan(model={}, L_values=(3, 6), alpha=1.5, q=1.0,
                           trials=4, master_seed=0)

    def test_from_json_round_trip(self):
        spec = {"model": reference_model_spec(), "L_values": [6, 9],
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
        rec = ids_estimate(bernoulli_model(0.5), L=3, E_grid=[-2.0, -1.0],
                           trials=2, seed=0, reference_energy=-2.0,
                           points_per_unit=6)
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
        rec = ids_estimate(model, L=4, E_grid=e_grid, trials=1, seed=0,
                           reference_energy=0.0, points_per_unit=6)
        for e, n in zip(e_grid, rec.counting):
            assert n == pytest.approx(np.sum(closed <= e) / 16.0, abs=1e-9)

    def test_counting_is_monotone_and_statistic_guarded(self):
        rec = ids_estimate(bernoulli_model(0.5), L=3,
                           E_grid=[0.0, 1.0, 2.0, 4.0], trials=3, seed=1,
                           reference_energy=0.0, points_per_unit=6)
        assert all(b >= a for a, b in zip(rec.counting, rec.counting[1:]))
        for n, stat in zip(rec.counting, rec.double_log):
            diff = n - rec.counting[0]
            if not 0.0 < diff < 1.0:
                assert stat is None


# the free model and `ids` input of the benchmark's diagnostics workload
FREE_MODEL = {"G": 1.0, "V0": {"kind": "zero"},
              "single_site": {"kind": "ball_indicator", "c": 1.0,
                              "delta": 0.25},
              "disorder": {"kind": "uniform01", "eta": 0.5, "kappa": 0.5}}
DISORDER_KINDS = (
    {"kind": "uniform01", "eta": 0.5, "kappa": 0.5},
    {"kind": "bernoulli", "p": 1e-12, "eta": 0.5},
    {"kind": "bernoulli", "p": 0.5, "eta": 0.5},
    {"kind": "truncated", "values": [0.0, 0.5, 1.0],
     "probs": [0.3, 0.4, 0.3], "eta": 0.5},
)


def per_energy_counts(h, energies, weyl=None):
    return [count_below(h, e) for e in energies]


class TestCountsOnGrid:
    """eigensolve.counts_below, the Weyl bracket and the grid bisection."""

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
        ctx = TrialContext.build(model, grid)
        h = ctx.hamiltonian(sample_configuration(
            data.draw(st.integers(0, 2 ** 32)), ctx.sites, model.disorder))
        values = background_spectrum(grid, model.background).values
        s = ise.coupling_envelope(ctx.site_matrix)
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
        want = per_energy_counts(h, energies)
        assert eigensolve.counts_below(h, energies, (values, s)) == want
        assert eigensolve.counts_below(h, energies) == want

    def test_weyl_bracket_holds_and_closes(self):
        model = load_model(FREE_MODEL)
        ctx = TrialContext.build(model, GridSpec(
            dimension=2, side=3.0, spacing=1.0 / 9, boundary="periodic"))
        values = background_spectrum(ctx.grid, model.background).values
        s = ise.coupling_envelope(ctx.site_matrix)
        assert s == pytest.approx(1.0)   # disjoint unit balls
        h = ctx.hamiltonian(sample_configuration(7, ctx.sites, model.disorder))
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
        with pytest.raises(ValueError):
            eigensolve.counts_below(np.diag([0.0, 1.0, 2.0]), [1.0, 0.0])

    def test_ids_makes_at_most_half_the_per_energy_counts(self, monkeypatch):
        factorizations = []
        real_splu = eigensolve.splu

        def spy(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        def ids(L):
            return ids_estimate(FREE_MODEL, L, list(np.linspace(0, 6, 25)),
                                trials=3, seed=20260824, reference_energy=0.0)

        monkeypatch.setattr(eigensolve, "splu", spy)
        got = [ids(L) for L in (3.0, 4.0)]
        fewest = len(factorizations)
        factorizations.clear()
        monkeypatch.setattr(ise, "counts_below", per_energy_counts)
        want = [ids(L) for L in (3.0, 4.0)]
        assert got == want
        assert len(factorizations) >= 2 * 3 * 25
        assert fewest <= len(factorizations) // 2


class TestReferencePlanShape:
    def test_reference_plan_is_well_formed(self):
        plan = reference_plan()
        assert plan.L_values == (6, 9, 12)
        assert 0 < plan.alpha < 1
        assert plan.trials == 200
        model = load_model(plan.model)
        assert model.disorder.kappa >= 0.99
