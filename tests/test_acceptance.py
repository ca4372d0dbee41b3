"""End-to-end acceptance checks.

Each test here states a quantitative claim about the laboratory as a whole
and verifies it at a fixed tolerance.  The reference experiment (three box
sizes, 200 trials each) is run once per module and shared by the
conditional-certainty and trend checks.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from iselab import rng
from iselab.cli import _event_configuration, main
from iselab.eigensolve import TOL_EIG, TOL_GAP, count_below, eigs_in_window
from iselab.errors import ScaleWindowError
from iselab.events import (EventSpec, build_ledger, event_choice,
                           exact_event_probability, min_scale_for_probability,
                           monte_carlo_event_probability, select_scale)
from iselab.grid import GridSpec, assemble_schrodinger, laplacian_matrix
from iselab.ise import estimate_ise_probability
from iselab.potentials import DisorderConfiguration, load_model, site_matrix
from iselab.ucp import (FitSample, fit_ucp_constant, lifting_experiment,
                        mass_ratio, random_subspace_vectors)

from conftest import (assemble_random_potential, event_ball_mask,
                      exact_event_log_failure, laplacian_eigenvalues,
                      min_scale_by_scan, reference_plan, shipped)

REFERENCE_SEED = reference_plan().master_seed

SWEEP_MODEL = {
    "G": 1.0,
    "V0": {"kind": "zero"},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
    "disorder": {"kind": "uniform01", "eta": 0.5},
}

LIFT_MODEL = {
    "G": 1.0,
    "V0": {"kind": "zero"},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
    "disorder": {"kind": "truncated", "values": [0.0, 0.5, 1.0],
                 "probs": [0.004, 0.83, 0.166], "eta": 0.5},
}
# Scales for the lifting sweep: one ball per cell of side l, on a box
# large enough that the l = 5 decomposition is nondegenerate.
LIFTING_SCALES = (1, 3, 5)
LIFTING_BOX = 5


@pytest.fixture(scope="module")
def reference_report():
    plan = reference_plan(workers=2)
    t0 = time.perf_counter()
    report = estimate_ise_probability(plan)
    return report, time.perf_counter() - t0


class TestEventProbabilities:
    """Criterion: Monte Carlo event rates match the product formula."""

    def test_sweep_matches_exact_probability(self):
        t0 = time.perf_counter()
        hits, cells = 0, 0
        for l in (1, 3):
            for L in (2, 6, 12):
                if l > L:
                    continue
                for kappa in (0.3, 0.5, 1.0):
                    spec = EventSpec(dimension=2, l=l, L=L, eta=0.5,
                                     kappa=kappa)
                    exact = exact_event_probability(spec)
                    p_hat, lo, hi = monte_carlo_event_probability(
                        spec, 100_000, seed=rng.derive_seed(1, 0, (l, L)))
                    if kappa == 1.0:
                        assert exact == 1.0 and p_hat == 1.0
                    se = (hi - lo) / (2 * 1.96)
                    cells += 1
                    hits += abs(p_hat - exact) <= 3 * se
        assert cells == 15   # cell sides never exceed the box side
        assert hits >= cells - 1
        assert time.perf_counter() - t0 < 60.0


class TestEigenvalueSandwich:
    """Criterion: the monotone operator chain orders every tracked level."""

    def test_hundred_random_configurations(self, dense_eigvals):
        model = load_model(SWEEP_MODEL)
        grid = GridSpec(dimension=2, side=4.0, spacing=1.0 / 3,
                        boundary="periodic")
        spec = EventSpec(dimension=2, l=3, L=4, eta=model.disorder.eta,
                         kappa=model.disorder.kappa)
        profile, sites = model.profile, model.sites_for(grid)
        v0_nodes = model.background.evaluate(grid.nodes())
        h0 = assemble_schrodinger(grid, v0_nodes)
        w = site_matrix(profile, sites, grid) @ np.ones(len(sites))
        h_full = assemble_schrodinger(grid, v0_nodes + w)
        k = 10
        base = dense_eigvals(h0)[:k]
        top = dense_eigvals(h_full)[:k]
        amplitude = model.disorder.eta * model.coupling_floor
        violations = 0
        middle_checked = 0

        def leq(a, b):
            return np.all(a <= b + 1e-9 * (np.abs(b) + 1))

        for t in range(100):
            seed = rng.derive_seed(7, rng.TRIAL_STREAM, (0, t))
            cfg = DisorderConfiguration(seed, model.disorder)
            v_omega = assemble_random_potential(cfg, profile, sites, grid)
            h_rand = assemble_schrodinger(grid, v0_nodes + v_omega)
            rand = dense_eigvals(h_rand)[:k]
            if not (leq(base, rand) and leq(rand, top)):
                violations += 1
                continue
            mask = event_ball_mask(cfg, spec, profile, sites, grid)
            assert (mask is None) == (event_choice(cfg, spec) is None)
            if mask is not None:
                v_test = np.zeros(grid.num_points)
                v_test[mask] = amplitude
                h_mid = assemble_schrodinger(grid, v0_nodes + v_test)
                mid = dense_eigvals(h_mid)[:k]
                middle_checked += 1
                if not (leq(base, mid) and leq(mid, rand)):
                    violations += 1
        assert violations == 0
        assert middle_checked >= 50   # the event is common at this kappa


class TestDiscretizationSpectra:
    """Criterion: assembled spectra match closed forms and solver paths
    agree."""

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_closed_form_spectra(self, boundary, n, dense_eigvals):
        grid = GridSpec(dimension=2, side=1.0, spacing=1.0 / n,
                        boundary=boundary)
        assembled = dense_eigvals(laplacian_matrix(grid))
        assert np.allclose(assembled, laplacian_eigenvalues(grid), atol=1e-10)

    def test_dense_and_iterative_paths_agree(self, dense_eigvals):
        grid = GridSpec(dimension=2, side=8.0, spacing=0.5,
                        boundary="periodic")
        model = load_model(SWEEP_MODEL)
        cfg = DisorderConfiguration(11, model.disorder)
        op = assemble_schrodinger(
            grid, model.background.evaluate(grid.nodes())
            + assemble_random_potential(cfg, model.profile,
                                        model.sites_for(grid), grid))
        dense = dense_eigvals(op)
        dense = dense[(dense > -1.0 + TOL_GAP) & (dense < 3.0 - TOL_GAP)]
        iterative = eigs_in_window(op, -1.0, 3.0)
        assert dense.size == iterative.size > 0
        assert np.allclose(dense, iterative, atol=1e-7)


class TestEigenvalueLifting:
    """Criterion: conditioned on the good event, the test perturbation
    lifts the band edge at every cell scale, decaying with the scale, and
    the continuation constant fit is stable."""

    def test_lifting_sweep(self):
        model = load_model(LIFT_MODEL)
        grid = GridSpec(dimension=2, side=float(LIFTING_BOX), spacing=0.125,
                        boundary="periodic")
        box = model.box(grid)
        b = 0.0   # background is the free operator; its box spectrum
                  # starts at zero under periodic boundary conditions
        for trial_seed in range(5):
            lifts = []
            for l in LIFTING_SCALES:
                spec = EventSpec(dimension=2, l=l, L=LIFTING_BOX,
                                 eta=model.disorder.eta,
                                 kappa=model.disorder.kappa)
                cfg = _event_configuration(model, spec,
                                           REFERENCE_SEED + trial_seed, 200)
                rec = lifting_experiment(box, cfg, spec, b,
                                         model.disorder.eta,
                                         model.coupling_floor)
                assert rec.sandwich_ok
                assert rec.observed_lift > 10 * TOL_EIG
                assert rec.observed_lift > rec.predicted_floor
                lifts.append(math.log(rec.observed_lift))
            assert all(a >= b_ for a, b_ in zip(lifts, lifts[1:]))

    def test_continuation_constant_fit_is_stable(self):
        samples = []
        for l in (3, 5, 7):
            grid = GridSpec(dimension=2, side=float(l), spacing=0.125,
                            boundary="periodic")
            lap = laplacian_matrix(grid)
            k = count_below(lap, 4.0 - TOL_EIG)
            assert k >= 1
            _, low = eigh(lap.toarray(), subset_by_index=[0, k - 1])
            mask = grid.nodes_within_balls([(0.0, 0.0)], 0.45)[1]
            for v in random_subspace_vectors(low, 8, seed=l):
                samples.append(FitSample(delta=0.45, l=float(l), v_inf=0.0,
                                         energy=4.0,
                                         ratio=mass_ratio(v, mask)))
        fitted, per_sample = fit_ucp_constant(samples)
        assert math.isfinite(fitted) and fitted > 0
        assert len(per_sample) == len(samples)
        halved, _ = fit_ucp_constant(samples[::2])
        assert abs(halved - fitted) <= 0.1 * abs(fitted)


class TestScaleSelection:
    """Criterion: the selected cell side satisfies the window inequalities
    verbatim on a large random sample of parameters."""

    def test_thousand_random_parameter_pairs(self):
        gen = np.random.default_rng(2)
        checked = 0
        for _ in range(1000):
            L = int(10 ** gen.uniform(0.48, 9.0))
            alpha = float(gen.uniform(0.05, 0.999))
            x = (alpha * math.log(L)) ** (2.0 / 3.0)
            try:
                l = select_scale(L, alpha)
            except ScaleWindowError:
                assert not any(k % 2 == 1 for k in range(1, int(x) + 1)
                               if x / 2 < k <= x)
                continue
            assert l % 2 == 1
            assert x / 2 < l <= x
            assert l + 2 > x
            checked += 1
        assert checked > 500


class TestLedgerSoundness:
    """Criterion: a true ledger verdict certifies the failure-probability
    target, and both minimum-scale search strategies agree."""

    def test_true_verdicts_certify_the_probability_target(self):
        gen = np.random.default_rng(4)
        true_verdicts = 0
        for _ in range(50):
            d = int(gen.integers(2, 4))
            L = int(10 ** gen.uniform(2.0, 12.0))
            alpha = float(gen.uniform(0.5, 0.999))
            q = float(gen.uniform(0.05, 2.0))
            kappa = float(gen.uniform(0.3, 0.999))
            try:
                ledger = build_ledger(d, L, alpha, q, kappa, eta=0.5, c=1.0)
            except ScaleWindowError:
                continue
            if not ledger.verdict:
                continue
            true_verdicts += 1
            spec = EventSpec(dimension=d, l=select_scale(L, alpha), L=L,
                             eta=0.5, kappa=kappa)
            assert exact_event_log_failure(spec) <= \
                -q * math.log(L) + 1e-9

    def test_search_strategies_agree(self):
        gen = np.random.default_rng(6)
        for _ in range(20):
            params = dict(alpha=float(gen.uniform(0.9, 0.99)),
                          q=float(gen.uniform(0.05, 0.3)),
                          kappa=float(gen.uniform(0.97, 0.999)),
                          eta=0.5, c=1.0)
            scan = min_scale_by_scan(3, **params)
            solve = min_scale_for_probability(3, **params)
            assert scan == solve


class TestConditionalCertainty:
    """Criterion: whenever the measured test-perturbation lift clears the
    spectral window, that trial's window is in fact free of spectrum."""

    def test_no_exceptions_in_the_reference_run(self, reference_report):
        report, elapsed = reference_report
        assert elapsed < 1800.0
        triggered = 0
        for per in report.per_L:
            width = per.window_width
            for rec in per.trial_records:
                if not rec["valid"] or not rec.get("event"):
                    continue
                lift = rec.get("observed_lift")
                if lift is not None and lift >= width:
                    triggered += 1
                    assert rec["outcome"], \
                        f"L={per.L}: lift {lift} cleared the window " \
                        f"{width} but an eigenvalue intruded"
        assert triggered > 0

    def test_certified_windows_hold_no_spectrum(self, reference_report):
        # a certified trial takes its verdict from the lift, so the check
        # above holds for it by construction; count its H_omega instead
        report, _ = reference_report
        plan = report.plan
        model = load_model(plan.model)
        checked = 0
        for per in report.per_L:
            certified = [r for r in per.trial_records if r.lift_certified]
            assert len(certified) == per.lift_certified
            if not certified:
                continue
            grid = GridSpec(dimension=2, side=float(per.L),
                            spacing=1.0 / plan.points_per_unit,
                            boundary=plan.boundary)
            spec = EventSpec(dimension=2, l=per.l, L=per.L,
                             eta=model.disorder.eta,
                             kappa=model.disorder.kappa)
            sites = model.sites_for(grid)
            for rec in certified[:5]:
                cfg = DisorderConfiguration(rec["seed"], model.disorder)
                assert event_choice(cfg, spec) is not None
                h = assemble_schrodinger(
                    grid, model.background.evaluate(grid.nodes())
                    + assemble_random_potential(cfg, model.profile, sites,
                                                grid))
                assert count_below(h, per.band_edge + per.window_width) == \
                    count_below(h, per.band_edge - TOL_EIG), \
                    f"L={per.L}: certified trial {rec['seed']} has spectrum " \
                    "in its window"
                checked += 1
        assert checked > 0

    def test_reference_run_is_healthy(self, reference_report):
        report, _ = reference_report
        for per in report.per_L:
            assert per.valid == per.trials == 200
            assert per.event_count > 0
            assert per.ledger is not None


class TestWorkerDeterminism:
    """Criterion: the command-line estimate is byte-identical no matter how
    trials are spread over worker processes."""

    def test_data_sections_identical_across_worker_counts(self, tmp_path):
        plan = shipped("reference_plan")
        plan["trials"] = 6
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        payloads, csvs = [], []
        for workers in (1, 4, 8):
            out = tmp_path / f"w{workers}"
            code = main(["ise", "--plan", str(plan_path),
                         "--workers", str(workers), "--out", str(out)])
            assert code == 0
            blob = json.loads((out / "ise.json").read_text())
            payloads.append(json.dumps(blob["data"], sort_keys=True))
            csvs.append((out / "ise.csv").read_text().splitlines()[1:])
        assert payloads[0] == payloads[1] == payloads[2]
        assert csvs[0] == csvs[1] == csvs[2]


class TestProbabilityTrend:
    """Criterion: the per-L Wilson intervals of the reference run are
    mutually consistent with a nondecreasing hit rate."""

    def test_successive_intervals_overlap(self, reference_report):
        report, _ = reference_report
        assert [per.L for per in report.per_L] == [6, 9, 12]
        for prev, cur in zip(report.per_L, report.per_L[1:]):
            assert cur.ci_hi >= prev.ci_lo
        # the model-free comparison curve 1 - L^-q is reported alongside
        # the estimates but no closeness claim is made at finite L
        for per in report.per_L:
            assert 0.0 <= 1.0 - per.L ** (-report.plan.q) <= 1.0
