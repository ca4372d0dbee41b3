import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iselab import cli, eigensolve
from iselab.cli import main
from iselab.events import lifting_bound, min_scale_for_probability

from conftest import MODELS, blas_threads, shipped

REFERENCE_MODEL = str(MODELS / "reference_gapped.json")

ZERO_MODEL = {
    "G": 1.0,
    "V0": {"kind": "zero"},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
    "disorder": {"kind": "bernoulli", "p": 0.5, "eta": 0.5},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ZERO_MODEL))
    return str(path)


@pytest.fixture
def plan_file(tmp_path, model_file):
    plan = {"model": ZERO_MODEL, "L_values": [3], "alpha": 0.6, "q": 1.0,
            "trials": 2, "seed": 5, "points_per_unit": 6,
            "band_edge": {"mode": "bottom"}}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


def read_artifact(path):
    blob = json.loads(path.read_text())
    return blob["manifest"], blob["data"]


class TestPrintedValues:
    def test_event_prob_prints_exact_probability(self, capsys):
        assert main(["event-prob", "--l", "1", "--L", "2",
                     "--kappa", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1.953125e-03"

    def test_scale_prints_selected_length(self, capsys):
        assert main(["scale", "--L", "2981", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("l = 3 ")
        assert "window" in out

    def test_scale_reports_the_smallest_true_L(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["scale", "--L", "2981", "--alpha", "1.0", "--q", "0.2",
                     "--kappa", "0.9", "--out", str(out)]) == 3
        data = read_artifact(out / "scale.json")[1]
        assert data["smallest_L"] == min_scale_for_probability(
            2, 1.0, 0.2, 0.9, 0.5, 1.0)
        assert len(str(data["smallest_L"])) == 106
        assert (f"smallest true L (None past e^700): {data['smallest_L']}"
                in capsys.readouterr().out)
        # none below e^700: null; and no key without --q
        assert main(["scale", "--L", "100000", "--alpha", "0.5", "--q", "1",
                     "--eta", "1", "--out", str(out)]) == 3
        assert read_artifact(out / "scale.json")[1]["smallest_L"] is None
        assert main(["scale", "--L", "2981", "--alpha", "1.0",
                     "--out", str(out)]) == 0
        assert "smallest_L" not in read_artifact(out / "scale.json")[1]

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_import_loads_no_network_or_xml_module(self):
        # SVG text is escaped with html.escape; xml.sax.saxutils would pull
        # in urllib.request, http.client and ssl on every start
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        code = ("import sys, iselab.cli\n"
                "for name in ('ssl', 'urllib.request', 'http.client', "
                "'xml.sax'):\n"
                "    if name in sys.modules: print(name)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.split() == []


class TestExitCodes:
    def test_missing_plan_file_is_input_error(self, tmp_path, capsys):
        assert main(["ise", "--plan", str(tmp_path / "nope.json")]) == 1

    def test_empty_plan_names_its_l_values(self, tmp_path, capsys):
        plan = {"model": ZERO_MODEL, "L_values": [], "alpha": 0.6, "q": 1.0,
                "trials": 2, "seed": 5}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["ise", "--plan", str(path)]) == 1
        err = capsys.readouterr().err
        assert "L_values" in err and "no per-L entries" not in err

    def test_unknown_subcommand_is_input_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_is_input_error(self, capsys):
        assert main(["scale", "--L", "ten", "--alpha", "0.5"]) == 1

    def test_empty_scale_window_is_input_error(self, capsys):
        assert main(["scale", "--L", "6", "--alpha", "0.4"]) == 1

    def test_smallest_scale_below_dimension_two_is_input_error(self, capsys):
        # sufficient_large_L falls with L at d = 1, so no band search
        assert main(["scale", "--L", "2981", "--alpha", "1.0", "--q", "0.2",
                     "--d", "1"]) == 1
        assert "d >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--trials", "0"),
                                             ("--e-steps", "0")])
    def test_empty_ids_average_is_input_error(self, model_file, tmp_path,
                                              capsys, flag, value):
        # no trial or no energy leaves nothing to average: no artifact
        argv = {"--trials": "2", "--e-steps": "5", flag: value}
        out = tmp_path / "art"
        code = main(["ids", "--model", model_file, "--L", "3",
                     "--points-per-unit", "6", "--e-min", "0.0",
                     "--e-max", "4.0", "--seed", "1", "--e0", "0.0",
                     "--out", str(out)]
                    + [x for kv in argv.items() for x in kv])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error:")
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "1", "20"])
    def test_t_grid_too_coarse_is_input_error(self, model_file, capsys, steps):
        code = main(["gap", "--model", model_file, "--L", "2",
                     "--points-per-unit", "3", "--a", "1.0", "--b", "3.0",
                     "--t-steps", steps])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "input error: t_grid must rise strictly in [0, 1] by <= 0.05")

    @pytest.mark.parametrize("subcommand", ["bands", "ids"])
    def test_zero_points_per_unit_is_input_error(self, model_file, capsys,
                                                 subcommand):
        argv = {"bands": ["--mode", "bottom"],
                "ids": ["--e-min", "0", "--e-max", "4", "--seed", "1",
                        "--e0", "0"]}[subcommand]
        code = main([subcommand, "--model", model_file, "--L", "3",
                     "--points-per-unit", "0"] + argv)
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "input error: points_per_unit must be at least 1")

    @pytest.mark.parametrize("field, value, message", [
        ("points_per_unit", 0, "points_per_unit must be at least 1"),
        ("workers", -3, "need at least one worker"),
        # a typo once ran gap mode silently
        ("band_edge", {"mode": "botom", "hint": 36},
         "unknown band_edge mode 'botom'"),
    ])
    def test_bad_plan_field_is_input_error(self, plan_file, tmp_path, capsys,
                                           field, value, message):
        plan = json.loads(Path(plan_file).read_text())
        plan[field] = value
        Path(plan_file).write_text(json.dumps(plan))
        out = tmp_path / "art"
        assert main(["ise", "--plan", plan_file, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"input error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [None, 1])
    def test_coupling_law_outside_unit_interval_is_input_error(
            self, tmp_path, capsys, seed):
        # mass 1e-9 at omega = 2: every seed is refused at load, also one
        # whose draws never land there
        plan = shipped("reference_plan")
        plan.update(L_values=[6], trials=5)
        plan["model"]["disorder"] = {
            "kind": "truncated", "values": [0, 0.5, 1, 2],
            "probs": [0.004, 0.83, 0.165999999, 1e-9], "eta": 0.5}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        out = tmp_path / "art"
        argv = ["ise", "--plan", str(path), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == (
            "input error: coupling values must lie in [0, 1]")
        assert not out.exists()

    def test_non_whole_plan_side_is_input_error(self, plan_file, tmp_path,
                                                capsys):
        # a box of side 6.5 once ran with the event and ledger of L = 6,
        # and was reported as L = 6
        plan = json.loads(Path(plan_file).read_text())
        plan["L_values"] = [6.5]
        Path(plan_file).write_text(json.dumps(plan))
        out = tmp_path / "art"
        assert main(["ise", "--plan", plan_file, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == (
            "input error: L values must be whole numbers: [6.5]")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["lift", "ucp"])
    def test_non_whole_event_side_is_input_error(self, tmp_path, capsys,
                                                 subcommand):
        # the good event's cells tile a whole box: --L 5.5 once ran with
        # the cells of L = 5 and was reported as L = 5.5
        argv = {"lift": ["--hint", "36", "--scales", "1"],
                "ucp": ["--l", "1", "--energy", "30"]}[subcommand]
        out = tmp_path / "art"
        code = main([subcommand, "--model", REFERENCE_MODEL, "--L", "5.5",
                     "--points-per-unit", "2", "--seed", "1",
                     "--out", str(out)] + argv)
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "input error: --L 5.5 is not a whole number: the good event "
            "needs a whole box side")
        assert not out.exists()

    def test_bands_keeps_a_non_whole_side(self, tmp_path, capsys):
        # bands, gap and ids build no event, so any side the grid takes runs
        out = tmp_path / "art"
        assert main(["bands", "--model", REFERENCE_MODEL, "--L", "5.5",
                     "--points-per-unit", "2", "--hint", "36",
                     "--out", str(out)]) == 0
        assert read_artifact(out / "bands.json")[0]["params"]["L"] == 5.5

    def test_negative_workers_flag_is_input_error(self, plan_file, capsys):
        assert main(["ise", "--plan", plan_file, "--workers", "-3"]) == 1
        assert capsys.readouterr().err.strip() == (
            "input error: need at least one worker")

    @pytest.mark.parametrize("kappa", ["0", "-0.5", "1.5"])
    def test_impossible_kappa_is_input_error(self, tmp_path, capsys, kappa):
        # kappa = P[omega >= eta] lies in (0, 1]; no ledger verdict outside
        out = tmp_path / "art"
        code = main(["scale", "--L", "2981", "--alpha", "1.0", "--q", "0.2",
                     "--kappa", kappa, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "input error: kappa must lie in (0, 1]")
        assert not out.exists()

    @pytest.mark.parametrize("attempts", ["0", "-3"])
    @pytest.mark.parametrize("subcommand", ["lift", "ucp"])
    def test_no_event_attempt_is_input_error(self, capsys, subcommand,
                                             attempts):
        argv = {"lift": ["--hint", "36", "--scales", "1"],
                "ucp": ["--l", "1", "--energy", "30"]}[subcommand]
        code = main([subcommand, "--model", REFERENCE_MODEL, "--L", "3",
                     "--seed", "1", "--attempts", attempts] + argv)
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "input error: need at least one attempt")

    @pytest.mark.parametrize("subcommand", ["lift", "ise"])
    def test_cone_no_wider_than_its_ball_is_input_error(
            self, tmp_path, capsys, subcommand):
        model = dict(ZERO_MODEL, single_site={
            "kind": "cone", "c": 1.0, "delta": 0.3, "radius": 0.2})
        if subcommand == "lift":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            argv = ["lift", "--model", str(path), "--L", "3", "--mode",
                    "bottom", "--scales", "1", "--seed", "1"]
        else:
            path = tmp_path / "plan.json"
            path.write_text(json.dumps({
                "model": model, "L_values": [3], "alpha": 0.6, "q": 1.0,
                "trials": 2, "seed": 5, "band_edge": {"mode": "bottom"}}))
            argv = ["ise", "--plan", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == (
            "input error: cone radius 0.2 must exceed its delta 0.3")

    def test_lift_runs_at_lattice_spacing_two(self, tmp_path, capsys):
        # the balls sit at G * site, and so do the cells they must fit; the
        # floor is the bound at the cells' physical side G l
        spec = shipped("reference_gapped")
        spec["G"] = 2.0
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "art"
        assert main(["lift", "--model", str(path), "--L", "4", "--hint", "36",
                     "--scales", "1,3", "--seed", "1", "--out", str(out)]) == 0
        assert "sandwich ok" in capsys.readouterr().out
        records = read_artifact(out / "lift.json")[1]
        assert [r["l"] for r in records] == [1, 3]
        for r in records:
            assert r["predicted_floor"] == lifting_bound(2.0 * r["l"], 0.5,
                                                         1.0)
            assert r["observed_lift"] >= r["predicted_floor"] > 0

    def test_failing_ledger_is_assertion_failure(self, capsys):
        code = main(["scale", "--L", "5000", "--alpha", "0.9", "--q", "1.0",
                     "--kappa", "0.5"])
        assert code == 3
        assert "ledger verdict: False" in capsys.readouterr().out

    def test_arpack_failure_in_lift_is_solver_error(self, tmp_path,
                                                    monkeypatch, capsys):
        # no ARPACK run converges: the bracketed lift (at the bottom, where
        # the count below b is 0) and the shift below b (c = 20 does not fit
        # in the free gap (0, 9.65), so no count is certified) both exit 2
        from scipy.sparse.linalg import ArpackNoConvergence

        from iselab import eigensolve

        calls = []

        def no_convergence(mat, k, **kwargs):
            calls.append(kwargs["which"])
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((0, 0)))

        monkeypatch.setattr(eigensolve, "eigsh", no_convergence)
        for c, mode, which in ((1.0, ["--mode", "bottom"], "SA"),
                               (20.0, ["--hint", "5"], "LA")):
            path = tmp_path / f"model_{which}.json"
            path.write_text(json.dumps(dict(
                ZERO_MODEL, single_site={"kind": "ball_indicator", "c": c,
                                         "delta": 0.45})))
            calls.clear()
            code = main(["lift", "--model", str(path), "--L", "2",
                         "--points-per-unit", "6", *mode,
                         "--scales", "1", "--seed", "3"])
            assert code == 2
            assert "solver failure" in capsys.readouterr().err
            assert calls == [which]

    def test_window_missed_by_the_t_grid_is_assertion_failure(
            self, tmp_path, capsys, dense_eigvals):
        # indicator bumps with c = 5 on sites -1..1; the lowest branch
        # crosses the window between the sampled t = 0 and t = 0.05
        from iselab.grid import GridSpec, assemble_schrodinger
        from iselab.potentials import load_model

        spec = dict(ZERO_MODEL, single_site={"kind": "ball_indicator",
                                             "c": 5.0, "delta": 0.45})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        model = load_model(spec)
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 3,
                        boundary="periodic")
        v0_nodes = model.background.evaluate(grid.nodes())
        w = model.box(grid).w
        a, b = (dense_eigvals(assemble_schrodinger(grid, v0_nodes + t * w))[0]
                for t in (0.01, 0.04))
        code = main(["gap", "--model", str(path), "--L", "2",
                     "--points-per-unit", "3", "--a", repr(float(a)),
                     "--b", repr(float(b))])
        assert code == 3
        assert capsys.readouterr().out.startswith(
            "1 eigenvalue branch(es) cross the window; 0 intrusion(s)")

    def test_verdicts_solve_no_eigenpairs(self, monkeypatch, capsys):
        # the lift and gap calls of the benchmark's first diagnostics input
        from iselab import eigensolve

        calls = []
        real = eigensolve.eigs_in_window

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "eigs_in_window", spy)
        assert main(["lift", "--model", REFERENCE_MODEL, "--L", "3",
                     "--hint", "36", "--scales", "1,3",
                     "--seed", "20260824"]) == 0
        assert main(["gap", "--model", REFERENCE_MODEL, "--L", "2",
                     "--a", "28", "--b", "46", "--t-steps", "41"]) == 0
        assert calls == []

    def test_lift_builds_one_box(self, monkeypatch, capsys):
        # every scale of `lift` reads one box: U is built once (one
        # evaluation of the model's profile, at the offsets of every site)
        # and the background spectrum computed once
        from iselab import eigensolve, potentials
        from iselab.grid import GridSpec

        calls = []
        real = potentials.SingleSiteProfile.evaluate

        def spy(self, offsets):
            calls.append(1)
            return real(self, offsets)

        sites = potentials.load_model(REFERENCE_MODEL).sites_for(
            GridSpec(dimension=2, side=3.0, spacing=1.0 / 9))
        eigensolve.background_spectrum.cache_clear()
        monkeypatch.setattr(potentials.SingleSiteProfile, "evaluate", spy)
        assert main(["lift", "--model", REFERENCE_MODEL, "--L", "3",
                     "--hint", "36", "--scales", "1,3",
                     "--seed", "20260824"]) == 0
        assert len(calls) == 1 < len(sites)
        assert eigensolve.background_spectrum.cache_info().misses == 1

    def test_window_intrusion_is_assertion_failure(self, model_file, capsys):
        # the free box operator has an eigenvalue inside (1, 3)
        code = main(["gap", "--model", model_file, "--L", "4",
                     "--points-per-unit", "3", "--a", "1.0", "--b", "3.0"])
        assert code == 3
        assert "intrusion" in capsys.readouterr().out


class TestArtifacts:
    def test_bands_json_embeds_manifest(self, model_file, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["bands", "--model", model_file, "--L", "3",
                     "--points-per-unit", "6", "--mode", "bottom",
                     "--out", str(out)]) == 0
        manifest, data = read_artifact(out / "bands.json")
        assert manifest["subcommand"] == "bands"
        assert set(manifest) >= {"version", "content_hash", "params",
                                 "wall_clock_s", "workers", "blas_pinned"}
        assert manifest["params"]["L"] == 3.0
        assert data["band_edge"] == pytest.approx(0.0, abs=1e-9)
        assert data["gap_lower"] is None

    def test_event_prob_json_records_monte_carlo(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["event-prob", "--l", "1", "--L", "2", "--kappa", "0.5",
                     "--trials", "2000", "--seed", "7",
                     "--out", str(out)]) == 0
        _, data = read_artifact(out / "event_prob.json")
        assert data["exact"] == pytest.approx(1 / 512)
        mc = data["monte_carlo"]
        assert mc["ci_lo"] <= mc["p_hat"] <= mc["ci_hi"]

    def test_ise_artifacts_and_csv_shape(self, plan_file, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["ise", "--plan", plan_file, "--out", str(out)]) == 0
        manifest, data = read_artifact(out / "ise.json")
        assert manifest["subcommand"] == "ise"
        assert len(data["per_L"]) == 1
        assert data["per_L"][0]["valid"] == 2
        lines = (out / "ise.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest: {")
        json.loads(lines[0].removeprefix("# manifest: "))
        assert lines[1] == "L,l,window,trials,valid,p_hat,ci_lo,ci_hi," \
                           "ledger_verdict"
        assert len(lines) == 3
        assert (out / "ise.svg").read_text().startswith("<svg")

    def test_ise_data_sections_are_rerun_stable(self, plan_file, tmp_path,
                                                capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["ise", "--plan", plan_file, "--out", str(out)]) == 0
            outs.append(out)
        datas = [read_artifact(o / "ise.json")[1] for o in outs]
        assert datas[0] == datas[1]
        csvs = [(o / "ise.csv").read_text().splitlines()[1:] for o in outs]
        assert csvs[0] == csvs[1]

    def test_seed_override_changes_the_data(self, plan_file, tmp_path,
                                            capsys):
        outs = {}
        for seed in ("5", "6"):
            out = tmp_path / f"s{seed}"
            assert main(["ise", "--plan", plan_file, "--seed", seed,
                         "--out", str(out)]) == 0
            outs[seed] = read_artifact(out / "ise.json")
        assert outs["5"][1]["seed"] == 5
        assert outs["6"][1]["seed"] == 6
        records5 = outs["5"][1]["per_L"][0]["trial_records"]
        records6 = outs["6"][1]["per_L"][0]["trial_records"]
        assert [r["seed"] for r in records5] != [r["seed"] for r in records6]

    def test_ids_artifacts(self, model_file, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["ids", "--model", model_file, "--L", "3",
                     "--points-per-unit", "6", "--e-min", "0.0",
                     "--e-max", "4.0", "--e-steps", "5", "--trials", "2",
                     "--seed", "1", "--e0", "0.0", "--out", str(out)]) == 0
        _, data = read_artifact(out / "ids.json")
        assert data[0]["L"] == 3.0
        assert len(data[0]["counting"]) == 5
        assert (out / "ids.svg").read_text().startswith("<svg")


def grid_params(model, L, **extra):
    return {"model": model, "L": L, "d": 2, "points_per_unit": 6,
            "boundary": "periodic", **extra}


class TestManifest:
    """One manifest per call: every flag except --out, and its run time."""

    def calls(self, model, plan):
        """(argv without --out, expected params, manifest name) per command."""
        grid = ["--model", model, "--L", "2", "--points-per-unit", "6"]
        return {
            "bands": (["bands", *grid, "--mode", "bottom"],
                      grid_params(model, 2.0, hint=None, mode="bottom"),
                      "bands.json"),
            "event-prob": (["event-prob", "--l", "1", "--L", "2",
                            "--kappa", "0.5"],
                           {"d": 2, "l": 1, "L": 2, "kappa": 0.5, "eta": 0.5,
                            "trials": None, "seed": None},
                           "event_prob.json"),
            "scale": (["scale", "--L", "2981", "--alpha", "1.0"],
                      {"L": 2981, "alpha": 1.0, "d": 2, "q": None,
                       "kappa": 0.5, "eta": 0.5, "c": 1.0},
                      "scale.json"),
            "lift": (["lift", *grid, "--mode", "bottom", "--scales", "1",
                      "--seed", "3"],
                     grid_params(model, 2.0, hint=None, mode="bottom",
                                 scales="1", seed=3, attempts=200),
                     "lift.json"),
            "ucp": (["ucp", *grid, "--l", "1", "--energy", "12",
                     "--count", "3", "--seed", "3"],
                    grid_params(model, 2.0, l=1, energy=12.0, count=3,
                                seed=3, v_inf=None, attempts=200),
                    "ucp.json"),
            "gap": (["gap", *grid, "--a", "1.0", "--b", "3.0"],
                    grid_params(model, 2.0, a=1.0, b=3.0, t_steps=21),
                    "gap.json"),
            "ise": (["ise", "--plan", plan, "--workers", "1"],
                    {"plan": json.loads(Path(plan).read_text()), "seed": 5},
                    "ise.json"),
            "ids": (["ids", "--model", model, "--L", "3",
                     "--points-per-unit", "6", "--e-min", "0.0",
                     "--e-max", "4.0", "--e-steps", "5", "--trials", "2",
                     "--seed", "1", "--e0", "0.0"],
                    grid_params(model, "3", e_min=0.0, e_max=4.0, e_steps=5,
                                trials=2, seed=1, e0=0.0),
                    "ids.json"),
        }

    @pytest.mark.parametrize("subcommand", [
        "bands", "event-prob", "scale", "lift", "ucp", "gap", "ise", "ids"])
    def test_params_are_the_flags_except_out(self, subcommand, model_file,
                                             plan_file, tmp_path, capsys):
        argv, params, name = self.calls(model_file, plan_file)[subcommand]
        out = tmp_path / "art"
        assert main(argv + ["--out", str(out)]) in (0, 3)
        manifest, _ = read_artifact(out / name)
        assert manifest["subcommand"] == subcommand
        assert manifest["params"] == params
        assert manifest["workers"] == 1
        assert manifest["wall_clock_s"] > 0

    def test_two_calls_in_one_process_parse_independently(self, tmp_path,
                                                           capsys):
        # the parser is built once per process; a flag given to one call
        # must not carry over to the next
        argv = ["event-prob", "--l", "1", "--L", "2", "--kappa", "0.5"]
        seeds = []
        for extra in (["--seed", "7"], []):
            out = tmp_path / f"art{len(seeds)}"
            assert main(argv + extra + ["--out", str(out)]) == 0
            seeds.append(read_artifact(out / "event_prob.json")[0]
                         ["params"]["seed"])
        assert seeds == [7, None]

    def test_content_hash_is_pinned(self, plan_file, tmp_path, monkeypatch,
                                    capsys):
        # the hash covers the version, the subcommand and the params only
        monkeypatch.chdir(MODELS.parent)
        out = tmp_path / "art"
        assert main(["bands", "--model", "models/free_uniform.json",
                     "--L", "3", "--points-per-unit", "6", "--mode", "bottom",
                     "--out", str(out)]) == 0
        assert main(["ise", "--plan", plan_file, "--out", str(out)]) == 0
        bands, _ = read_artifact(out / "bands.json")
        ise, _ = read_artifact(out / "ise.json")
        assert bands["content_hash"] == ("808a65698a4207ccb1ad3601247c05cf"
                                         "8e842009c650a7e956862feebda2d72b")
        assert ise["content_hash"] == ("ab462dfdfa1328b13b92ef873bf8946d"
                                       "2625cd684e7a19d613293f4aa829080a")

    def test_a_command_runs_one_blas_thread_and_restores_the_counts(
            self, model_file, tmp_path, monkeypatch, two_blas_threads,
            capsys):
        seen = []

        def bands(args):
            seen.append(blas_threads())
            return 0, {"bands.json": {}}

        monkeypatch.setattr(cli, "cmd_bands", bands)
        out = tmp_path / "art"
        assert main(["bands", "--model", model_file, "--L", "3",
                     "--out", str(out)]) == 0
        assert seen == [[1] * len(two_blas_threads)]
        assert blas_threads() == two_blas_threads
        manifest, _ = read_artifact(out / "bands.json")
        assert manifest["blas_pinned"] == len(two_blas_threads)

    def test_blas_pinned_is_zero_where_no_library_is_found(
            self, model_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(eigensolve, "_openblas_thread_controls",
                            lambda: [])
        out = tmp_path / "art"
        assert main(["bands", "--model", model_file, "--L", "3",
                     "--points-per-unit", "6", "--mode", "bottom",
                     "--out", str(out)]) == 0
        manifest, _ = read_artifact(out / "bands.json")
        assert manifest["blas_pinned"] == 0

    def test_ise_records_the_resolved_worker_count(self, plan_file, tmp_path,
                                                   capsys):
        out = tmp_path / "art"
        assert main(["ise", "--plan", plan_file, "--workers", "2",
                     "--out", str(out)]) == 0
        manifest, _ = read_artifact(out / "ise.json")
        assert manifest["workers"] == 2
        assert "workers" not in manifest["params"]["plan"]
        csv_manifest = json.loads((out / "ise.csv").read_text()
                                  .splitlines()[0].removeprefix("# manifest: "))
        assert csv_manifest == manifest

    def test_ise_hash_does_not_depend_on_the_worker_count(self, plan_file,
                                                          tmp_path, capsys):
        # the worker count changes no data, so it stays out of the hash
        # whether it comes from the flag, from the plan or from neither
        with_workers = tmp_path / "plan_workers.json"
        with_workers.write_text(json.dumps(
            {**json.loads(Path(plan_file).read_text()), "workers": 2}))
        hashes = set()
        for i, argv in enumerate((["--plan", plan_file],
                                  ["--plan", plan_file, "--workers", "1"],
                                  ["--plan", plan_file, "--workers", "2"],
                                  ["--plan", str(with_workers)])):
            out = tmp_path / f"art{i}"
            assert main(["ise", *argv, "--out", str(out)]) == 0
            manifest, _ = read_artifact(out / "ise.json")
            hashes.add(manifest["content_hash"])
        assert hashes == {"ab462dfdfa1328b13b92ef873bf8946d"
                          "2625cd684e7a19d613293f4aa829080a"}

    def test_failing_ledger_still_writes_its_artifact(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["scale", "--L", "5000", "--alpha", "0.9", "--q", "1.0",
                     "--kappa", "0.5", "--out", str(out)]) == 3
        manifest, data = read_artifact(out / "scale.json")
        assert manifest["subcommand"] == "scale"
        assert data["ledger"]["verdict"] is False

    def test_window_intrusion_still_writes_its_artifact(self, model_file,
                                                        tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["gap", "--model", model_file, "--L", "4",
                     "--points-per-unit", "3", "--a", "1.0", "--b", "3.0",
                     "--out", str(out)]) == 3
        manifest, data = read_artifact(out / "gap.json")
        assert manifest["subcommand"] == "gap"
        assert data["ok"] is False
        assert data["intrusions"]
