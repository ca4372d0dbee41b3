import json
from pathlib import Path

import numpy as np
import pytest

from iselab.cli import main

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

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


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

    def test_failing_ledger_is_assertion_failure(self, capsys):
        code = main(["scale", "--L", "5000", "--alpha", "0.9", "--q", "1.0",
                     "--kappa", "0.5"])
        assert code == 3
        assert "ledger verdict: False" in capsys.readouterr().out

    def test_arpack_failure_in_lift_is_solver_error(self, model_file,
                                                    monkeypatch, capsys):
        from scipy.sparse.linalg import ArpackNoConvergence

        from iselab import eigensolve
        real_eigsh = eigensolve.eigsh

        def lift_fails(mat, k, **kwargs):
            # min_eig_above's shift-invert ("LA") does not converge, even
            # after its nudged retry
            if kwargs.get("which") == "LA":
                raise ArpackNoConvergence("no convergence", np.empty(0),
                                          np.empty((0, 0)))
            return real_eigsh(mat, k=k, **kwargs)

        monkeypatch.setattr(eigensolve, "eigsh", lift_fails)
        code = main(["lift", "--model", model_file, "--L", "2",
                     "--points-per-unit", "6", "--mode", "bottom",
                     "--scales", "1", "--seed", "3"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_window_missed_by_the_t_grid_is_assertion_failure(
            self, tmp_path, capsys, dense_eigvals):
        # indicator bumps with c = 5 on sites -1..1; the lowest branch
        # crosses the window between the sampled t = 0 and t = 0.05
        from iselab.grid import GridSpec, assemble_schrodinger
        from iselab.potentials import load_model, site_matrix

        spec = dict(ZERO_MODEL, single_site={"kind": "ball_indicator",
                                             "c": 5.0, "delta": 0.45})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        model = load_model(spec)
        grid = GridSpec(dimension=2, side=2.0, spacing=1.0 / 3,
                        boundary="periodic")
        profiles = model.profiles_for(grid)
        v0_nodes = model.background.evaluate(grid.nodes())
        w = site_matrix(profiles, grid) @ np.ones(len(profiles))
        a, b = (dense_eigvals(assemble_schrodinger(grid, v0_nodes + t * w))[0]
                for t in (0.01, 0.04))
        code = main(["gap", "--model", str(path), "--L", "2",
                     "--points-per-unit", "3", "--a", repr(float(a)),
                     "--b", repr(float(b))])
        assert code == 3
        assert capsys.readouterr().out.startswith(
            "1 eigenvalue branch(es) cross the window; 0 intrusion(s)")

    def test_verdicts_solve_no_eigenpairs(self, tmp_path, monkeypatch,
                                          capsys):
        # the lift and gap calls of the benchmark's first diagnostics input
        from iselab import eigensolve
        from iselab.reference import reference_model_spec

        calls = []
        real = eigensolve.eigs_in_window

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "eigs_in_window", spy)
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(reference_model_spec()))
        assert main(["lift", "--model", str(path), "--L", "3", "--hint", "36",
                     "--scales", "1,3", "--seed", "20260824"]) == 0
        assert main(["gap", "--model", str(path), "--L", "2", "--a", "28",
                     "--b", "46", "--t-steps", "41"]) == 0
        assert calls == []

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
                                 "wall_clock_s", "workers"}
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


REPO_ROOT = Path(__file__).resolve().parents[1]


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
                    {"plan": {**json.loads(Path(plan).read_text()),
                              "workers": 1},
                     "seed": 5},
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

    def test_content_hash_is_pinned(self, plan_file, tmp_path, monkeypatch,
                                    capsys):
        # the hash covers the version, the subcommand and the params only
        monkeypatch.chdir(REPO_ROOT)
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

    def test_ise_records_the_resolved_worker_count(self, plan_file, tmp_path,
                                                   capsys):
        out = tmp_path / "art"
        assert main(["ise", "--plan", plan_file, "--workers", "2",
                     "--out", str(out)]) == 0
        manifest, _ = read_artifact(out / "ise.json")
        assert manifest["workers"] == 2
        assert manifest["params"]["plan"]["workers"] == 2
        csv_manifest = json.loads((out / "ise.csv").read_text()
                                  .splitlines()[0].removeprefix("# manifest: "))
        assert csv_manifest == manifest

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
