"""Self-tests of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import copy
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import iselab.cli  # noqa: E402
import iselab.ise  # noqa: E402

import gate  # noqa: E402
import record_expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402


def _tiny_ise(seed, inputs):
    plan = workloads._write(inputs, "plan.json",
                            workloads._plan(seed, [4], 2))
    return [("ise", ["ise", "--plan", plan, "--workers", "2"])]


def _tiny_diagnostics(seed, inputs):
    ref = workloads._write(inputs, "reference.json", workloads.REFERENCE_MODEL)
    free = workloads._write(inputs, "free.json", workloads.FREE_MODEL)
    return [
        ("bands", ["bands", "--model", ref, "--L", "2", "--hint", "36"]),
        ("ids", ["ids", "--model", free, "--L", "2", "--e-min", "0",
                 "--e-max", "6", "--seed", str(seed), "--e0", "0",
                 "--trials", "1"]),
    ]


TINY = {"tiny_ise": _tiny_ise, "tiny_diagnostics": _tiny_diagnostics}
SEED = 3


@pytest.fixture(scope="module")
def expected():
    """Serial results of the input sets a four-repetition run uses."""
    return {name: {str(k): record_expected.record(name, k, TINY)
                   for k in range(SEED, SEED + 4)}
            for name in TINY}


def _declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(expected, workload, trace,
                                               kind):
    result, info = run.measure(workload, SEED, 0, trace, expected, TINY)
    assert result["correct"], info["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_pool_workers_report_their_spans(expected):
    result, info = run.measure("tiny_ise", SEED, 0, 1, expected, TINY)
    metrics = result["metrics"]
    assert all(n >= 1 for n in info["workers_merged"])
    assert metrics["ise.trials"]["value"] == 2
    assert metrics["ise.trial_s"]["value"] > 0
    assert metrics["ise.pool_s"]["value"] > 0


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    plan = workloads._write(str(tmp_path), "plan.json",
                            workloads._plan(SEED, [4], 1))
    tracer = Tracer(sink_dir=str(tmp_path))
    tracer.install()
    replaced = list(tracer.restore)
    assert replaced and installed_wrappers()
    try:
        code = iselab.cli.main(["ise", "--plan", plan, "--workers", "1",
                                "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert installed_wrappers() == []
    assert all(getattr(owner, name) is original
               for owner, name, original in replaced)
    assert tracer.calls["ise.run_ise_trial"] == 1


def test_self_times_and_unattributed_add_up_to_wall(tmp_path):
    plan = workloads._write(str(tmp_path), "plan.json",
                            workloads._plan(SEED, [4], 1))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        iselab.cli.main(["ise", "--plan", plan, "--workers", "1"])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layers = tracer.metrics(wall, 1.0)
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total + layers["ise.unattributed_s"] == pytest.approx(wall)
    assert 0 <= layers["ise.unattributed_s"] < wall


@pytest.mark.parametrize("perturb", ["band_edge", "outcome"])
def test_gate_trips_on_a_perturbed_expectation(expected, perturb):
    bad = copy.deepcopy(expected)
    per_L = bad["tiny_ise"][str(SEED)]["ise"][0]
    if perturb == "band_edge":
        per_L["band_edge"] += 1e-6
    else:
        per_L["flags"][0][0] = not per_L["flags"][0][0]
    result, info = run.measure("tiny_ise", SEED, 0, 0, bad, TINY)
    assert not result["correct"]
    assert any("ise[0]" in p for p in info["problems"])


def test_gate_compares_counts_exactly_and_eigenvalues_to_tolerance():
    assert gate.compare({"x": 1.0, "n": 2}, {"x": 1.0 + 1e-10, "n": 2}, "") == []
    assert gate.compare({"x": 1.0}, {"x": 1.0 + 1e-7}, "")
    assert gate.compare({"n": 2}, {"n": 3}, "")
    assert gate.compare({"ok": True}, {"ok": 1}, "")
    assert gate.compare([1, 2], [1], "")


def test_failures_count_an_injected_invalid_trial(tmp_path, monkeypatch):
    original = iselab.ise.run_ise_trial
    injected = []

    def invalid_once(*args, **kwargs):
        record = original(*args, **kwargs)
        if not injected:
            injected.append(record)
            record.update(valid=False, error="injected")
        return record

    monkeypatch.setattr(iselab.ise, "run_ise_trial", invalid_once)
    calls = _tiny_ise(SEED, str(tmp_path))
    calls = [(label, record_expected.serial(argv)) for label, argv in calls]
    calls.append(("bands", ["bands", "--model", "missing.json", "--L", "2"]))
    out = tmp_path / "out"
    codes = [iselab.cli.main(argv + ["--out", str(out / label)])
             for label, argv in calls]
    assert codes == [0, 1]
    attempted, failed, data = run.tally(calls, codes, str(out))
    assert injected
    assert attempted == (1 + 2) + 1
    assert failed == 2       # the invalid trial and the failed call
    assert data["ise"]["per_L"][0]["valid"] == 1


def test_missing_program_is_reported_without_a_result(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(run.ProgramMissing):
        run.measure("tiny_ise", SEED, 0, 0, {}, TINY)
