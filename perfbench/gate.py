"""Correctness gate: the data a repetition wrote against stored results.

Counts, flags and verdicts must match exactly; eigenvalue-valued fields
match to TOL_EIG relative to (1 + |value|).  For `ucp` only fields that do
not depend on the eigenbasis of a degenerate subspace are checked.
"""

import json
import os

TOL_EIG = 1e-8

ARTIFACTS = {"ise": "ise.json", "bands": "bands.json", "lift": "lift.json",
             "gap": "gap.json", "ucp": "ucp.json", "ids": "ids.json"}

_PER_L = ("L", "l", "band_edge", "gap_lower", "trials", "valid", "successes",
          "borderline", "event_count")
_LIFT = ("l", "L", "delta", "k0", "base_eigenvalue", "perturbed_eigenvalue",
         "random_eigenvalue", "observed_lift", "predicted_floor",
         "sandwich_ok")


def _ise(data):
    return [dict({k: p[k] for k in _PER_L},
                 flags=[[r["outcome"], r["event"], r["valid"], r["borderline"]]
                        for r in p["trial_records"]],
                 observed_lift=[r["observed_lift"]
                                for r in p["trial_records"]])
            for p in data["per_L"]]


def _ucp(data):
    ratios = data["ratios"]
    return {"subspace_dimension": data["subspace_dimension"],
            "samples": len(ratios),
            "ratios_in_unit_interval": all(0.0 < r < 1.0 for r in ratios)}


SUMMARIES = {
    "ise": _ise,
    "bands": lambda d: {"band_edge": d["band_edge"],
                        "gap_lower": d["gap_lower"]},
    "lift": lambda d: [{k: r[k] for k in _LIFT} for r in d],
    "gap": lambda d: {"ok": d["ok"], "intrusions": len(d["intrusions"]),
                      "t_steps": len(d["t_grid"])},
    "ucp": _ucp,
    "ids": lambda d: [{"L": r["L"], "counting": r["counting"],
                       "truncated": r["truncated"]} for r in d],
}


def load_data(out_dir, label):
    with open(os.path.join(out_dir, ARTIFACTS[label])) as fh:
        return json.load(fh)["data"]


def summarize(label, data):
    return SUMMARIES[label](data)


def invalid_trials(label, data):
    if label != "ise":
        return 0
    return sum(1 for p in data["per_L"] for r in p["trial_records"]
               if not r["valid"])


def compare(expected, actual, where):
    """Mismatch descriptions; empty when actual matches expected."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        return [m for k in sorted(expected)
                for m in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: length differs"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{where}[{i}]")]
    if (isinstance(expected, float) and isinstance(actual, (int, float))
            and not isinstance(actual, bool)):
        if abs(actual - expected) <= TOL_EIG * (1.0 + abs(expected)):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: got {actual!r}, expected {expected!r}"]
