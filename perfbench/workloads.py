"""Workload inputs: the CLI calls of one repetition, made from a seed.

Each workload is a closed loop with one client: a repetition is one fresh
process that makes its CLI calls one after another, and the next repetition
starts only after the last one ended.  With `--seed n`, repetition i uses
input set `(n + i) % INPUT_SETS` (a traced run uses each set twice, once
untraced and once traced).  `expected.json` holds the serial results of
every set.
"""

import json
import os

INPUT_SETS = 16
REFERENCE_SEED = 20260824

# The reference model of the window-statistics experiment: a background with
# a wide gap, roughly (27, 47), and rare-zero three-point disorder.
REFERENCE_MODEL = {
    "G": 1.0,
    "V0": {"kind": "separable_square", "amplitude": 40.0},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.45},
    "disorder": {"kind": "truncated", "values": [0.0, 0.5, 1.0],
                 "probs": [0.004, 0.83, 0.166], "eta": 0.5},
}
FREE_MODEL = {
    "G": 1.0,
    "V0": {"kind": "zero"},
    "single_site": {"kind": "ball_indicator", "c": 1.0, "delta": 0.25},
    "disorder": {"kind": "uniform01", "eta": 0.5, "kappa": 0.5},
}


def _plan(seed, L_values, trials):
    return {"model": REFERENCE_MODEL, "L_values": L_values, "alpha": 0.6,
            "q": 1.0, "trials": trials, "seed": seed, "points_per_unit": 9,
            "boundary": "periodic",
            "band_edge": {"mode": "gap", "hint": 36.0}}


# ise_sweep: one process, three box sizes.  The per-L band-edge search is
# most of the time: dense at L=4 and 6, ARPACK shift-invert at L=8.
SWEEP_L = [4, 6, 8]
SWEEP_TRIALS = 3
# ise_pool: trials at one larger box through a two-worker pool; trial work
# (shift-invert at n=8100) is the larger share.
POOL_L = [10]
POOL_TRIALS = 10
POOL_WORKERS = 2


def ise_sweep(seed, inputs):
    plan = _write(inputs, "plan.json", _plan(seed, SWEEP_L, SWEEP_TRIALS))
    return [("ise", ["ise", "--plan", plan, "--workers", "1"])]


def ise_pool(seed, inputs):
    plan = _write(inputs, "plan.json", _plan(seed, POOL_L, POOL_TRIALS))
    return [("ise", ["ise", "--plan", plan, "--workers", str(POOL_WORKERS)])]


def diagnostics(seed, inputs):
    """One call of each dense-solver diagnostic: no pool, no trial loop."""
    ref = _write(inputs, "reference.json", REFERENCE_MODEL)
    free = _write(inputs, "free.json", FREE_MODEL)
    return [
        ("bands", ["bands", "--model", ref, "--L", "6", "--hint", "36"]),
        ("lift", ["lift", "--model", ref, "--L", "3", "--hint", "36",
                  "--scales", "1,3", "--seed", str(seed)]),
        ("gap", ["gap", "--model", ref, "--L", "2", "--a", "28",
                 "--b", "46", "--t-steps", "41"]),
        ("ucp", ["ucp", "--model", free, "--L", "4", "--l", "3",
                 "--energy", "4", "--seed", str(seed)]),
        ("ids", ["ids", "--model", free, "--L", "3,4", "--e-min", "0",
                 "--e-max", "6", "--seed", str(seed), "--e0", "0",
                 "--trials", "3"]),
    ]


WORKLOADS = {"ise_sweep": ise_sweep, "ise_pool": ise_pool,
             "diagnostics": diagnostics}




def _write(inputs, name, payload):
    path = os.path.join(inputs, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def build(workload, input_set, inputs, builders=WORKLOADS):
    """[(label, argv)] for one repetition; writes the input files."""
    os.makedirs(inputs, exist_ok=True)
    return builders[workload](REFERENCE_SEED + input_set, inputs)


def trials_in(label, argv):
    """Trials one call attempts: ISE trials over all L, or IDS trials."""
    if label == "ise":
        with open(argv[argv.index("--plan") + 1]) as fh:
            plan = json.load(fh)
        return plan["trials"] * len(plan["L_values"])
    if label == "ids":
        sizes = argv[argv.index("--L") + 1].split(",")
        trials = int(argv[argv.index("--trials") + 1])
        return trials * len(sizes)
    return 0
