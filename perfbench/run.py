"""Benchmark of the iselab command line, end to end and by layer.

    python3 perfbench/run.py --workload ise_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh Python process
(`rep.py`) that imports iselab from `src/` and makes the workload's CLI
calls through `iselab.cli.main`; repetitions run one after another until
the next would end after `--seconds`.  Every repetition's output is checked
against `expected.json`.  `--trace 0` reports the end-to-end metrics as
medians over repetitions.  `--trace 1` alternates untraced and traced
repetitions and reports per-layer medians of the traced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and the spread of each metric.  Exit code 0 means every
output was correct; 1 means a check failed; 2 means the program could not
be run at all, and then no result line is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(
    {f"{layer}.self_s": "s" for layer in
     ("rng", "potentials", "grid", "operators", "eigensolve", "events",
      "ucp", "ise", "plotting", "cli")},
    **{"ise.band_edge_s": "s", "ise.band_edge_calls": "count",
       "eigensolve.shift_invert_s": "s", "eigensolve.eigsh_calls": "count",
       "eigensolve.eigsh_retries": "count",
       "eigensolve.eigsh_per_query": "ratio",
       "eigensolve.dense_s": "s", "eigensolve.dense_calls": "count",
       "eigensolve.dense_n_max": "count",
       "eigensolve.factorize_s": "s", "eigensolve.factorize_calls": "count",
       "rng.draws": "count",
       "potentials.sample_s": "s", "potentials.sites_sampled": "count",
       "potentials.assemble_s": "s",
       "operators.assemble_s": "s", "operators.assemble_calls": "count",
       "grid.laplacian_cache_hit_ratio": "ratio",
       "events.indicator_s": "s", "events.ledger_s": "s",
       "ucp.equidistributed_s": "s", "ucp.lifting_s": "s", "ucp.gap_s": "s",
       "ucp.fit_s": "s", "ise.ids_s": "s",
       "ise.trial_s": "s", "ise.trial_ms_p50": "ms", "ise.trial_ms_p90": "ms",
       "ise.trials": "count", "ise.invalid_trials": "count",
       "ise.pool_s": "s", "process.cpu_per_wall": "ratio",
       "cli.write_s": "s", "plotting.svg_s": "s",
       "ise.unattributed_s": "s", "trace.overhead_s": "s"})

MIN_REPS = 3           # untraced; a traced run makes at least two of each
DEADLINE_S = 170.0     # the whole run must end well inside 180 s
WORK = os.path.join(ROOT, ".perfbench_work")


class ProgramMissing(Exception):
    """The checkout holds no runnable iselab."""


def _child_env(tmp):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = tmp   # pool semaphores and temp files stay in the checkout
    return env


def _spawn(args, log_path, env, timeout):
    """Run rep.py to completion in its own session; return its exit code."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "rep.py"),
                                 *args], stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def _tail(path, lines=20):
    with open(path) as fh:
        return "".join(fh.readlines()[-lines:])


def _source_record():
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "iselab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tally(calls, codes, out_dir):
    """(attempted, failed, {label: data}) for one repetition's calls.

    An operation is a CLI call or a trial one attempts; a non-zero exit and
    an invalid trial record each count as one failure.
    """
    attempted = failed = 0
    data = {}
    for (label, argv), code in zip(calls, codes):
        attempted += 1 + workloads.trials_in(label, argv)
        if code != 0:
            failed += 1
            continue
        data[label] = gate.load_data(os.path.join(out_dir, label), label)
        failed += gate.invalid_trials(label, data[label])
    return attempted, failed, data


def check(expected, data, calls):
    """Gate mismatches of one repetition's data against its expectation."""
    if expected is None:
        return ["no stored expectation for this input set"]
    problems = []
    for label, _ in calls:
        if label in data:
            problems += gate.compare(expected[label],
                                     gate.summarize(label, data[label]), label)
    return problems


def run_rep(index, calls, work, env, traced, deadline):
    rep_dir = os.path.join(work, f"rep{index}")
    sink = os.path.join(rep_dir, "sink")
    os.makedirs(sink)
    job_path = os.path.join(rep_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump({"calls": calls, "out": os.path.join(rep_dir, "out"),
                   "trace": traced, "sink": sink}, fh)
    result_path = os.path.join(rep_dir, "result.json")
    log_path = os.path.join(rep_dir, "log.txt")
    t_spawn = time.monotonic()
    code = _spawn([job_path, result_path], log_path, env,
                  deadline - t_spawn)
    if code != 0 or not os.path.isfile(result_path):
        print(f"repetition {index} ended with {code}:\n{_tail(log_path)}",
              file=sys.stderr)
        return None, rep_dir
    with open(result_path) as fh:
        rep = json.load(fh)
    rep["setup_s"] = rep["t_ready"] - t_spawn
    rep["traced"] = traced
    rep["elapsed_s"] = time.monotonic() - t_spawn
    return rep, rep_dir


def measure(workload, seed, seconds, trace, expected,
            builders=workloads.WORKLOADS):
    """Run one benchmark run; return (result, info) as printed."""
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "iselab", "cli.py")):
        raise ProgramMissing("src/iselab/cli.py not found")
    info = {"workload": workload, "seed": seed, "input_sets": [],
            "loadavg_at_start": os.getloadavg(), **_source_record()}
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    try:
        env = _child_env(tmp)
        env_path = os.path.join(work, "env.json")
        log_path = os.path.join(work, "env.log")
        if _spawn(["--env", env_path], log_path, env, 60.0) != 0:
            raise ProgramMissing(_tail(log_path))
        with open(env_path) as fh:
            info["env"] = json.load(fh)
        reps, problems = [], []
        attempted = failed = 0
        min_reps = 2 * 2 if trace else MIN_REPS
        while True:
            # a traced run pairs each traced repetition with an untraced
            # one on the same inputs
            traced = bool(trace) and len(reps) % 2 == 1
            input_set = (seed + len(reps) // (2 if trace else 1)) \
                % workloads.INPUT_SETS
            info["input_sets"].append(input_set)
            calls = workloads.build(
                workload, input_set,
                os.path.join(work, "inputs", str(input_set)), builders)
            want = expected.get(workload, {}).get(str(input_set))
            rep, rep_dir = run_rep(len(reps), calls, work, env, traced,
                                   deadline)
            codes = rep["codes"] if rep else [None] * len(calls)
            a, f, data = tally(calls, codes, os.path.join(rep_dir, "out"))
            attempted, failed = attempted + a, failed + f
            if rep is None:
                problems.append(f"repetition {len(reps)} produced no result")
                break
            problems += check(want, data, calls)
            if traced:
                problems += [f"wrapper left installed: {w}"
                             for w in rep["leftover_wrappers"]]
                if abs(rep["accounted_s"] - rep["wall_s"]) > 1e-6:
                    problems.append("span self times do not add up to wall")
            shutil.rmtree(rep_dir)
            rep["trials"] = sum(workloads.trials_in(label, argv)
                                for label, argv in calls)
            reps.append(rep)
            now = time.monotonic()
            done = (len(reps) >= min_reps and not (trace and len(reps) % 2)
                    and now - t_start + rep["elapsed_s"] > seconds)
            if done or now + rep["elapsed_s"] > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    untraced = [r for r in reps if not r["traced"]]
    per_rep = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "trials_per_s": [r["trials"] / r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = {name: [r["layers"][name] for r in traced]
                   for name in PER_LAYER if name != "trace.overhead_s"}
        per_rep["trace.overhead_s"] = [
            _median([r["wall_s"] for r in traced])
            - _median([r["wall_s"] for r in untraced])]
        info["absent"] = sorted({a for r in traced for a in r["absent"]})
        info["workers_merged"] = [r["workers_merged"] for r in traced]
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": _median(per_rep[name]), "unit": units[name]}
               for name in units}
    info["spread"] = {name: {"n": len(v), "min": min(v, default=None),
                             "max": max(v, default=None)}
                      for name, v in per_rep.items()}
    info["failed_frac"] = failed / attempted if attempted else 1.0
    info["problems"] = problems[:20]
    result = {"correct": not problems and bool(reps),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return result, info


def _median(values):
    """Median; 0.0 for a run whose first repetition failed (correct=false)."""
    return statistics.median(values) if values else 0.0


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = measure(args.workload, args.seed, args.seconds,
                               args.trace, load_expected())
    except ProgramMissing as exc:
        print(f"cannot run iselab: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
