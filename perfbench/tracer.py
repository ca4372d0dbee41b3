"""Per-layer timings of iselab, recorded from outside the package.

`Tracer.install()` replaces module-level names in every loaded `iselab`
module (and methods on a few classes) with timing wrappers; `uninstall()`
puts every original back.  Each wrapped call is a span.  A span's self time
is its duration minus the time its child spans cover, so the self times of
all spans plus the uncovered remainder add up to the wall time of the
traced call.

Pool workers forked while the tracer is installed inherit the wrappers.
They start with empty statistics and write them to `sink_dir` after every
outermost span; `merge_children()` adds them to the parent's.  A worker
started by spawn or forkserver imports iselab afresh and is not traced.

A target that does not exist at the traced commit is skipped and listed in
`absent`; its metrics read 0.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "potentials", "grid", "operators", "eigensolve", "events",
          "ucp", "ise", "plotting", "cli")

# span name -> (defining module, attribute).  The layer is the part of the
# span name before the first dot.  Library solvers count under eigensolve:
# they are the spectral primitive whichever iselab module calls them.
TARGETS = {
    "rng.stream": ("iselab.rng", "stream"),
    "rng.uniform_at": ("iselab.rng", "uniform_at"),
    "rng.derive_seed": ("iselab.rng", "derive_seed"),
    "potentials.load_model": ("iselab.potentials", "load_model"),
    "potentials.sample_configuration":
        ("iselab.potentials", "sample_configuration"),
    "potentials.assemble_random_potential":
        ("iselab.potentials", "assemble_random_potential"),
    "potentials.assemble_w": ("iselab.potentials", "assemble_w"),
    "grid.laplacian_matrix": ("iselab.grid", "laplacian_matrix"),
    "grid.nodes": ("iselab.grid", "GridSpec.nodes"),
    "grid.nodes_within_ball": ("iselab.grid", "GridSpec.nodes_within_ball"),
    "operators.assemble_background":
        ("iselab.operators", "assemble_background"),
    "operators.assemble_hamiltonian":
        ("iselab.operators", "assemble_hamiltonian"),
    "operators.assemble_interpolated":
        ("iselab.operators", "assemble_interpolated"),
    "operators.assemble_test_perturbation":
        ("iselab.operators", "assemble_test_perturbation"),
    "operators.mask_from_balls": ("iselab.operators", "mask_from_balls"),
    "eigensolve.min_eig_above": ("iselab.eigensolve", "min_eig_above"),
    "eigensolve.lowest_eig_above": ("iselab.eigensolve", "lowest_eig_above"),
    "eigensolve.eigs_below": ("iselab.eigensolve", "eigs_below"),
    "eigensolve.eigs_in_window": ("iselab.eigensolve", "eigs_in_window"),
    "eigensolve.smallest_eigs": ("iselab.eigensolve", "smallest_eigs"),
    "eigensolve.track_family": ("iselab.eigensolve", "track_family"),
    "eigensolve.eigsh": ("scipy.sparse.linalg", "eigsh"),
    "eigensolve.splu": ("scipy.sparse.linalg", "splu"),
    "eigensolve.factorized": ("scipy.sparse.linalg", "factorized"),
    "eigensolve.eigh": ("scipy.linalg", "eigh"),
    "eigensolve.eigvalsh": ("scipy.linalg", "eigvalsh"),
    "eigensolve.eigh_tridiagonal": ("scipy.linalg", "eigh_tridiagonal"),
    "events.event_A_indicator": ("iselab.events", "event_A_indicator"),
    "events.build_ledger": ("iselab.events", "build_ledger"),
    "events.select_scale": ("iselab.events", "select_scale"),
    "ucp.equidistributed_from_event":
        ("iselab.ucp", "equidistributed_from_event"),
    "ucp.lifting_experiment": ("iselab.ucp", "lifting_experiment"),
    "ucp.verify_gap_hypothesis": ("iselab.ucp", "verify_gap_hypothesis"),
    "ucp.fit_ucp_constant": ("iselab.ucp", "fit_ucp_constant"),
    "ucp.mass_ratio": ("iselab.ucp", "mass_ratio"),
    "ucp.random_subspace_vectors": ("iselab.ucp", "random_subspace_vectors"),
    "ise.band_edge_of_background": ("iselab.ise", "band_edge_of_background"),
    "ise.estimate_ise_probability": ("iselab.ise", "estimate_ise_probability"),
    "ise.run_ise_trial": ("iselab.ise", "run_ise_trial"),
    "ise.ids_estimate": ("iselab.ise", "ids_estimate"),
    "ise.pool": ("concurrent.futures", "ProcessPoolExecutor"),
    "plotting.ise_trend_svg": ("iselab.plotting", "ise_trend_svg"),
    "plotting.ids_curve_svg": ("iselab.plotting", "ids_curve_svg"),
    "cli.write_json": ("iselab.cli", "_write_json"),
    "cli.write_csv": ("iselab.cli", "_write_csv"),
    "cli.write_text": ("iselab.cli", "_write_text"),
}

# Public spectral queries: an outermost one of these is one query for the
# ARPACK-calls-per-query ratio.
QUERIES = frozenset({
    "eigensolve.min_eig_above", "eigensolve.lowest_eig_above",
    "eigensolve.eigs_below", "eigensolve.eigs_in_window",
    "eigensolve.smallest_eigs", "ise.band_edge_of_background",
})
DENSE = ("eigensolve.eigh", "eigensolve.eigvalsh", "eigensolve.eigh_tridiagonal")
FACTORIZE = ("eigensolve.splu", "eigensolve.factorized")
ASSEMBLY = ("operators.assemble_background", "operators.assemble_hamiltonian",
            "operators.assemble_interpolated",
            "operators.assemble_test_perturbation")
WRITERS = ("cli.write_json", "cli.write_csv", "cli.write_text")

_MARK = "__perfbench_span__"


def _resolve(module, attr):
    """(owner, name, object) for a dotted attribute, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class _Frame:
    __slots__ = ("name", "child", "eigsh")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.eigsh = 0


class Tracer:
    def __init__(self, sink_dir=None):
        self.sink_dir = sink_dir
        self.restore = []
        self.absent = []
        self._in_child = False
        self._active = False
        self._fork_hook = False
        self._reset()

    def _reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.covered = 0.0        # summed durations of outermost spans
        self.stack = []
        self.query = None         # outermost open query frame

    # ------------------------------------------------------------------
    # spans

    def enter(self, name):
        frame = _Frame(name)
        if name in QUERIES and self.query is None:
            self.query = frame
        self.stack.append(frame)
        return frame, time.perf_counter()

    def exit(self, token):
        frame, t0 = token
        dt = time.perf_counter() - t0
        self.stack.pop()
        name = frame.name
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame.child
        if frame is self.query:
            self.query = None
            if frame.eigsh:
                self.counters["eigsh_queries"] += 1
                self.counters["eigsh_in_queries"] += frame.eigsh
        if self.stack:
            self.stack[-1].child += dt
        else:
            self.covered += dt
            if self._in_child:
                self._dump()
        return dt

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.enter(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = tracer.exit(token)
                if observe is not None:
                    observe(args, kwargs, result, error, dt)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _wrap_pool(self, cls):
        tracer = self

        class TracedPool(cls):
            def __enter__(self):
                self._perfbench_token = tracer.enter("ise.pool")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer.exit(self._perfbench_token)

        setattr(TracedPool, _MARK, "ise.pool")
        return TracedPool

    # ------------------------------------------------------------------
    # observers: counters beyond calls and time

    def _observe_eigsh(self, args, kwargs, result, error, dt):
        self.counters["eigsh_calls"] += 1
        if error is not None:
            self.counters["eigsh_retries"] += 1
        if kwargs.get("sigma") is not None:
            self.counters["shift_invert_s"] += dt
        if self.query is not None:
            self.query.eigsh += 1

    def _observe_dense(self, args, kwargs, result, error, dt):
        if args and hasattr(args[0], "shape"):
            n = int(args[0].shape[0])
            self.counters["dense_n_max"] = max(self.counters["dense_n_max"], n)

    _observe_eigh = _observe_eigvalsh = _observe_dense

    def _observe_sample_configuration(self, args, kwargs, result, error, dt):
        sites = args[1] if len(args) > 1 else kwargs.get("sites", ())
        self.counters["sites_sampled"] += len(sites)

    def _observe_run_ise_trial(self, args, kwargs, result, error, dt):
        self.samples["trial_ms"].append(1e3 * dt)
        if error is not None or not result.get("valid", False):
            self.counters["invalid_trials"] += 1

    def _wrap_cached(self, name, fn):
        """laplacian_matrix: also count cache hits through cache_info()."""
        wrapper = self._wrap(name, fn)
        if not hasattr(fn, "cache_info"):
            return wrapper

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            before = fn.cache_info().hits
            try:
                return wrapper(*args, **kwargs)
            finally:
                hit = fn.cache_info().hits > before
                self.counters["laplacian_hits" if hit else
                              "laplacian_misses"] += 1

        setattr(counting, _MARK, name)
        return counting

    # ------------------------------------------------------------------
    # installation

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "iselab"
                                         or n.startswith("iselab."))]
        for span, (module, attr) in TARGETS.items():
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(span)
                continue
            owner, name, original = found
            if span == "ise.pool":
                wrapped = self._wrap_pool(original)
            elif span == "grid.laplacian_matrix":
                wrapped = self._wrap_cached(span, original)
            else:
                wrapped = self._wrap(span, original)
            if "." in attr:
                places = [(owner, name)]
            else:
                places = [(m, key) for m in modules
                          for key, value in list(vars(m).items())
                          if value is original]
            if not places:
                self.absent.append(span)
            for place, key in places:
                self.restore.append((place, key, original))
                setattr(place, key, wrapped)
        self._active = True
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def uninstall(self):
        for place, key, original in reversed(self.restore):
            setattr(place, key, original)
        self.restore = []
        self._active = False

    def _after_fork(self):
        if self._active:
            self._reset()
            self._in_child = True

    def _dump(self):
        if self.sink_dir is None:
            return
        path = os.path.join(self.sink_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self._state(), fh)
        os.replace(path + ".tmp", path)

    def _state(self):
        return {"calls": self.calls, "total": self.total,
                "self_time": self.self_time, "counters": self.counters,
                "samples": self.samples}

    def merge_children(self):
        """Add the statistics pool workers wrote to sink_dir."""
        if self.sink_dir is None:
            return 0
        merged = 0
        for entry in sorted(os.listdir(self.sink_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            with open(os.path.join(self.sink_dir, entry)) as fh:
                state = json.load(fh)
            for key in ("calls", "total", "self_time", "counters"):
                mine = getattr(self, key)
                for name, value in state[key].items():
                    if name == "dense_n_max":
                        mine[name] = max(mine[name], value)
                    else:
                        mine[name] += value
            for name, values in state["samples"].items():
                self.samples[name].extend(values)
            merged += 1
        return merged

    # ------------------------------------------------------------------
    # metrics

    def metrics(self, wall_s, cpu_s):
        """Per-layer metric values for one traced repetition.

        Before `merge_children()`, the `<layer>.self_s` values plus
        `ise.unattributed_s` add up to `wall_s`.  After it they include pool
        workers' busy time, so on a pooled run they sum to more.
        """
        total, calls, c = self.total, self.calls, self.counters
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in self.self_time.items()
                if k.split(".", 1)[0] == layer)
        m["ise.band_edge_s"] = total["ise.band_edge_of_background"]
        m["ise.band_edge_calls"] = calls["ise.band_edge_of_background"]
        m["eigensolve.shift_invert_s"] = float(c["shift_invert_s"])
        m["eigensolve.eigsh_calls"] = c["eigsh_calls"]
        m["eigensolve.eigsh_retries"] = c["eigsh_retries"]
        m["eigensolve.eigsh_per_query"] = (
            c["eigsh_in_queries"] / c["eigsh_queries"]
            if c["eigsh_queries"] else 0.0)
        m["eigensolve.dense_s"] = sum(total[k] for k in DENSE)
        m["eigensolve.dense_calls"] = sum(calls[k] for k in DENSE)
        m["eigensolve.dense_n_max"] = c["dense_n_max"]
        m["eigensolve.factorize_s"] = sum(total[k] for k in FACTORIZE)
        m["eigensolve.factorize_calls"] = sum(calls[k] for k in FACTORIZE)
        m["rng.draws"] = calls["rng.uniform_at"]
        m["potentials.sample_s"] = total["potentials.sample_configuration"]
        m["potentials.sites_sampled"] = c["sites_sampled"]
        m["potentials.assemble_s"] = (
            total["potentials.assemble_random_potential"]
            + total["potentials.assemble_w"])
        m["operators.assemble_s"] = sum(self.self_time[k] for k in ASSEMBLY)
        m["operators.assemble_calls"] = sum(calls[k] for k in ASSEMBLY)
        lookups = c["laplacian_hits"] + c["laplacian_misses"]
        m["grid.laplacian_cache_hit_ratio"] = (
            c["laplacian_hits"] / lookups if lookups else 0.0)
        m["events.indicator_s"] = total["events.event_A_indicator"]
        m["events.ledger_s"] = total["events.build_ledger"]
        m["ucp.equidistributed_s"] = total["ucp.equidistributed_from_event"]
        m["ucp.lifting_s"] = total["ucp.lifting_experiment"]
        m["ucp.gap_s"] = total["ucp.verify_gap_hypothesis"]
        m["ucp.fit_s"] = total["ucp.fit_ucp_constant"]
        m["ise.ids_s"] = total["ise.ids_estimate"]
        trial_ms = self.samples["trial_ms"]
        m["ise.trial_s"] = total["ise.run_ise_trial"]
        m["ise.trials"] = calls["ise.run_ise_trial"]
        m["ise.invalid_trials"] = c["invalid_trials"]
        m["ise.trial_ms_p50"] = statistics.median(trial_ms) if trial_ms else 0.0
        m["ise.trial_ms_p90"] = (
            statistics.quantiles(trial_ms, n=10, method="inclusive")[-1]
            if len(trial_ms) > 1 else (trial_ms[0] if trial_ms else 0.0))
        m["ise.pool_s"] = total["ise.pool"]
        m["process.cpu_per_wall"] = cpu_s / wall_s
        m["cli.write_s"] = sum(total[k] for k in WRITERS)
        m["plotting.svg_s"] = (total["plotting.ise_trend_svg"]
                               + total["plotting.ids_curve_svg"])
        m["ise.unattributed_s"] = wall_s - self.covered
        return m


def installed_wrappers():
    """(owner, name) of every perfbench wrapper left in iselab modules."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "iselab"
                               or mod_name.startswith("iselab.")):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append((mod_name, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append((f"{mod_name}.{key}", attr))
    return found
