"""One repetition in a fresh process.

    python3 perfbench/rep.py JOB.json RESULT.json   # run the job's CLI calls
    python3 perfbench/rep.py --env RESULT.json      # record the environment

The job lists CLI calls; each runs through `iselab.cli.main` in this
process with `--out` pointing into the job's output directory.  The result
records when set-up ended (`time.monotonic`, comparable with the parent's
clock), the exit codes, wall and CPU time of the calls, peak RSS, and, for
a traced job, the per-layer metrics.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def run_job(job):
    import iselab.cli

    t_ready = time.monotonic()
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(sink_dir=job["sink"])
        tracer.install()
    codes = []
    t0, cpu0 = time.perf_counter(), _cpu_s()
    try:
        for label, argv in job["calls"]:
            out = os.path.join(job["out"], label)
            try:
                codes.append(iselab.cli.main(argv + ["--out", out]))
            except Exception:
                traceback.print_exc()
                codes.append(-1)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result = {"t_ready": t_ready, "codes": codes, "wall_s": wall,
              "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        from tracer import installed_wrappers
        result["accounted_s"] = (sum(tracer.self_time.values())
                                 + wall - tracer.covered)
        result["workers_merged"] = tracer.merge_children()
        result["layers"] = tracer.metrics(wall, cpu)
        result["absent"] = tracer.absent
        result["leftover_wrappers"] = installed_wrappers()
    return result


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def environment():
    import numpy
    import scipy

    import iselab.cli  # noqa: F401  (fails here if the program is missing)

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": blas(numpy.show_config),
                     "scipy": blas(scipy.show_config)},
            "blas_threads": _blas_threads(),
            "blas_thread_env": {k: v for k, v in os.environ.items()
                                if k.endswith("_NUM_THREADS")}}


def main(argv):
    if argv[0] == "--env":
        result, out = environment(), argv[1]
    else:
        with open(argv[0]) as fh:
            job = json.load(fh)
        result, out = run_job(job), argv[1]
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
