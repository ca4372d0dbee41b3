"""Command-line entry points.

Each `cmd_*` computes, prints and returns `(exit_code, artifacts)`, where
`artifacts` maps a file name to its payload: a JSON-able object for
`.json`, `(columns, rows)` for `.csv` and text for `.svg`.  `main` times
the whole subcommand, runs it with every loaded OpenBLAS on one thread
(`eigensolve.one_blas_thread`; `--workers` is the parallelism), builds one
run manifest (tool version, content hash, parameters, wall clock, worker
count, number of BLAS libraries pinned) and, with `--out`, writes every
artifact with that manifest, also on an assertion failure.  The parameters
are every parsed flag except `--out` and `--workers`; `ise` records its
resolved plan, less its worker count, and seed.  Rerunning with the same
manifest parameters reproduces the data sections byte for byte.  Exit
codes: 0 success, 1 input error, 2 solver failure, 3 assertion failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from functools import lru_cache

import numpy as np

from . import __version__, rng
from .errors import (EventViolatedError, GapNotFoundError, IselabError,
                     ScaleWindowError, SearchBudgetError, SolverError)
from .eigensolve import T_GRID_RULE, background_eigs_below, one_blas_thread
from .events import (EventSpec, build_ledger, event_choice,
                     exact_event_probability, min_scale_for_probability,
                     monte_carlo_event_probability, scale_window)
from .grid import GridSpec
from .ise import (BAND_EDGE_MODES, ExperimentPlan, band_edge_of_background,
                  estimate_ise_probability, ids_estimate)
from .plotting import ids_curve_svg, ise_trend_svg
from .potentials import DisorderConfiguration, load_model
from .ucp import (FitSample, LiftingRecord, event_balls, fit_ucp_constant,
                  lifting_experiment, mass_ratio, random_subspace_vectors,
                  verify_gap_hypothesis)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_ASSERTION = 3

_INPUT_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError,
                 ScaleWindowError)
_SOLVER_ERRORS = (SolverError, GapNotFoundError, SearchBudgetError)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_manifest(subcommand, params, wall_clock_s, workers=1, blas_pinned=0):
    digest = hashlib.sha256(
        _canonical({"version": __version__, "subcommand": subcommand,
                    "params": params}).encode()).hexdigest()
    return {"version": __version__, "content_hash": digest,
            "subcommand": subcommand, "params": params,
            "wall_clock_s": round(wall_clock_s, 6), "workers": workers,
            "blas_pinned": blas_pinned}


def _fmt_field(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_json(path, manifest, data):
    with open(path, "w") as fh:
        json.dump({"manifest": manifest, "data": data},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, manifest, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {_canonical(manifest)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_field(x) for x in row])


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _run(args):
    """Run the subcommand on one BLAS thread, then stamp one manifest on
    every artifact."""
    t0 = time.perf_counter()
    with one_blas_thread() as blas_pinned:
        code, artifacts = globals()[args.func](args)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "subcommand")}
    workers = params.pop("workers", 1)
    manifest = make_manifest(args.subcommand, params,
                             time.perf_counter() - t0, workers, blas_pinned)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, payload in artifacts.items():
            path = os.path.join(args.out, name)
            if name.endswith(".json"):
                _write_json(path, manifest, payload)
            elif name.endswith(".csv"):
                _write_csv(path, manifest, *payload)
            else:
                _write_text(path, payload)
    return code


def _grid(args):
    return GridSpec.per_unit(args.d, args.L, args.points_per_unit,
                             args.boundary)


def _event_side(args):
    """--L as an int: the good event's integer cells tile a whole side."""
    if not float(args.L).is_integer():
        raise ValueError(f"--L {args.L:g} is not a whole number: the good "
                         "event needs a whole box side")
    return int(args.L)


# --------------------------------------------------------------------------
# subcommands

def cmd_bands(args):
    model = load_model(args.model)
    a, b = band_edge_of_background(_grid(args), model.background,
                                   hint=args.hint, mode=args.mode)
    print(f"band edge b = {b:.12g}"
          + ("" if math.isinf(a) else f", gap lower edge a = {a:.12g}"))
    return EXIT_OK, {"bands.json": {
        "gap_lower": None if math.isinf(a) else a, "band_edge": b}}


def cmd_event_prob(args):
    spec = EventSpec(dimension=args.d, l=args.l, L=args.L,
                     eta=args.eta, kappa=args.kappa)
    exact = exact_event_probability(spec)
    data = {"exact": exact, "d": args.d, "l": args.l, "L": args.L,
            "kappa": args.kappa, "eta": args.eta}
    print(f"{exact:.6e}")
    if args.trials:
        if args.seed is None:
            raise ValueError("--seed is required with --trials")
        p_hat, lo, hi = monte_carlo_event_probability(spec, args.trials,
                                                      args.seed)
        data["monte_carlo"] = {"trials": args.trials, "seed": args.seed,
                               "p_hat": p_hat, "ci_lo": lo, "ci_hi": hi}
        print(f"monte carlo: {p_hat:.6e} in [{lo:.6e}, {hi:.6e}]")
    return EXIT_OK, {"event_prob.json": data}


def cmd_scale(args):
    l, x = scale_window(args.L, args.alpha)
    print(f"l = {l} (window ({x / 2:.12g}, {x:.12g}])")
    data = {"l": l, "window": [x / 2, x], "L": args.L, "alpha": args.alpha}
    code = EXIT_OK
    if args.q is not None:
        ledger = build_ledger(args.d, args.L, args.alpha, args.q,
                              args.kappa, args.eta, args.c)
        data["ledger"] = ledger.to_json()
        print(f"ledger verdict: {ledger.verdict}")
        for line in ledger.failing():
            print(f"  failing: {line.name}")
        data["smallest_L"] = min_scale_for_probability(
            args.d, args.alpha, args.q, args.kappa, args.eta, args.c)
        print(f"smallest true L (None past e^700): {data['smallest_L']}")
        if not ledger.verdict:
            code = EXIT_ASSERTION
    return code, {"scale.json": data}


def _event_configuration(model, spec, seed, attempts):
    """First seeded configuration lying in the good event."""
    if attempts < 1:
        raise ValueError("need at least one attempt")
    for attempt in range(attempts):
        child = rng.derive_seed(seed, rng.EVENT_TRIALS, (spec.l, attempt))
        cfg = DisorderConfiguration(child, model.disorder)
        if event_choice(cfg, spec) is not None:
            return cfg
    raise SearchBudgetError(
        f"no configuration in the event after {attempts} attempts")


def cmd_lift(args):
    side = _event_side(args)
    model = load_model(args.model)
    grid = _grid(args)
    _, b = band_edge_of_background(grid, model.background, hint=args.hint,
                                   mode=args.mode)
    box = model.box(grid)
    records = []
    for l in (int(s) for s in args.scales.split(",")):
        spec = EventSpec(dimension=args.d, l=l, L=side,
                         eta=model.disorder.eta, kappa=model.disorder.kappa)
        cfg = _event_configuration(model, spec, args.seed, args.attempts)
        records.append(lifting_experiment(
            box, cfg, spec, b, model.disorder.eta, model.coupling_floor))
    for r in records:
        print(f"l={r.l}: observed lift {r.observed_lift:.6e} "
              f"(floor {r.predicted_floor:.6e}, sandwich "
              f"{'ok' if r.sandwich_ok else 'VIOLATED'})")
    code = EXIT_OK if all(r.sandwich_ok for r in records) else EXIT_ASSERTION
    return code, {
        "lift.json": [r.to_json() for r in records],
        "lift.csv": (LiftingRecord.CSV_COLUMNS, [r.csv_row() for r in records]),
    }


def cmd_ucp(args):
    model = load_model(args.model)
    grid = _grid(args)
    spec = EventSpec(dimension=args.d, l=args.l, L=_event_side(args),
                     eta=model.disorder.eta, kappa=model.disorder.kappa)
    cfg = _event_configuration(model, spec, args.seed, args.attempts)
    box = model.box(grid)
    mask, _ = event_balls(box, event_choice(cfg, spec))
    values, basis = background_eigs_below(grid, model.background, args.energy)
    if values.size == 0:
        raise ValueError("no eigenvalues below the requested energy")
    v_inf = args.v_inf
    if v_inf is None:
        v_inf = float(np.max(np.abs(box.v0)))
    vectors = random_subspace_vectors(basis, args.count, args.seed)
    samples = [FitSample(delta=model.ball_radius, l=float(args.l),
                         v_inf=v_inf, energy=args.energy,
                         ratio=mass_ratio(v, mask)) for v in vectors]
    fitted, per_sample = fit_ucp_constant(samples)
    print(f"fitted constant N = {fitted:.6g} over {len(samples)} samples "
          f"(subspace dim {values.size})")
    return EXIT_OK, {"ucp.json": {
        "fitted_constant": fitted,
        "per_sample_constants": per_sample,
        "ratios": [s.ratio for s in samples],
        "subspace_dimension": values.size,
        "v_inf": v_inf,
    }}


def cmd_gap(args):
    model = load_model(args.model)
    grid = _grid(args)
    if args.t_steps < 2:   # a grid from t = 0 to t = 1 needs both ends
        raise ValueError(T_GRID_RULE)
    t_grid = [i / (args.t_steps - 1) for i in range(args.t_steps)]
    report = verify_gap_hypothesis(model.box(grid), (args.a, args.b),
                                   t_grid)
    if report.ok:
        print(f"window ({args.a:g}, {args.b:g}) stays spectrum-free for "
              "every t in [0, 1]")
    else:
        first = "".join(f", first at t={t:g}, E={e:.12g}"
                        for t, e in report.intrusions[:1])
        print(f"{report.crossings} eigenvalue branch(es) cross the window; "
              f"{len(report.intrusions)} intrusion(s) sampled{first}")
    code = EXIT_OK if report.ok else EXIT_ASSERTION
    return code, {"gap.json": report.to_json()}


def cmd_ise(args):
    with open(args.plan) as fh:
        plan_spec = json.load(fh)
    if args.seed is not None:
        plan_spec["seed"] = args.seed
    if args.workers is not None:
        plan_spec["workers"] = args.workers
    plan = ExperimentPlan.from_json(plan_spec)
    # the manifest records the resolved plan and seed; the worker count,
    # which changes no data, goes to its "workers" field and not the hash
    plan_spec.pop("workers", None)
    args.plan, args.seed, args.workers = (plan_spec, plan.master_seed,
                                          plan.workers)
    report = estimate_ise_probability(plan)
    for p in report.per_L:
        verdict = "-" if p.ledger is None else str(p.ledger.verdict)
        print(f"L={p.L}: p_hat={p.p_hat:.4f} "
              f"ci=({p.ci_lo:.4f},{p.ci_hi:.4f}) valid={p.valid} "
              f"events={p.event_count} lift_certified={p.lift_certified} "
              f"floor_certified={p.floor_certified} ledger={verdict}")
    return EXIT_OK, {
        "ise.json": report.to_json(),
        "ise.csv": (report.CSV_COLUMNS, report.csv_rows()),
        "ise.svg": ise_trend_svg(report),
    }


def cmd_ids(args):
    model = load_model(args.model)
    e_grid = list(np.linspace(args.e_min, args.e_max, args.e_steps))
    out = []
    for L in (float(s) for s in args.L.split(",")):
        rec = ids_estimate(model, L, e_grid, args.trials, args.seed,
                           args.e0, points_per_unit=args.points_per_unit,
                           boundary=args.boundary, dimension=args.d)
        out.append((L, rec))
        defined = sum(1 for v in rec.double_log if v is not None)
        print(f"L={L:g}: N({args.e_max:g}) = {rec.counting[-1]:.6g}, "
              f"double-log statistic defined at {defined}/{len(e_grid)} "
              "energies")
    return EXIT_OK, {
        "ids.json": [{"L": L, **rec.to_json()} for L, rec in out],
        "ids.svg": ids_curve_svg(out, args.e0),
    }


# --------------------------------------------------------------------------
# parser plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_grid_flags(p):
    p.add_argument("--model", required=True, help="potential model JSON file")
    p.add_argument("--L", type=float, required=True, help="box side")
    p.add_argument("--d", type=int, default=2, help="dimension")
    p.add_argument("--points-per-unit", type=int, default=9,
                   help="grid nodes per unit length")
    p.add_argument("--boundary", default="periodic",
                   choices=("dirichlet", "neumann", "periodic"))


@lru_cache(maxsize=1)
def build_parser():
    """The iselab parser, built once per process: parsing leaves it as it
    is, so every main() call in a process shares it."""
    parser = _Parser(prog="iselab",
                     description="Random Schrodinger box-spectrum laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="directory for JSON/CSV/SVG artifacts")
        # by name, looked up when the command runs: the parser is built
        # once per process, and a command replaced later must still be the
        # one that runs
        p.set_defaults(func=func.__name__)
        return p

    p = add("bands", cmd_bands,
            "locate a spectral gap or band edge of the background operator")
    _add_grid_flags(p)
    p.add_argument("--hint", type=float, help="energy near the target gap")
    p.add_argument("--mode", default="gap", choices=BAND_EDGE_MODES)

    p = add("event-prob", cmd_event_prob,
            "exact and Monte Carlo probability of the good-configuration event")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = add("scale", cmd_scale, "scale selection and the bound ledger")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=float,
                   help="evaluate the full ledger at this target exponent")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--c", type=float, default=1.0)

    p = add("lift", cmd_lift,
            "eigenvalue-lifting sweep conditioned on the good event")
    _add_grid_flags(p)
    p.add_argument("--hint", type=float)
    p.add_argument("--mode", default="gap", choices=BAND_EDGE_MODES)
    p.add_argument("--scales", default="1,3,5",
                   help="comma-separated cell sides")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--attempts", type=int, default=200,
                   help="seeded draws allowed to hit the event")

    p = add("ucp", cmd_ucp, "mass-ratio sweep and constant fit for the "
                            "continuation lower bound")
    _add_grid_flags(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--energy", type=float, required=True,
                   help="subspace energy cutoff")
    p.add_argument("--count", type=int, default=24,
                   help="random subspace vectors")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--v-inf", type=float,
                   help="potential sup norm; measured on the grid if omitted")
    p.add_argument("--attempts", type=int, default=200)

    p = add("gap", cmd_gap, "check a spectral window stays empty along the "
                            "interpolated family")
    _add_grid_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t-steps", type=int, default=21,
                   help="sampled only to list a failing window's intrusions")

    p = add("ise", cmd_ise,
            "estimate the spectral-window hit rate over a plan of box sizes")
    p.add_argument("--plan", required=True, help="experiment plan JSON")
    p.add_argument("--seed", type=int, help="override the plan seed")
    p.add_argument("--workers", type=int)

    p = add("ids", cmd_ids, "trial-averaged eigenvalue counting and the "
                            "double-log edge statistic")
    p.add_argument("--model", required=True)
    p.add_argument("--L", required=True, help="comma-separated box sizes")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--points-per-unit", type=int, default=9)
    p.add_argument("--boundary", default="periodic",
                   choices=("dirichlet", "neumann", "periodic"))
    p.add_argument("--e-min", type=float, required=True)
    p.add_argument("--e-max", type=float, required=True)
    p.add_argument("--e-steps", type=int, default=25)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--e0", type=float, required=True,
                   help="reference energy for the edge statistic")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except EventViolatedError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
