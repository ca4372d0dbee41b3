"""Command-line entry points.

Every artifact embeds a run manifest (tool version, input hash, resolved
parameters, wall clock, worker count); rerunning with the same manifest
parameters reproduces the data sections byte for byte.  Exit codes:
0 success, 1 input error, 2 solver failure, 3 assertion failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, rng
from .errors import (EventViolatedError, GapNotFoundError, IselabError,
                     ScaleWindowError, SearchBudgetError, SolverError)
from .eigensolve import background_eigs_below
from .events import (EventSpec, build_ledger, event_A_indicator,
                     exact_event_probability, monte_carlo_event_probability,
                     select_scale)
from .grid import GridSpec
from .ise import (ExperimentPlan, band_edge_of_background,
                  estimate_ise_probability, ids_estimate)
from .plotting import ids_curve_svg, ise_trend_svg
from .potentials import load_model, sample_configuration
from .ucp import (FitSample, LiftingRecord, equidistributed_from_event,
                  fit_ucp_constant, lifting_experiment, mass_ratio,
                  random_subspace_vectors, verify_gap_hypothesis)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_ASSERTION = 3

_INPUT_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError,
                 ScaleWindowError)
_SOLVER_ERRORS = (SolverError, GapNotFoundError, SearchBudgetError)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunManifest:
    version: str
    content_hash: str
    subcommand: str
    params: dict
    wall_clock_s: float
    workers: int

    def to_json(self):
        return {
            "version": self.version,
            "content_hash": self.content_hash,
            "subcommand": self.subcommand,
            "params": self.params,
            "wall_clock_s": self.wall_clock_s,
            "workers": self.workers,
        }


def make_manifest(subcommand, params, wall_clock_s, workers=1):
    digest = hashlib.sha256(
        _canonical({"version": __version__, "subcommand": subcommand,
                    "params": params}).encode()).hexdigest()
    return RunManifest(__version__, digest, subcommand, params,
                       round(wall_clock_s, 6), workers)


def _fmt_field(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path, manifest, data):
    with open(path, "w") as fh:
        json.dump({"manifest": manifest.to_json(), "data": data},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, manifest, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {_canonical(manifest.to_json())}\r\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_field(x) for x in row])


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _grid(args):
    return GridSpec(dimension=args.d, side=float(args.L),
                    spacing=1.0 / args.points_per_unit, boundary=args.boundary)


# --------------------------------------------------------------------------
# subcommands

def cmd_bands(args):
    model = load_model(args.model)
    grid = _grid(args)
    t0 = time.perf_counter()
    a, b = band_edge_of_background(grid, model.background, hint=args.hint,
                                   mode=args.mode)
    params = {"model": args.model, "L": args.L, "d": args.d,
              "points_per_unit": args.points_per_unit,
              "boundary": args.boundary, "hint": args.hint, "mode": args.mode}
    manifest = make_manifest("bands", params, time.perf_counter() - t0)
    data = {"gap_lower": None if math.isinf(a) else a, "band_edge": b}
    print(f"band edge b = {b:.12g}"
          + ("" if math.isinf(a) else f", gap lower edge a = {a:.12g}"))
    if args.out:
        _write_json(_out_path(args, "bands.json"), manifest, data)
    return EXIT_OK


def cmd_event_prob(args):
    spec = EventSpec(dimension=args.d, l=args.l, L=args.L,
                     eta=args.eta, kappa=args.kappa)
    t0 = time.perf_counter()
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
    params = {k: getattr(args, k) for k in
              ("d", "l", "L", "kappa", "eta", "trials", "seed")}
    manifest = make_manifest("event-prob", params, time.perf_counter() - t0)
    if args.out:
        _write_json(_out_path(args, "event_prob.json"), manifest, data)
    return EXIT_OK


def cmd_scale(args):
    t0 = time.perf_counter()
    l = select_scale(args.L, args.alpha)
    x = (args.alpha * math.log(args.L)) ** (2.0 / 3.0)
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
        if not ledger.verdict:
            code = EXIT_ASSERTION
    params = {k: getattr(args, k) for k in
              ("L", "alpha", "d", "q", "kappa", "eta", "c")}
    manifest = make_manifest("scale", params, time.perf_counter() - t0)
    if args.out:
        _write_json(_out_path(args, "scale.json"), manifest, data)
    return code


def _event_configuration(model, spec, sites, seed, attempts):
    """First seeded configuration lying in the good event."""
    for attempt in range(attempts):
        child = rng.derive_seed(seed, rng.EVENT_TRIALS, (spec.l, attempt))
        cfg = sample_configuration(child, sites, model.disorder)
        if event_A_indicator(cfg, spec):
            return cfg
    raise SearchBudgetError(
        f"no configuration in the event after {attempts} attempts")


def cmd_lift(args):
    model = load_model(args.model)
    grid = _grid(args)
    t0 = time.perf_counter()
    _, b = band_edge_of_background(grid, model.background, hint=args.hint,
                                   mode=args.mode)
    scales = [int(s) for s in args.scales.split(",")]
    records = []
    for l in scales:
        spec = EventSpec(dimension=args.d, l=l, L=int(args.L),
                         eta=model.disorder.eta, kappa=model.disorder.kappa)
        sites = sorted(set(model.sites_for(grid)) | set(spec.required_sites()))
        cfg = _event_configuration(model, spec, sites, args.seed,
                                   args.attempts)
        profiles = model.profiles_for(grid)
        records.append(lifting_experiment(
            grid, model.background, cfg, spec, profiles, b,
            model.disorder.eta, model.coupling_floor))
    params = {"model": args.model, "L": args.L, "d": args.d,
              "points_per_unit": args.points_per_unit,
              "boundary": args.boundary, "hint": args.hint,
              "mode": args.mode, "scales": args.scales, "seed": args.seed,
              "attempts": args.attempts}
    manifest = make_manifest("lift", params, time.perf_counter() - t0)
    for r in records:
        print(f"l={r.l}: observed lift {r.observed_lift:.6e} "
              f"(floor {r.predicted_floor:.6e}, sandwich "
              f"{'ok' if r.sandwich_ok else 'VIOLATED'})")
    if args.out:
        _write_json(_out_path(args, "lift.json"), manifest,
                    [r.to_json() for r in records])
        _write_csv(_out_path(args, "lift.csv"), manifest,
                   LiftingRecord.CSV_COLUMNS, [r.csv_row() for r in records])
    if any(not r.sandwich_ok for r in records):
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_ucp(args):
    model = load_model(args.model)
    grid = _grid(args)
    t0 = time.perf_counter()
    spec = EventSpec(dimension=args.d, l=args.l, L=int(args.L),
                     eta=model.disorder.eta, kappa=model.disorder.kappa)
    sites = sorted(set(model.sites_for(grid)) | set(spec.required_sites()))
    cfg = _event_configuration(model, spec, sites, args.seed, args.attempts)
    profiles = model.profiles_for(grid)
    _, mask = equidistributed_from_event(cfg, spec, profiles, grid)
    window = background_eigs_below(grid, model.background, args.energy)
    if window.count == 0:
        raise ValueError("no eigenvalues below the requested energy")
    v_inf = args.v_inf
    if v_inf is None:
        v_inf = float(np.max(np.abs(model.background.evaluate(grid.nodes()))))
    vectors = random_subspace_vectors(window.vectors, args.count, args.seed)
    samples = [FitSample(delta=model.ball_radius, l=float(args.l),
                         v_inf=v_inf, energy=args.energy,
                         ratio=mass_ratio(v, mask)) for v in vectors]
    fitted, per_sample = fit_ucp_constant(samples)
    print(f"fitted constant N = {fitted:.6g} over {len(samples)} samples "
          f"(subspace dim {window.count})")
    params = {"model": args.model, "L": args.L, "d": args.d, "l": args.l,
              "points_per_unit": args.points_per_unit,
              "boundary": args.boundary, "energy": args.energy,
              "count": args.count, "seed": args.seed, "v_inf": args.v_inf,
              "attempts": args.attempts}
    manifest = make_manifest("ucp", params, time.perf_counter() - t0)
    if args.out:
        _write_json(_out_path(args, "ucp.json"), manifest, {
            "fitted_constant": fitted,
            "per_sample_constants": per_sample,
            "ratios": [s.ratio for s in samples],
            "subspace_dimension": window.count,
            "v_inf": v_inf,
        })
    return EXIT_OK


def cmd_gap(args):
    model = load_model(args.model)
    grid = _grid(args)
    t0 = time.perf_counter()
    profiles = model.profiles_for(grid)
    t_grid = [i / (args.t_steps - 1) for i in range(args.t_steps)]
    report = verify_gap_hypothesis(grid, model.background, profiles,
                                   (args.a, args.b), t_grid)
    params = {"model": args.model, "L": args.L, "d": args.d,
              "points_per_unit": args.points_per_unit,
              "boundary": args.boundary, "a": args.a, "b": args.b,
              "t_steps": args.t_steps}
    manifest = make_manifest("gap", params, time.perf_counter() - t0)
    if report.ok:
        print(f"window ({args.a:g}, {args.b:g}) stays spectrum-free along "
              f"{args.t_steps} interpolation steps")
    else:
        print(f"{len(report.intrusions)} intrusion(s) into the window; "
              f"first at t={report.intrusions[0][0]:g}, "
              f"E={report.intrusions[0][1]:.12g}")
    if args.out:
        _write_json(_out_path(args, "gap.json"), manifest, report.to_json())
    return EXIT_OK if report.ok else EXIT_ASSERTION


def cmd_ise(args):
    with open(args.plan) as fh:
        plan_spec = json.load(fh)
    if args.seed is not None:
        plan_spec["seed"] = args.seed
    if args.workers is not None:
        plan_spec["workers"] = args.workers
    plan = ExperimentPlan.from_json(plan_spec)
    t0 = time.perf_counter()
    report = estimate_ise_probability(plan)
    wall = time.perf_counter() - t0
    params = {"plan": plan_spec, "seed": plan.master_seed}
    manifest = make_manifest("ise", params, wall, workers=plan.workers)
    for p in report.per_L:
        verdict = "-" if p.ledger is None else str(p.ledger.verdict)
        print(f"L={p.L}: p_hat={p.p_hat:.4f} "
              f"ci=({p.ci_lo:.4f},{p.ci_hi:.4f}) valid={p.valid} "
              f"events={p.event_count} ledger={verdict}")
    if args.out:
        _write_json(_out_path(args, "ise.json"), manifest, report.to_json())
        _write_csv(_out_path(args, "ise.csv"), manifest,
                   report.CSV_COLUMNS, report.csv_rows())
        _write_text(_out_path(args, "ise.svg"), ise_trend_svg(report))
    return EXIT_OK


def cmd_ids(args):
    model = load_model(args.model)
    t0 = time.perf_counter()
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
    params = {"model": args.model, "L": args.L, "d": args.d,
              "points_per_unit": args.points_per_unit,
              "boundary": args.boundary, "e_min": args.e_min,
              "e_max": args.e_max, "e_steps": args.e_steps,
              "trials": args.trials, "seed": args.seed, "e0": args.e0}
    manifest = make_manifest("ids", params, time.perf_counter() - t0)
    if args.out:
        _write_json(_out_path(args, "ids.json"), manifest,
                    [{"L": L, **rec.to_json()} for L, rec in out])
        _write_text(_out_path(args, "ids.svg"), ids_curve_svg(out, args.e0))
    return EXIT_OK


# --------------------------------------------------------------------------
# parser plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_grid_flags(p, with_model=True):
    if with_model:
        p.add_argument("--model", required=True,
                       help="potential model JSON file")
    p.add_argument("--L", type=float, required=True, help="box side")
    p.add_argument("--d", type=int, default=2, help="dimension")
    p.add_argument("--points-per-unit", type=int, default=9,
                   help="grid nodes per unit length")
    p.add_argument("--boundary", default="periodic",
                   choices=("dirichlet", "neumann", "periodic"))


def _add_out_flag(p):
    p.add_argument("--out", help="directory for JSON/CSV/SVG artifacts")


def build_parser():
    parser = _Parser(prog="iselab",
                     description="Random Schrodinger box-spectrum laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bands", help="locate a spectral gap or band edge "
                                     "of the background operator")
    _add_grid_flags(p)
    p.add_argument("--hint", type=float, help="energy near the target gap")
    p.add_argument("--mode", default="gap", choices=("gap", "bottom"))
    _add_out_flag(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("event-prob", help="exact and Monte Carlo probability "
                                          "of the good-configuration event")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_out_flag(p)
    p.set_defaults(func=cmd_event_prob)

    p = sub.add_parser("scale", help="scale selection and the bound ledger")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=float,
                   help="evaluate the full ledger at this target exponent")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--c", type=float, default=1.0)
    _add_out_flag(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("lift", help="eigenvalue-lifting sweep conditioned "
                                    "on the good event")
    _add_grid_flags(p)
    p.add_argument("--hint", type=float)
    p.add_argument("--mode", default="gap", choices=("gap", "bottom"))
    p.add_argument("--scales", default="1,3,5",
                   help="comma-separated cell sides")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--attempts", type=int, default=200,
                   help="seeded draws allowed to hit the event")
    _add_out_flag(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("ucp", help="mass-ratio sweep and constant fit for "
                                   "the continuation lower bound")
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
    _add_out_flag(p)
    p.set_defaults(func=cmd_ucp)

    p = sub.add_parser("gap", help="check a spectral window stays empty "
                                   "along the interpolated family")
    _add_grid_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t-steps", type=int, default=21)
    _add_out_flag(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("ise", help="estimate the spectral-window hit rate "
                                   "over a plan of box sizes")
    p.add_argument("--plan", required=True, help="experiment plan JSON")
    p.add_argument("--seed", type=int, help="override the plan seed")
    p.add_argument("--workers", type=int)
    _add_out_flag(p)
    p.set_defaults(func=cmd_ise)

    p = sub.add_parser("ids", help="trial-averaged eigenvalue counting "
                                   "and the double-log edge statistic")
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
    _add_out_flag(p)
    p.set_defaults(func=cmd_ids)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
