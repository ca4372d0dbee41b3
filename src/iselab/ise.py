"""Monte Carlo estimation of the no-spectrum-in-window probability, and
the finite-volume counting-function diagnostic.

Everything the trials at one box size share (grid, site coordinates,
profiles, the site-to-node matrix U, V0 at the nodes and the certified
lower count) is built once into a TrialContext.  A trial is one vectorized
draw of the couplings omega, V_omega = U @ omega, one lookup of omega over
the good event's cells, and at most one count at the top of the window (a
second only when the window holds spectrum, for the borderline flag).
Trials are pure functions of (context, seed), and seeds of (master seed,
L index, trial index), so the estimate is byte-identical no matter how
trials are distributed over worker processes.

The count below the window needs no factorization where operator order
settles it.  Couplings lie in [0, 1] and U >= 0, so 0 <= V_omega <= s node
by node, s the largest row sum of U, and Weyl's monotonicity gives
lambda_j(H0) <= lambda_j(H_omega) <= lambda_j(H0) + s.  With k background
eigenvalues below b - tol_eig, the largest of them lambda_k(H0), and
lambda_k(H0) + s < b - tol_eig - tol_gap, every H_omega has exactly k
eigenvalues below b - tol_eig.  The certificate is refused, and the trial
counts at b - tol_eig as well, when U has a negative entry or s does not
fit below the gap; each per-L entry records which held.

On the good event the paper's test perturbation clears the window, and so
does the code: the test operator H_pert = H0 + eta c chi_S depends on omega
only through each cell's chosen site, so its lift and its count at
b + width are solved once per box size and choice (event_lift, memoized in
each process).  When V_omega >= eta c chi_S node by node, H_omega >= H_pert,
and when H_pert has the certified k eigenvalues below b + width, min-max
leaves H_omega's window empty: the trial is decided with no factorization
of H_omega.  Each per-L entry counts these trials in `lift_certified`;
every other trial counts as above.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import rng
from .eigensolve import (TOL_EIG, TOL_GAP, background_spectrum, count_below,
                         counts_below, min_eig_above)
from .errors import GapNotFoundError, IselabError, ScaleWindowError, SolverError
from .events import (EventSpec, build_ledger, cell_choice, cell_hits,
                     select_scale, wilson_interval)
from .grid import GridSpec, assemble_schrodinger
from .potentials import (assemble_random_potential, live_profiles,
                         load_model, sample_configuration, site_matrix)
from .ucp import equidistributed_from_choice


def band_edge_of_background(grid, v0, hint=None, mode="gap", values=None):
    """Locate (a, b) for the background box operator.

    mode 'bottom' returns (-inf, smallest eigenvalue); mode 'gap' finds
    the spectral gap of H_{0,L} containing the hinted energy and returns
    its endpoints, b being the infimum of the spectrum above the gap, which
    must be wider than 10 tol_gap.  Both read the exact background spectrum
    (`values` if the caller has it).
    """
    if mode != "bottom" and hint is None:
        raise ValueError("gap mode needs an energy hint")
    values = background_spectrum(grid, v0).values if values is None else values
    if mode == "bottom":
        return -math.inf, float(values[0])
    split = int(np.searchsorted(values, hint))
    if split == 0 or split == values.size:
        raise GapNotFoundError(f"hint {hint} is outside the computed spectrum")
    a, b = float(values[split - 1]), float(values[split])
    if b - a <= 10 * TOL_GAP:
        raise GapNotFoundError(
            f"no gap wider than {10 * TOL_GAP:g} near {hint}: found ({a}, {b})"
        )
    return a, b


def coupling_envelope(matrix):
    """s with 0 <= U @ omega <= s node-wise for every omega in [0, 1]^m, or None.

    s is the largest row sum of U (`matrix`); None when U has a negative
    entry, so V_omega has no such envelope.
    """
    if matrix.nnz and matrix.data.min() < 0:
        return None
    return float(np.asarray(matrix.sum(axis=1)).max(initial=0.0))


def certified_lower_count(values, matrix, b):
    """#{lambda(H_omega) < b - tol_eig} for every omega in [0, 1]^m, or None.

    `values` is the background spectrum, `matrix` U.  Weyl, with V_omega in
    [0, s] node-wise (coupling_envelope), keeps the background's count k
    when its k-th eigenvalue plus s stays tol_gap below b - tol_eig.  None
    (refused) when U has a negative entry or s does not fit.
    """
    s = coupling_envelope(matrix)
    if s is None:
        return None
    k = int(np.searchsorted(values, b - TOL_EIG))
    if k and values[k - 1] + s >= b - TOL_EIG - TOL_GAP:
        return None
    return k


@dataclass(frozen=True)
class ExperimentPlan:
    model: dict
    L_values: tuple
    alpha: float
    q: float
    trials: int
    master_seed: int
    points_per_unit: int = 9
    boundary: str = "periodic"
    band_edge_mode: str = "gap"
    band_edge_hint: float = None
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        ls = tuple(self.L_values)
        if not ls:
            raise ValueError("L_values must name at least one box size")
        if list(ls) != sorted(ls):
            raise ValueError("L values must be sorted ascending")
        object.__setattr__(self, "L_values", ls)

    @classmethod
    def from_json(cls, spec):
        return cls(
            model=spec["model"],
            L_values=tuple(spec["L_values"]),
            alpha=float(spec["alpha"]),
            q=float(spec["q"]),
            trials=int(spec["trials"]),
            master_seed=int(spec["seed"]),
            points_per_unit=int(spec.get("points_per_unit", 9)),
            boundary=spec.get("boundary", "periodic"),
            band_edge_mode=spec.get("band_edge", {}).get("mode", "gap"),
            band_edge_hint=spec.get("band_edge", {}).get("hint"),
            workers=int(spec.get("workers", 1)),
        )


def box_sites(model, grid, event_spec=None):
    """The profile lattice of the box and the event's cell sites.

    A sorted (m, d) int64 array: every coupling a trial on this box draws.
    """
    sites = [np.array(model.sites_for(grid), dtype=np.int64)]
    if event_spec is not None:
        sites.append(event_spec.cells().reshape(-1, grid.dimension))
    return np.unique(np.concatenate(sites), axis=0)


@dataclass(frozen=True, eq=False)
class TrialContext:
    """What every trial on one box shares; only the couplings change.

    `sites` is box_sites(model, grid, event_spec), `site_matrix` is
    U = site_matrix(profiles, grid), so that V_omega = U @ omega, and `live`
    is live_profiles(profiles, grid, U), the couplings U reads.  b and
    width are those of the window [b, b + width); counting-function runs
    leave them unset.  `certified_below` is certified_lower_count at b, or
    None where the trials must count below the window themselves.
    """

    model: object
    grid: GridSpec
    sites: np.ndarray = field(repr=False)
    profiles: tuple = field(repr=False)
    site_matrix: object = field(repr=False)
    live: tuple = field(repr=False)
    v0_nodes: np.ndarray = field(repr=False)
    event_spec: EventSpec = None
    b: float = None
    width: float = None
    certified_below: int = None

    @classmethod
    def build(cls, model, grid, event_spec=None, b=None, width=None,
              values=None):
        profiles = tuple(model.profiles_for(grid))
        sites = box_sites(model, grid, event_spec)
        matrix = site_matrix(profiles, grid)
        if b is not None and values is None:
            values = background_spectrum(grid, model.background).values
        below = None if b is None else certified_lower_count(values, matrix, b)
        return cls(model, grid, sites, profiles, matrix,
                   live_profiles(profiles, grid, matrix),
                   model.background.evaluate(grid.nodes()),
                   event_spec, b, width, below)

    def potential(self, cfg):
        """V_omega = U @ omega at the nodes."""
        return assemble_random_potential(cfg, self.profiles, self.grid,
                                         self.site_matrix, self.live)

    def hamiltonian(self, cfg):
        """H_omega = -Laplacian + V0 + V_omega, with V_omega = U @ omega."""
        return assemble_schrodinger(self.grid,
                                    self.v0_nodes + self.potential(cfg))


@lru_cache(maxsize=16)
def event_lift(model, grid, spec, b, width, choice):
    """The good event's test operator for one per-cell choice: (S, lift, top).

    H_pert = H0 + eta c chi_S, S the union of the balls of the chosen sites
    (`choice` holds one int tuple per cell, as cell_choice picks them),
    returned as its sorted node indices; lift is H_pert's lowest eigenvalue
    at or above b (min_eig_above) minus b, and top = count_below(H_pert,
    b + width).  It depends on omega only through
    the choice, and every argument hashes by value, also after pickling, so
    each process (the serial one, or each pool worker) solves it once per
    box size and choice.
    """
    _, mask = equidistributed_from_choice(spec, choice,
                                          model.profiles_for(grid), grid)
    v_test = np.zeros(grid.num_points)
    v_test[mask] = model.disorder.eta * model.coupling_floor
    h_pert = assemble_schrodinger(
        grid, model.background.evaluate(grid.nodes()) + v_test)
    return mask, min_eig_above(h_pert, b) - b, count_below(h_pert, b + width)


class TrialRecord(dict):
    """A trial's data, and beside it how the verdict was reached.

    The items are the record ise.json stores; `lift_certified` is not one of
    them, so a record is the same whichever path decided it.
    """

    lift_certified = False


def run_ise_trial(ctx, seed):
    """One trial: is the window [b, b + width) free of spectrum?

    Returns a dict with the verdict, the number of eigenvalues in the window
    (values within tol_eig below b count), a borderline flag (the window
    holds spectrum only within tol_eig of its upper edge), and, when the
    configuration lies in the good event, the observed lift of the test
    perturbation above b (event_lift).  The record's `lift_certified` says
    whether that lift settled the verdict: V_omega >= eta c chi_S node by
    node gives H_omega >= H_pert, so when H_pert has the certified count
    below b + width, min-max leaves H_omega's window empty and H_omega is not
    factorized.  Otherwise the count below b - tol_eig is the context's
    certified one where it holds, so the trial factorizes only at b + width
    (and at b + width - tol_eig when the window holds spectrum).
    """
    b, width, spec = ctx.b, ctx.width, ctx.event_spec
    cfg = sample_configuration(seed, ctx.sites, ctx.model.disorder)
    result = TrialRecord(seed=seed, valid=True, outcome=None,
                         window_count=None, borderline=False, event=None,
                         observed_lift=None)
    v_omega = ctx.potential(cfg)   # >= 0 node by node, or it raises
    in_event, lift, lift_error = None, None, None
    if spec is not None:
        table, hits = cell_hits(cfg, spec)
        in_event = bool(hits.any(axis=1).all())
    if in_event:
        choice = tuple(map(tuple, cell_choice(table, hits).tolist()))
        try:
            mask, lift, top = event_lift(ctx.model, ctx.grid, spec, b, width,
                                         choice)
        except (SolverError, IselabError) as exc:
            lift_error = str(exc)
        else:
            amplitude = ctx.model.disorder.eta * ctx.model.coupling_floor
            result.lift_certified = bool(
                ctx.certified_below is not None and top == ctx.certified_below
                and np.all(v_omega[mask] >= amplitude))
    try:
        if result.lift_certified:
            result.update(window_count=0, outcome=True)
        else:
            h_rand = assemble_schrodinger(ctx.grid, ctx.v0_nodes + v_omega)
            below = ctx.certified_below
            if below is None:
                below = count_below(h_rand, b - TOL_EIG)
            result["window_count"] = count_below(h_rand, b + width) - below
            result["outcome"] = result["window_count"] == 0
            if not result["outcome"]:
                result["borderline"] = \
                    count_below(h_rand, b + width - TOL_EIG) == below
    except SolverError as exc:
        result.update(valid=False, error=str(exc))
        return result
    result.update(event=in_event, observed_lift=lift)
    if lift_error is not None:
        result.update(valid=False, error=lift_error)
    return result


@dataclass(frozen=True)
class ISEPerL:
    L: int
    l: int
    band_edge: float
    gap_lower: float
    window_width: float
    lower_count_certified: bool
    trials: int
    valid: int
    successes: int
    borderline: int
    event_count: int
    lift_certified: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    ledger: object
    trial_records: tuple = field(repr=False)

    def to_json(self):
        return {
            "L": self.L, "l": self.l, "band_edge": self.band_edge,
            "gap_lower": None if math.isinf(self.gap_lower) else self.gap_lower,
            "window_width": self.window_width,
            "lower_count_certified": self.lower_count_certified,
            "trials": self.trials, "valid": self.valid,
            "successes": self.successes, "borderline": self.borderline,
            "event_count": self.event_count,
            "lift_certified": self.lift_certified,
            "p_hat": self.p_hat, "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
            "ledger": None if self.ledger is None else self.ledger.to_json(),
            "trial_records": [dict(r) for r in self.trial_records],
        }


@dataclass(frozen=True)
class ISEReport:
    plan: ExperimentPlan
    per_L: tuple

    def to_json(self):
        return {
            "alpha": self.plan.alpha, "q": self.plan.q,
            "trials": self.plan.trials, "seed": self.plan.master_seed,
            "per_L": [p.to_json() for p in self.per_L],
        }

    CSV_COLUMNS = ("L", "l", "window", "trials", "valid", "p_hat",
                   "ci_lo", "ci_hi", "ledger_verdict")

    def csv_rows(self):
        rows = []
        for p in self.per_L:
            rows.append([
                p.L, p.l, p.window_width, p.trials, p.valid, p.p_hat,
                p.ci_lo, p.ci_hi,
                "" if p.ledger is None else p.ledger.verdict,
            ])
        return rows


def estimate_ise_probability(plan, dimension=2):
    """Per-L Wilson estimates with bound ledgers; one pool serves every L."""
    model = load_model(plan.model)
    dist = model.disorder
    per_L = []
    with (ProcessPoolExecutor(max_workers=plan.workers)
          if plan.workers > 1 else nullcontext()) as pool:
        run = map if pool is None else partial(pool.map, chunksize=4)
        for L_index, L in enumerate(plan.L_values):
            grid = GridSpec(dimension=dimension, side=float(L),
                            spacing=1.0 / plan.points_per_unit,
                            boundary=plan.boundary)
            values = background_spectrum(grid, model.background).values
            a, b = band_edge_of_background(
                grid, model.background, hint=plan.band_edge_hint,
                mode=plan.band_edge_mode, values=values)
            try:
                l = select_scale(L, plan.alpha)
                event_spec = EventSpec(dimension=dimension, l=l, L=int(L),
                                       eta=dist.eta, kappa=dist.kappa)
                ledger = build_ledger(dimension, int(L), plan.alpha, plan.q,
                                      dist.kappa, dist.eta,
                                      model.coupling_floor)
            except ScaleWindowError:
                l, event_spec, ledger = None, None, None
            ctx = TrialContext.build(model, grid, event_spec, b,
                                     float(L) ** (-plan.alpha), values)
            seeds = [rng.derive_seed(plan.master_seed, rng.TRIAL_STREAM,
                                     (L_index, t))
                     for t in range(plan.trials)]
            records = list(run(partial(run_ise_trial, ctx), seeds))
            valid = [r for r in records if r["valid"]]
            if not valid:
                raise SolverError(f"all trials invalid at L={L}")
            successes = sum(1 for r in valid if r["outcome"])
            p_hat, lo, hi = wilson_interval(successes, len(valid))
            per_L.append(ISEPerL(
                L=int(L), l=l, band_edge=b, gap_lower=a,
                window_width=ctx.width,
                lower_count_certified=ctx.certified_below is not None,
                trials=plan.trials, valid=len(valid), successes=successes,
                borderline=sum(1 for r in valid if r["borderline"]),
                event_count=sum(1 for r in valid if r.get("event")),
                lift_certified=sum(r.lift_certified for r in records),
                p_hat=p_hat, ci_lo=lo, ci_hi=hi, ledger=ledger,
                trial_records=tuple(records),
            ))
    return ISEReport(plan=plan, per_L=tuple(per_L))


@dataclass(frozen=True)
class IDSRecord:
    """Counting function of one box size.

    The counts are exact, so the JSON key "truncated" is always false; it is
    kept for readers of earlier ids.json files.
    """

    energies: tuple
    counting: tuple          # trial-averaged N_L(E)
    double_log: tuple        # statistic or None where undefined
    reference_energy: float

    def to_json(self):
        return {"energies": list(self.energies),
                "counting": list(self.counting),
                "double_log": list(self.double_log),
                "reference_energy": self.reference_energy,
                "truncated": False}


def ids_estimate(model, L, E_grid, trials, seed, reference_energy,
                 points_per_unit=9, boundary="periodic", dimension=2):
    """Trial-averaged normalized counting function and its double-log slope.

    N(E) counts the eigenvalues <= E exactly (count_below at each energy),
    but factorizes H_omega only where two exact layers leave it open
    (eigensolve.counts_below).  A per-box Weyl bracket: V_omega lies in
    [0, s] node-wise (coupling_envelope), so the background spectrum bounds
    every trial's count from both sides, and an energy where both ends
    agree is not counted.  Monotone bisection over the sorted grid: two
    counted energies with the same count fix every energy between them.
    This is a diagnostic only: the slope statistic is reported where
    N(E) - N(E0) lies in (0, 1) and no limit claim is attached.
    """
    if isinstance(model, dict):
        model = load_model(model)
    E_grid = list(E_grid)
    if trials < 1 or not E_grid or E_grid != sorted(E_grid):
        raise ValueError("need trials >= 1 and a nonempty, sorted E_grid")
    ctx = TrialContext.build(model, GridSpec(
        dimension=dimension, side=float(L), spacing=1.0 / points_per_unit,
        boundary=boundary))
    s = coupling_envelope(ctx.site_matrix)
    weyl = None if s is None else (
        background_spectrum(ctx.grid, model.background).values, s)
    counts = np.zeros(len(E_grid))
    for t in range(trials):
        trial_seed = rng.derive_seed(seed, rng.TRIAL_STREAM, (0, t))
        h = ctx.hamiltonian(
            sample_configuration(trial_seed, ctx.sites, model.disorder))
        counts += counts_below(h, E_grid, weyl)
    volume = float(L) ** dimension
    counting = counts / (trials * volume)
    n_ref = float(np.interp(reference_energy, E_grid, counting))
    # use the counting value at the reference energy itself when sampled
    ref_count = None
    for e, c in zip(E_grid, counting):
        if abs(e - reference_energy) < 1e-12:
            ref_count = c
    if ref_count is None:
        ref_count = n_ref
    stats = []
    for e, c in zip(E_grid, counting):
        diff = c - ref_count
        de = e - reference_energy
        if 0.0 < diff < 1.0 and de > 0 and de != 1.0:
            stats.append(math.log(abs(math.log(diff))) / math.log(de))
        else:
            stats.append(None)
    if np.any(np.diff(counting) < -1e-12):
        raise IselabError("counting function must be nondecreasing")
    return IDSRecord(energies=tuple(float(e) for e in E_grid),
                     counting=tuple(float(c) for c in counting),
                     double_log=tuple(stats),
                     reference_energy=reference_energy)
