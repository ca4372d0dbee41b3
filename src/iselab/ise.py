"""Monte Carlo estimation of the no-spectrum-in-window probability, and
the finite-volume counting-function diagnostic.

Everything the trials at one box size share is one TrialContext, keyed by
value and deriving the box's node data (potentials.Box: V0 at the nodes and
U at the live sites) and the certified lower count.  A trial's couplings
omega are its seed and the model's law (potentials.DisorderConfiguration),
drawn where they are read: at the box's live sites for V_omega = U @ omega,
and at the good event's cells.  Then comes at most one count at the top of
the window (none when a floor decides the trial, a second only when the
window holds spectrum, for the borderline flag), and each of them only
where the trial's eigenvalue enclosure leaves it open.
Trials are pure functions of (context, seed), and seeds of (master seed,
L index, trial index), so the estimate is byte-identical no matter how
trials are distributed over worker processes.

The count below the window needs no factorization where operator order
settles it.  Couplings lie in [0, 1] and U >= 0, so 0 <= V_omega <= s node
by node, s the largest entry of W = U @ 1 (Box.envelope), and Weyl's
monotonicity gives lambda_j(H0) <= lambda_j(H_omega) <= lambda_j(H0) + s.
With k background eigenvalues below b - tol_eig, the largest of them
lambda_k(H0), and lambda_k(H0) + s < b - tol_eig - tol_gap, every H_omega
has exactly k eigenvalues below b - tol_eig.  The certificate is refused,
and the trial counts at b - tol_eig as well, when s does not fit below the
gap; each per-L entry records whether it held.

Every count is bracketed before it is made.  eigensolve.enclosure bounds
each eigenvalue of H0 + diag(V), for the trial's V_omega or a floor, from
both sides (Weyl, Rayleigh-Ritz and Lehmann on the background
eigenvectors, read from the 1D factor), and eigensolve.counts_below and
count_is factorize only where that bracket stays open: a count at E lies
between the upper bounds below E - tol_gap and the lower bounds below
nudge(E) + tol_gap.  A closed bracket leaves no eigenvalue near E, so the
records are those exact counting gives; a count outside its bracket is a
SolverError, and the trial is invalid.  On the reference model this
decides every trial and the floor at L = 4, and about one trial in four
at L = 6, where the Ritz bounds show spectrum in the window.

A trial may clear the window by operator order alone.  Couplings are >= 0
and so is U, so with Z = {j : omega_j < eta} the trial has V_omega >=
eta U (1 - e_Z) node by node, and H_omega lies above H0 plus that floor.
When the floor has the certified k eigenvalues below b + width, min-max
leaves H_omega's window empty.  window_floor checks the one floor the box
picks, with at most one count, as one task per box size that trial_records
maps before the trials and hands to each of them.  Where
-Laplacian + V0 is exactly invariant under lattice translations (a
periodic box, G / h whole and V0 equal to its roll by G / h nodes, bit for
bit: Box.lattice_step), it is the holed floor, every live site but j0 (the
one nearest the box centre) at eta: rolling it by (site_j - site_j0) G / h
nodes permutes H0 plus it into a matrix of the same spectrum, so one check
decides every trial with |Z| <= 1: Z empty compares V_omega with the holed
floor, Z = {j} with its roll onto j.  On any other box it is the plain
floor eta W, for Z empty.
Rounding V0 + x is monotone in x, so the order of the node arrays is that
of the diagonals factorized.  Each per-L entry counts the trials so
decided in `floor_certified`, and in `lift_certified` those of them in the
good event; every other trial counts as above.  The floor is refused for
the whole box size when its count differs from the certified one (also
when its bracket already excludes it), and is not counted when no count is
certified.

On the good event the paper's test perturbation H_pert = H0 + eta c chi_S
depends on omega only through each cell's chosen site (event_choice, None
off the event).  So a trial is its count (run_ise_trial) and its choice's
lift above b (event_lift), one task per distinct choice that trial_records
maps first, serially or on a pool alike: a lift is the longest task.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import rng
from .eigensolve import (TOL_EIG, TOL_GAP, background_spectrum,
                         certified_lower_count, count_is, counts_below,
                         enclosure)
from .errors import GapNotFoundError, IselabError, ScaleWindowError, SolverError
from .events import (EventSpec, build_ledger, event_choice, select_scale,
                     wilson_interval)
from .grid import GridSpec
from .potentials import Box, DisorderConfiguration, load_model
from .ucp import event_balls, perturbed_eigenvalue

BAND_EDGE_MODES = ("gap", "bottom")


def band_edge_of_background(grid, v0, hint=None, mode="gap"):
    """Locate (a, b) for the background box operator.

    mode 'bottom' returns (-inf, smallest eigenvalue); mode 'gap' finds
    the spectral gap of H_{0,L} containing the hinted energy and returns
    its endpoints, b being the infimum of the spectrum above the gap, which
    must be wider than 10 tol_gap.  Both read the exact background spectrum.
    Any other mode (see BAND_EDGE_MODES) is a ValueError.
    """
    if mode not in BAND_EDGE_MODES:
        raise ValueError(f"unknown band_edge mode {mode!r}")
    if mode != "bottom" and hint is None:
        raise ValueError("gap mode needs an energy hint")
    values = background_spectrum(grid, v0).values
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
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.band_edge_mode not in BAND_EDGE_MODES:
            raise ValueError(f"unknown band_edge mode {self.band_edge_mode!r}")
        ls = tuple(self.L_values)
        if not ls:
            raise ValueError("L_values must name at least one box size")
        if list(ls) != sorted(ls):
            raise ValueError("L values must be sorted ascending")
        # the good event's cells and the ledger count integer sites
        if not all(float(L).is_integer() for L in ls):
            raise ValueError(f"L values must be whole numbers: {list(ls)}")
        object.__setattr__(self, "L_values", tuple(int(L) for L in ls))

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


@dataclass(frozen=True)
class TrialContext:
    """What every trial on one box shares; only the couplings change.

    The window is [b, b + width); `event_spec` is None where the scale
    window is empty.  Derived: `box` (potentials.Box) and `certified_below`,
    eigensolve.certified_lower_count at b with s = box.envelope (so for
    every omega), or None.  It is pickled into every pool task, and the
    box's floor (window_floor) and lifts (event_lift) are tasks on it.
    """

    model: object
    grid: GridSpec
    event_spec: EventSpec
    b: float
    width: float
    box: Box = field(init=False, compare=False, repr=False)
    certified_below: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # frozen: the derived fields go straight into the instance dict
        box = self.model.box(self.grid)
        self.__dict__.update(box=box, certified_below=certified_lower_count(
            box.spectrum, box.envelope, self.b))


def event_lift(ctx, choice):
    """(lift, error) of the good event's test operator for one choice.

    H_pert = H0 + eta c chi_S on the context's box, S the union of the
    chosen sites' balls (ucp.event_balls of event_choice's int tuples); the
    lift is H_pert's lowest eigenvalue at or above b minus b.  A solve that
    fails returns (None, its message), so it cannot abort a pool's map.
    """
    model = ctx.model
    try:
        mask, _ = event_balls(ctx.box, choice)
        _, lam = perturbed_eigenvalue(
            ctx.box, mask, model.disorder.eta * model.coupling_floor, ctx.b)
    except IselabError as exc:
        return None, str(exc)
    return lam - ctx.b, None


def window_floor(ctx):
    """(floor, shifts): the box's floor if it clears the window, else
    (None, None).

    A floor F is a node array, shaped (n,) * d, whose H0 + diag(F) has
    exactly the certified count below b + width; then every H_omega with
    V_omega >= F node by node has an empty window.  The box picks one floor,
    checked by eigensolve.count_is, its enclosure first and a count (and
    H0 + diag(F) assembled for it) only where that bracket stays open
    around the certified count; trial_records maps it once per box size
    and hands the pair to every trial:
    - where Box.lattice_step finds the lattice translations exact, the holed
      floor eta U (1 - e_j0), every live site but the one nearest the box
      centre at eta.  `shifts` holds, per live site j, the node roll
      (site_j - site_j0) G / h that carries the hole to j: a roll fixes
      -Laplacian + V0, so the rolled floor has the same count.
    - otherwise the plain floor eta W (W = U @ 1), with `shifts` None.
    Refused when its count differs from the certified one or cannot be
    made, and, with nothing counted, when no lower count is certified.
    """
    if ctx.certified_below is None:
        return None, None
    box = ctx.box
    couplings, shifts = np.ones(len(box.sites)), None
    step = box.lattice_step
    if step is not None and len(box.sites):
        hole = int(np.argmin(np.sum((box.sites * ctx.model.period) ** 2,
                                    axis=1)))
        couplings[hole] = 0.0
        shifts = (box.sites - box.sites[hole]) * step
    floor = ctx.model.disorder.eta * (box.matrix @ couplings)
    top = ctx.b + ctx.width
    try:
        clears = count_is(partial(box.hamiltonian, floor), top,
                          enclosure(floor, box.spectrum, top),
                          ctx.certified_below)
    except SolverError:
        return None, None
    if not clears:
        return None, None
    floor = floor.reshape((box.grid.points_per_side,) * box.grid.dimension)
    floor.flags.writeable = False
    return floor, shifts


def floor_certifies(ctx, floor, omega, v_omega):
    """Whether `floor`, window_floor(ctx)'s (floor, shifts) pair, lies below
    V_omega = U @ omega node by node, its hole rolled onto the one site with
    omega_j < eta if there is exactly one."""
    floor, shifts = floor
    if floor is None:
        return False
    if shifts is not None:
        low = np.flatnonzero(omega < ctx.model.disorder.eta)
        if low.size == 1:
            floor = np.roll(floor, tuple(shifts[low[0]]),
                            axis=tuple(range(floor.ndim)))
    return bool(np.all(v_omega.reshape(floor.shape) >= floor))


class TrialRecord(dict):
    """A trial's data, and beside it how the verdict was reached.

    The items are the record ise.json stores; `floor_certified` is not one of
    them, so a record is the same whichever path decided it.
    """

    floor_certified = False

    @property
    def lift_certified(self):
        """An event trial decided without factorizing H_omega."""
        return self.floor_certified and bool(self.get("event"))


def run_ise_trial(ctx, floor, seed):
    """One trial's count: is the window [b, b + width) free of spectrum?

    Returns a record with the verdict, the number of eigenvalues in the
    window (values within tol_eig below b count) and a borderline flag (the
    window holds spectrum only within tol_eig of its upper edge); `event`
    and `observed_lift` stay None for trial_records.  `floor_certified`
    says whether the box's floor, window_floor(ctx) passed in as `floor`,
    settled the verdict (floor_certifies): H_omega lies above an operator
    that clears the window, so its window is empty and it is not
    factorized.  Otherwise the count below b - tol_eig is the context's
    certified one where it holds, so the trial counts only at b + width
    (and, when the window holds spectrum, checks whether the count at
    b + width - tol_eig is still the one below).
    Each count is bracketed first by the trial's eigensolve.enclosure and
    assembles and factorizes H_omega, once for both counts, only where the
    bracket stays open (eigensolve.counts_below and count_is); a count
    outside its bracket makes the record invalid.
    """
    box, b, width = ctx.box, ctx.b, ctx.width
    cfg = DisorderConfiguration(seed, ctx.model.disorder)
    result = TrialRecord(seed=seed, valid=True, outcome=None,
                         window_count=None, borderline=False, event=None,
                         observed_lift=None)
    omega = cfg[box.sites]
    v_omega = box.potential_of(omega)   # >= 0 node by node, or it raises
    result.floor_certified = floor_certifies(ctx, floor, omega, v_omega)
    try:
        if result.floor_certified:
            result.update(window_count=0, outcome=True)
        else:
            # built at the first count, once for both calls
            h_rand = cache(partial(box.hamiltonian, v_omega))
            bounds = enclosure(v_omega, box.spectrum, b + width)
            below = ctx.certified_below
            if below is None:
                below, top = counts_below(h_rand, [b - TOL_EIG, b + width],
                                          bounds)
            else:
                [top] = counts_below(h_rand, [b + width], bounds)
            result["window_count"] = top - below
            result["outcome"] = result["window_count"] == 0
            if not result["outcome"]:
                result["borderline"] = count_is(h_rand, b + width - TOL_EIG,
                                                bounds, below)
    except SolverError as exc:
        result.update(valid=False, error=str(exc))
    return result


def serial_map(fn, items):
    """map, run at once: its tasks run in the order a pool's map submits
    them."""
    return list(map(fn, items))


def trial_records(ctx, seeds, run=serial_map):
    """The records of `seeds`, in order: `run` (serial_map, or a pool's map)
    maps event_lift over the distinct choices of the seeds, read here once
    each, then window_floor over [ctx], and, once the floor is back,
    run_ise_trial with it over the seeds.  Each counted record gets `event`
    (None without an event spec) and its choice's lift, and a failed lift
    makes it invalid with the lift's message."""
    spec = ctx.event_spec
    choices = [None if spec is None else event_choice(
        DisorderConfiguration(s, ctx.model.disorder), spec) for s in seeds]
    distinct = list(dict.fromkeys(filter(None, choices)))
    # each run starts its tasks when called: the lifts, the longest tasks,
    # start first, and a pool keeps solving them while the floor comes back
    # and the trials are submitted
    lifts = run(partial(event_lift, ctx), distinct)
    [floor] = run(window_floor, [ctx])
    records = run(partial(run_ise_trial, ctx, floor), seeds)
    lifts, records = dict(zip(distinct, lifts)), list(records)
    for record, choice in zip(records, choices):
        if record["valid"] and spec is not None:
            lift, error = lifts.get(choice, (None, None))
            record.update(event=choice is not None, observed_lift=lift)
            if error is not None:
                record.update(valid=False, error=error)
    return records


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
    floor_certified: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    ledger: object
    trial_records: tuple = field(repr=False)

    def to_json(self):
        return dict(
            self.__dict__,
            gap_lower=None if math.isinf(self.gap_lower) else self.gap_lower,
            ledger=None if self.ledger is None else self.ledger.to_json(),
            trial_records=[dict(r) for r in self.trial_records])


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


def estimate_ise_probability(plan):
    """Per-L Wilson estimates with bound ledgers on square (d = 2) boxes;
    one pool serves every L."""
    model = load_model(plan.model)
    dist = model.disorder
    per_L = []
    with (ProcessPoolExecutor(max_workers=plan.workers)
          if plan.workers > 1 else nullcontext()) as pool:
        run = serial_map if pool is None else partial(pool.map, chunksize=4)
        for L_index, L in enumerate(plan.L_values):
            grid = GridSpec.per_unit(2, L, plan.points_per_unit, plan.boundary)
            a, b = band_edge_of_background(
                grid, model.background, hint=plan.band_edge_hint,
                mode=plan.band_edge_mode)
            try:
                l = select_scale(L, plan.alpha)
                event_spec = EventSpec(dimension=2, l=l, L=L, eta=dist.eta,
                                       kappa=dist.kappa)
                ledger = build_ledger(2, L, plan.alpha, plan.q, dist.kappa,
                                      dist.eta, model.coupling_floor)
            except ScaleWindowError:
                l, event_spec, ledger = None, None, None
            ctx = TrialContext(model, grid, event_spec, b,
                               float(L) ** (-plan.alpha))
            seeds = [rng.derive_seed(plan.master_seed, rng.TRIAL_STREAM,
                                     (L_index, t))
                     for t in range(plan.trials)]
            records = trial_records(ctx, seeds, run)
            valid = [r for r in records if r["valid"]]
            if not valid:
                raise SolverError(f"all trials invalid at L={L}")
            successes = sum(1 for r in valid if r["outcome"])
            p_hat, lo, hi = wilson_interval(successes, len(valid))
            per_L.append(ISEPerL(
                L=L, l=l, band_edge=b, gap_lower=a,
                window_width=ctx.width,
                lower_count_certified=ctx.certified_below is not None,
                trials=plan.trials, valid=len(valid), successes=successes,
                borderline=sum(1 for r in valid if r["borderline"]),
                event_count=sum(1 for r in valid if r.get("event")),
                lift_certified=sum(r.lift_certified for r in records),
                floor_certified=sum(r.floor_certified for r in records),
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
        return dict(self.__dict__, truncated=False)


def ids_estimate(model, L, E_grid, trials, seed, reference_energy,
                 points_per_unit=9, boundary="periodic", dimension=2):
    """Trial-averaged normalized counting function and its double-log slope.

    N(E) counts the eigenvalues <= E exactly (count_below at each energy),
    but assembles and factorizes H_omega only where two exact layers leave
    it open (eigensolve.counts_below).  A per-trial eigenvalue enclosure:
    V_omega lies in [0, max V_omega] node-wise, so eigensolve.enclosure bounds
    each eigenvalue of H_omega from both sides (Weyl, tightened by
    Rayleigh-Ritz and Lehmann bounds on the background eigenvectors), and
    an energy whose count both ends fix is not counted.  Monotone bisection
    over the sorted grid: two counted energies with the same count fix
    every energy between them.
    This is a diagnostic only: the slope statistic is reported where
    N(E) - N(E0) lies in (0, 1) and no limit claim is attached.
    """
    E_grid = list(E_grid)
    if trials < 1 or not E_grid or E_grid != sorted(E_grid):
        raise ValueError("need trials >= 1 and a nonempty, sorted E_grid")
    grid = GridSpec.per_unit(dimension, L, points_per_unit, boundary)
    box = model.box(grid)
    counts = np.zeros(len(E_grid))
    for t in range(trials):
        # box.potential draws the couplings of the box's live sites only
        cfg = DisorderConfiguration(
            rng.derive_seed(seed, rng.TRIAL_STREAM, (0, t)), model.disorder)
        v = box.potential(cfg)
        counts += counts_below(partial(box.hamiltonian, v), E_grid,
                               enclosure(v, box.spectrum, E_grid[-1]))
    volume = float(L) ** dimension
    counting = counts / (trials * volume)
    # the count at the last grid energy within 1e-12 of E0, else interpolated
    at_ref = [c for e, c in zip(E_grid, counting)
              if abs(e - reference_energy) < 1e-12]
    ref_count = at_ref[-1] if at_ref else float(
        np.interp(reference_energy, E_grid, counting))
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
