"""Mass-ratio experiments against the unique-continuation lower bound,
constant fitting, and the eigenvalue-lifting and gap experiments.

The continuum bound is (delta/l)^(N (1 + l^{4/3} |V|_inf^{2/3} + l sqrt(E+)))
for spectral-subspace functions up to energy E; here the L^2 masses become
node-counting sums, so the h^d factors cancel in the ratio.

Every operator is grid.assemble_schrodinger of V0 at the nodes plus eta c on
a sorted node-index mask, U @ omega or t W: its order is node-wise order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EventViolatedError, IselabError
from .eigensolve import (TOL_EIG, TOL_GAP, background_spectrum, check_t_grid,
                         count_below, eigs_in_window, lowest_in_spectrum_above,
                         min_eig_above)
from .events import (EquidistributedSequence, cell_choice, cell_hits,
                     lifting_bound)
from .grid import assemble_schrodinger
from .potentials import assemble_random_potential, site_matrix


@dataclass(frozen=True)
class UCPBoundParams:
    delta: float
    l: float
    v_inf: float
    energy: float
    constant: float   # the dimensional constant N

    def __post_init__(self):
        if not 0 < self.delta < self.l / 2.0:
            raise ValueError("need 0 < delta < l/2")
        if self.constant <= 0:
            raise ValueError("the constant must be positive")

    @property
    def exponent_factor(self):
        """g = 1 + l^{4/3} |V|^{2/3} + l sqrt(max(E, 0))."""
        return (1.0 + self.l ** (4.0 / 3.0) * self.v_inf ** (2.0 / 3.0)
                + self.l * math.sqrt(max(self.energy, 0.0)))


def ucp_theoretical_bound(params):
    """(delta/l)^(N g), evaluated in log space."""
    return math.exp(ucp_log_bound(params))


def ucp_log_bound(params):
    return params.constant * params.exponent_factor * math.log(params.delta / params.l)


def mass_ratio(phi, mask):
    """Fraction of the squared node mass of phi on the node indices `mask`."""
    phi = np.asarray(phi, dtype=float)
    total = float(np.sum(phi * phi))
    if total <= 0.0:
        raise ValueError("mass ratio of the zero vector is undefined")
    return float(np.sum(phi[mask] ** 2)) / total


@dataclass(frozen=True)
class FitSample:
    delta: float
    l: float
    v_inf: float
    energy: float
    ratio: float


def fit_ucp_constant(samples):
    """Smallest N such that ratio >= bound(N) for every sample.

    Each sample inverts to N_i = ln(r_i) / (g_i ln(delta_i/l_i)); the
    one-sided envelope is their maximum.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples for the envelope fit")
    per_sample = []
    for s in samples:
        if not 0.0 < s.ratio < 1.0:
            raise ValueError(f"observed ratio {s.ratio} outside (0, 1)")
        g = UCPBoundParams(s.delta, s.l, s.v_inf, s.energy, 1.0).exponent_factor
        per_sample.append(math.log(s.ratio) / (g * math.log(s.delta / s.l)))
    fitted = max(per_sample)
    # envelope property: every sample satisfies its bound at the fit
    for s, n_i in zip(samples, per_sample):
        assert s.ratio >= ucp_theoretical_bound(
            UCPBoundParams(s.delta, s.l, s.v_inf, s.energy, fitted)) * (1 - 1e-12)
    return fitted, per_sample


def random_subspace_vectors(vectors, count, seed):
    """Seeded random unit combinations spanning the computed subspace."""
    gen = rng.stream(seed, rng.COMBINATIONS)
    out = []
    for _ in range(count):
        coeff = gen.normal(size=vectors.shape[1])
        v = vectors @ coeff
        out.append(v / np.linalg.norm(v))
    return out


def equidistributed_from_event(cfg, spec, profiles, grid):
    """Pick one qualifying site per cell and build the ball-union mask.

    The per-cell choice is the lexicographically smallest site of J(omega)
    in the cell, the first qualifying entry of its row of spec.cells(), so
    the selection is deterministic.
    """
    table, hits = cell_hits(cfg, spec)
    if not hits.any(axis=1).all():
        raise EventViolatedError("configuration is not in the event")
    return equidistributed_from_choice(
        spec, cell_choice(table, hits).tolist(), profiles, grid)


def equidistributed_from_choice(spec, chosen, profiles, grid):
    """(sequence, mask) of the balls of `chosen`, row i a site of cell i;
    the mask is the sorted node indices of their union."""
    table = spec.cells()
    centers = table[:, table.shape[1] // 2].tolist()
    by_site = {p.site: p for p in profiles}
    points = {}
    pieces = []
    delta = None
    for center, site in zip(map(tuple, centers), map(tuple, chosen)):
        profile = by_site.get(site)
        if profile is None:
            # sites outside the profile lattice cannot contribute mass
            # inside the box; their cells are still covered by the event
            continue
        delta = profile.ball_radius if delta is None else min(delta, profile.ball_radius)
        points[center] = profile.ball_center
        pieces.append(grid.nodes_within_ball(profile.ball_center,
                                             profile.ball_radius))
    if delta is None:
        raise IselabError("no profile available for any selected site")
    mask = np.unique(np.concatenate(pieces))
    if not mask.size:
        raise IselabError("indicator mask is empty: no ball meets the grid")
    sequence = EquidistributedSequence(cell_side=spec.l, radius=delta, points=points)
    return sequence, mask


@dataclass(frozen=True)
class LiftingRecord:
    l: int
    L: float
    eta: float
    c: float
    delta: float
    k0: int
    base_eigenvalue: float
    perturbed_eigenvalue: float
    random_eigenvalue: float
    observed_lift: float
    predicted_floor: float
    sandwich_ok: bool

    def to_json(self):
        return dict(self.__dict__)

    CSV_COLUMNS = ("l", "L", "eta", "c", "delta", "k0", "base_eigenvalue",
                   "perturbed_eigenvalue", "random_eigenvalue",
                   "observed_lift", "predicted_floor", "sandwich_ok")

    def csv_row(self):
        return [getattr(self, k) for k in self.CSV_COLUMNS]


def lifting_experiment(grid, v0, cfg, spec, profiles, b, eta, c):
    """Lift of the lowest eigenvalue above b under the test perturbation.

    Also records the eigenvalue of the full random operator and certifies
    H0 <= H0 + eta c chi_S <= H_omega <= H0 + W with no eigensolve: all four
    share -Laplacian + V0, so the order holds iff eta c chi_S <= V_omega <= W
    node by node (up to the 1e-12 verify_single_site_bound allows, which Weyl
    bounds), and min-max then orders the eigenvalues at every index.  V0 at
    the nodes and U = site_matrix(profiles, grid) are built once; both
    solved operators are grid.assemble_schrodinger of V0 plus eta c on the
    mask or U @ omega, and the check compares those same node arrays.
    """
    if eta * c < 0:
        raise ValueError("amplitude must be nonnegative")
    sequence, mask = equidistributed_from_event(cfg, spec, profiles, grid)
    v0_nodes = v0.evaluate(grid.nodes())
    matrix = site_matrix(profiles, grid)
    v_test = np.zeros(grid.num_points)
    v_test[mask] = eta * c
    v_rand = assemble_random_potential(cfg, profiles, grid, matrix)

    k0, lam0 = lowest_in_spectrum_above(background_spectrum(grid, v0).values, b)
    lam_pert = min_eig_above(assemble_schrodinger(grid, v0_nodes + v_test), b)
    lam_rand = min_eig_above(assemble_schrodinger(grid, v0_nodes + v_rand), b)
    sandwich_ok = bool(
        np.all(v_test <= v_rand + 1e-12)
        and np.all(v_rand <= matrix @ np.ones(len(profiles)) + 1e-12))

    observed = lam_pert - lam0
    if observed < -TOL_EIG:
        raise IselabError(f"observed lift {observed} is meaningfully negative")
    return LiftingRecord(
        l=spec.l, L=grid.side, eta=eta, c=c, delta=sequence.radius, k0=k0,
        base_eigenvalue=lam0, perturbed_eigenvalue=lam_pert,
        random_eigenvalue=lam_rand, observed_lift=observed,
        predicted_floor=lifting_bound(spec.l, eta, c), sandwich_ok=sandwich_ok,
    )


@dataclass(frozen=True)
class GapReport:
    ok: bool
    window: tuple
    t_grid: tuple
    intrusions: tuple   # (t, eigenvalue) pairs sampled inside the window
    crossings: int      # eigenvalue branches that enter the window

    def to_json(self):
        return dict(self.__dict__)


def verify_gap_hypothesis(grid, v0, profiles, window, t_grid):
    """Certify (a, b) free of the spectrum of H0 + t W for every t in [0, 1].

    W >= 0, so each eigenvalue branch never falls in t and enters the window
    (edges moved in by tol_gap) iff lambda_j(H0 + W) > a and lambda_j(H0) < b.
    `crossings` = #{lambda(H0) < b} - #{lambda(H0 + W) < a} counts them, and
    only a window with crossings is sampled on t_grid, to list intrusions
    (eigs_in_window of H0 + t W, V0 at the nodes and W = U @ 1 built once).
    """
    a, b = window
    if b <= a:
        raise ValueError("need a < b")
    t_grid = check_t_grid(t_grid)
    v0_nodes = v0.evaluate(grid.nodes())
    w = site_matrix(profiles, grid) @ np.ones(len(profiles))
    spectrum0 = background_spectrum(grid, v0).values
    crossings = int(np.searchsorted(spectrum0, b - TOL_GAP)) - count_below(
        assemble_schrodinger(grid, v0_nodes + w), a + TOL_GAP)
    intrusions = tuple(
        (t, float(v)) for t in (t_grid if crossings else ())
        for v in eigs_in_window(assemble_schrodinger(grid, v0_nodes + t * w),
                                a, b))
    return GapReport(ok=crossings == 0, window=tuple(window), t_grid=t_grid,
                     intrusions=intrusions, crossings=crossings)
