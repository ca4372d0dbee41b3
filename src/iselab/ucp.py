"""Mass-ratio experiments against the unique-continuation lower bound,
constant fitting, and the eigenvalue-lifting and gap experiments.

The continuum bound is (delta/l)^(N (1 + l^{4/3} |V|_inf^{2/3} + l sqrt(E+)))
for spectral-subspace functions up to energy E; here the L^2 masses become
node-counting sums, so the h^d factors cancel in the ratio.

Every operator is a box's hamiltonian (potentials.Box): V0 at the nodes plus
eta c on a sorted node-index mask, U @ omega or t W, so its order is
node-wise order.  The mask of the good event's test perturbation is the
union S of one ball B_delta(G j) per cell, j the cell's chosen site
(events.event_choice) and delta the radius of the box's one profile, all
found in one batched ball search (event_balls).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EventViolatedError, IselabError
from .eigensolve import (TOL_EIG, TOL_GAP, check_t_grid, count_below,
                         eigs_in_window, lowest_in_spectrum_above,
                         min_eig_above)
from .events import event_choice, lifting_bound


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
    """Seeded unit vectors, uniform on the unit sphere of span(vectors).

    The columns of vectors are orthonormal.  Each draw projects g ~ N(0, I)
    onto their span, V (V^T g), so it depends on the subspace alone and not
    on the basis a solver returns inside a degenerate level.
    """
    gen = rng.stream(seed, rng.COMBINATIONS)
    out = []
    for _ in range(count):
        v = vectors @ (vectors.T @ gen.normal(size=vectors.shape[0]))
        out.append(v / np.linalg.norm(v))
    return out


def event_balls(box, choice):
    """(mask, delta): the good event's balls B_delta(G j) on box.grid, one
    per chosen site j (event_choice), delta the box profile's ball radius.

    The mask is the sorted node indices of their union, from one batched
    search (grid.nodes_within_balls).  Each ball must lie inside its site's
    period cell, delta < G/2 with G the background period, and so inside the
    site's cell of side G l; a radius that does not fit is a ValueError.  The
    ball lies inside the support (u >= c > 0 on it), so the ball of a site
    outside model.sites_for misses the box and adds no node.
    """
    g, delta = box.background.period, box.profile.ball_radius
    if delta >= g / 2.0:
        raise ValueError(f"ball radius {delta} leaves the period cell of "
                         f"side {g}")
    centers = g * np.asarray(choice, dtype=np.int64)
    mask = np.unique(box.grid.nodes_within_balls(centers, delta)[1])
    if not mask.size:
        raise IselabError("indicator mask is empty: no ball meets the grid")
    return mask, float(delta)


def perturbed_eigenvalue(box, mask, amplitude, b):
    """(v_test, lambda): v_test is `amplitude` on the node indices `mask`,
    lambda the lowest eigenvalue at or above b of box.hamiltonian(v_test),
    bracketed by v_test and the box's background spectrum."""
    v_test = np.zeros(box.grid.num_points)
    v_test[mask] = amplitude
    lam = min_eig_above(box.hamiltonian(v_test), b, v_test, box.spectrum)
    return v_test, lam


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


def lifting_experiment(box, cfg, spec, b, eta, c):
    """Lift of the lowest eigenvalue above b under the test perturbation.

    The perturbation is eta c on the balls of event_choice(cfg, spec)
    (event_balls); a configuration outside the event is an
    EventViolatedError.  The predicted floor is lifting_bound at the cell
    side G l, G the background period.

    Also records the eigenvalue of the full random operator and certifies
    H0 <= H0 + eta c chi_S <= H_omega <= H0 + W with no eigensolve: all four
    share -Laplacian + V0, so the order holds iff eta c chi_S <= V_omega <= W
    node by node (up to the 1e-12 verify_single_site_bound allows, which Weyl
    bounds), and min-max then orders the eigenvalues at every index.  Both
    solved operators are box.hamiltonian of eta c on the mask or U @ omega,
    and the check compares those same node arrays.
    """
    if eta * c < 0:
        raise ValueError("amplitude must be nonnegative")
    choice = event_choice(cfg, spec)
    if choice is None:
        raise EventViolatedError("configuration is not in the event")
    mask, delta = event_balls(box, choice)
    v_rand = box.potential(cfg)

    k0, lam0 = lowest_in_spectrum_above(box.spectrum.values, b)
    v_test, lam_pert = perturbed_eigenvalue(box, mask, eta * c, b)
    h_rand = box.hamiltonian(v_rand)
    lam_rand = min_eig_above(h_rand, b, v_rand, box.spectrum)
    sandwich_ok = bool(np.all(v_test <= v_rand + 1e-12)
                       and np.all(v_rand <= box.w + 1e-12))

    observed = lam_pert - lam0
    if observed < -TOL_EIG:
        raise IselabError(f"observed lift {observed} is meaningfully negative")
    return LiftingRecord(
        l=spec.l, L=box.grid.side, eta=eta, c=c, delta=delta, k0=k0,
        base_eigenvalue=lam0, perturbed_eigenvalue=lam_pert,
        random_eigenvalue=lam_rand, observed_lift=observed,
        predicted_floor=lifting_bound(spec.l * box.background.period, eta, c),
        sandwich_ok=sandwich_ok,
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


def verify_gap_hypothesis(box, window, t_grid):
    """Certify (a, b) free of the spectrum of H0 + t W for every t in [0, 1].

    W >= 0, so each eigenvalue branch never falls in t and enters the window
    (edges moved in by tol_gap) iff lambda_j(H0 + W) > a and lambda_j(H0) < b.
    `crossings` = #{lambda(H0) < b} - #{lambda(H0 + W) < a} counts them, and
    only a window with crossings is sampled on t_grid, to list intrusions
    (eigs_in_window of H0 + t W, all on the one box).
    """
    a, b = window
    if b <= a:
        raise ValueError("need a < b")
    t_grid = check_t_grid(t_grid)
    w = box.w
    below_b = int(np.searchsorted(box.spectrum.values, b - TOL_GAP))
    crossings = below_b - count_below(box.hamiltonian(w), a + TOL_GAP)
    intrusions = tuple(
        (t, float(v)) for t in (t_grid if crossings else ())
        for v in eigs_in_window(box.hamiltonian(t * w), a, b))
    return GapReport(ok=crossings == 0, window=tuple(window), t_grid=t_grid,
                     intrusions=intrusions, crossings=crossings)
