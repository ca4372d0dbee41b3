"""Background potentials, single-site profiles and disorder sampling.

A potential model bundles a periodic background V0, a lattice of
nonnegative single-site profiles u_j carrying a ball lower bound
c * indicator(B_delta(x_j)) <= u_j, and the distribution of the coupling
constants omega_j with its threshold pair (eta, kappa).  Couplings are a
sorted (m, d) site array and the aligned value array; cfg[q] reads them.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse

from . import rng
from .errors import MissingProfileError, MissingSiteError, UnresolvableBallError

MIN_POINTS_ACROSS_BALL = 4


@dataclass(frozen=True)
class PeriodicPotential:
    """G-periodic bounded separable field V0(x) = offset + sum_k axis_term(x_k).

    `axis_term` is one G-periodic function of a single coordinate, applied
    to every axis.  Separability makes the box operator -Laplacian + V0 a
    Kronecker sum of one n x n operator per axis.
    """

    period: float
    axis_term: object = field(repr=False)
    sup_bound: float
    offset: float = 0.0

    def axis_values(self, coords):
        """axis_term at 1D coordinates wrapped into the period cell."""
        g = self.period
        wrapped = ((np.asarray(coords, dtype=float) + g / 2.0) % g) - g / 2.0
        return np.asarray(self.axis_term(wrapped), dtype=float)

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        values = np.full(points.shape[0], float(self.offset))
        for k in range(points.shape[1]):
            values += self.axis_values(points[:, k])
        if values.size and np.max(np.abs(values)) > self.sup_bound + 1e-12:
            raise ValueError("periodic potential exceeds its stated sup bound")
        return values


def _no_axis_term(x):
    return np.zeros(np.shape(x))


def zero_potential(period=1.0):
    return PeriodicPotential(period, _no_axis_term, 0.0)


def constant_potential(value, period=1.0):
    return PeriodicPotential(period, _no_axis_term, abs(value),
                             offset=float(value))


def separable_square_potential(amplitude, period=1.0, duty=0.5):
    """V0(x) = amplitude * sum_i s(x_i) with s a square wave of given duty."""
    a, g, w = float(amplitude), float(period), float(duty)
    return PeriodicPotential(g, SquareWave(a, g, w), math.inf)


@dataclass(frozen=True)
class SquareWave:
    """amplitude on the first `duty` fraction of each period, 0 elsewhere.

    A value, not a closure, so a model compares and hashes by its
    parameters, also after pickling into a pool worker.
    """

    amplitude: float
    period: float = 1.0
    duty: float = 0.5

    def __call__(self, x):
        frac = (np.asarray(x, dtype=float) / self.period) % 1.0
        return self.amplitude * (frac < self.duty).astype(float)


@dataclass(frozen=True)
class SingleSiteProfile:
    """Nonnegative bump u_j with a certified ball lower bound.

    `site` is the integer lattice index; the geometric site is G * site.
    """

    site: tuple
    func: object = field(repr=False)
    lower_bound: float           # c
    ball_radius: float           # delta
    ball_center: tuple           # x_j
    support_radius: float

    def __post_init__(self):
        object.__setattr__(self, "site", tuple(int(s) for s in self.site))
        object.__setattr__(self, "ball_center", tuple(float(c) for c in self.ball_center))
        if self.lower_bound <= 0 or self.ball_radius <= 0:
            raise ValueError("c and delta must be positive")

    def evaluate(self, points):
        values = np.asarray(self.func(np.asarray(points, dtype=float)), dtype=float)
        if values.size and values.min() < -1e-12:
            raise ValueError("single-site profile must be nonnegative")
        return values


# Profile functions are partials of module-level functions, so a model
# pickles into pool workers.

def _indicator(center, c, delta, points):
    d2 = np.sum((points - np.asarray(center)) ** 2, axis=1)
    return c * (d2 < delta * delta)


def _cone(center, peak, radius, points):
    dist = np.sqrt(np.sum((points - np.asarray(center)) ** 2, axis=1))
    return peak * np.maximum(0.0, 1.0 - dist / radius)


def indicator_profile(site, c, delta, period=1.0):
    """u_j = c * indicator(B_delta(j*G)); the minimal admissible profile."""
    center = tuple(float(s) * period for s in site)
    return SingleSiteProfile(site, partial(_indicator, center, c, delta), c,
                             delta, center, delta)


def cone_profile(site, peak, radius, c, delta, period=1.0):
    """Linear cone of height `peak`; certified bound needs peak*(1-delta/radius) >= c."""
    center = tuple(float(s) * period for s in site)
    return SingleSiteProfile(site, partial(_cone, center, peak, radius), c,
                             delta, center, radius)


@dataclass(frozen=True)
class DisorderDistribution:
    """Distribution of a single coupling constant, supported in [0, 1]."""

    kind: str
    eta: float
    kappa: float
    params: tuple = ()

    def __post_init__(self):
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        mass = self.exact_threshold_mass()
        if mass is not None and mass + 1e-12 < self.kappa:
            raise ValueError("P[omega >= eta] < kappa for this distribution")

    def from_uniform(self, u):
        """Deterministic map from a uniform draw to a coupling value."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform01":
            value = u
        elif self.kind == "bernoulli":
            (p,) = self.params
            value = (u < p).astype(float)
        elif self.kind == "truncated":
            values, probs = self.params
            edges = np.cumsum(probs)
            idx = np.searchsorted(edges, u, side="right")
            value = np.asarray(values, dtype=float)[np.minimum(idx, len(values) - 1)]
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if value.size and (value.min() < 0.0 or value.max() > 1.0):
            raise ValueError("sampled coupling outside [0, 1]")
        return value if value.shape else float(value)

    def exact_threshold_mass(self):
        """Exact P[omega >= eta] when available, else None."""
        if self.kind == "uniform01":
            return max(0.0, 1.0 - self.eta) if self.eta <= 1 else 0.0
        if self.kind == "bernoulli":
            (p,) = self.params
            return p if self.eta <= 1 else 0.0
        if self.kind == "truncated":
            values, probs = self.params
            return float(sum(p for v, p in zip(values, probs) if v >= self.eta))
        return None


def uniform01(eta=0.5, kappa=0.5):
    return DisorderDistribution("uniform01", eta, kappa)


def bernoulli(p, eta=0.5, kappa=None):
    return DisorderDistribution("bernoulli", eta, p if kappa is None else kappa, (p,))


def truncated(values, probs, eta, kappa=None):
    values = tuple(float(v) for v in values)
    probs = tuple(float(p) for p in probs)
    if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0:
        raise ValueError("probs must be a probability vector")
    mass = sum(p for v, p in zip(values, probs) if v >= eta)
    return DisorderDistribution("truncated", eta, mass if kappa is None else kappa,
                                (values, probs))


@dataclass(frozen=True, eq=False)
class DisorderConfiguration:
    """Couplings values[i] at sites[i], regenerable from (seed, site).

    `sites` is (m, d) int64 with rows rising strictly in lexicographic order,
    `values` (m,) float64; cfg[q] reads a site tuple or a (..., d) array.
    """

    seed: int
    sites: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=np.int64)
        sites = sites.reshape(0, 0) if sites.shape == (0,) else sites
        # raveled indices in a box order points as C order does, which is
        # lexicographic.  The box holds the origin (so it exists for m = 0)
        # and a border layer around the sites, where a lookup clips every
        # point outside the box: such a point matches no site.
        lo = sites.min(axis=0, initial=0) - 1
        shape = tuple(sites.max(axis=0, initial=0) - lo + 2)
        keys = (np.ravel_multi_index((sites - lo).T, shape) if sites.size
                else np.zeros(len(sites), dtype=np.intp))
        order = np.argsort(keys)
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("sites must be distinct")
        values = np.asarray(self.values, dtype=float)
        if values.shape != keys.shape:
            raise ValueError("need one value per site")
        object.__setattr__(self, "sites", sites[order])
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "_index", (lo, shape, keys[order]))

    def __getitem__(self, site):
        q = np.asarray(site, dtype=np.int64)
        rows = q.reshape(-1, q.shape[-1])
        lo, shape, keys = self._index
        wanted = np.ravel_multi_index((rows - lo).T, shape, mode="clip")
        pos = np.searchsorted(keys, wanted)
        found = np.append(keys, -1)[pos] == wanted
        if not found.all():
            missing = tuple(rows[~found][0].tolist())
            raise MissingSiteError(f"site {missing} was not sampled")
        out = self.values[pos].reshape(q.shape[:-1])
        return float(out) if q.ndim == 1 else out


def sample_configuration(seed, sites, dist):
    """Sample omega_j for every site from the counter-based stream.

    Each value depends only on (seed, site), never on enumeration order.
    `sites` is a sequence of integer tuples or an (m, d) integer array;
    all m uniforms come from one vectorized Philox evaluation.
    """
    u = rng.uniforms_at(seed, rng.SITE_VALUES, sites)
    return DisorderConfiguration(int(seed), sites, dist.from_uniform(u))


def site_matrix(profiles, grid):
    """Sparse node x profile matrix U: column j holds u_j on its support nodes.

    V_omega = U @ omega for omega_j the coupling of profiles[j].  The CSC
    product adds the columns in profile order, node by node, so it equals
    adding the weighted profiles one at a time, bit for bit.
    """
    rows, values, indptr = [np.empty(0, dtype=np.int64)], [np.empty(0)], [0]
    for profile in profiles:
        idx = grid.nodes_within_ball(profile.ball_center, profile.support_radius)
        rows.append(idx)
        values.append(profile.evaluate(grid.node_coords(idx)))
        indptr.append(indptr[-1] + idx.size)
    return sparse.csc_matrix((np.concatenate(values), np.concatenate(rows),
                              indptr), shape=(grid.num_points, len(profiles)))


def live_profiles(profiles, grid, matrix):
    """(live, sites): the columns of U = `matrix` with a node in the box, and
    the (k, d) int64 array of their profiles' sites."""
    live = np.flatnonzero(np.diff(matrix.indptr))
    sites = np.array([profiles[j].site for j in live], dtype=np.int64)
    return live, sites.reshape(live.size, grid.dimension)


def assemble_random_potential(cfg, profiles, grid, matrix=None, live=None):
    """Nodewise V_omega = sum_j omega_j u_j = U @ omega on the grid.

    `matrix` is site_matrix(profiles, grid) and `live` is
    live_profiles(profiles, grid, matrix), each built here when not given.
    """
    if matrix is None:
        matrix = site_matrix(profiles, grid)
    if live is None:
        live = live_profiles(profiles, grid, matrix)
    columns, sites = live
    omega = np.zeros(len(profiles))
    try:
        omega[columns] = cfg[sites]
    except MissingSiteError as exc:
        raise MissingProfileError(f"contributing profile: {exc}") from exc
    out = matrix @ omega
    if out.size and out.min() < 0:
        raise ValueError("random potential must be nonnegative")
    return out


@dataclass(frozen=True)
class SingleSiteReport:
    ok: bool
    ball_inside_cell: bool
    bound_holds: bool
    checked_nodes: int
    min_on_ball: float


def verify_single_site_bound(profile, grid, period=1.0):
    """Check u_j >= c on ball nodes and B_delta(x_j) inside the period cell."""
    if profile.ball_radius / grid.spacing < MIN_POINTS_ACROSS_BALL:
        raise UnresolvableBallError(
            f"delta/h = {profile.ball_radius / grid.spacing:.3g} < "
            f"{MIN_POINTS_ACROSS_BALL}"
        )
    cell_center = tuple(s * period for s in profile.site)
    offset = max(abs(x - c) for x, c in zip(profile.ball_center, cell_center))
    inside = offset + profile.ball_radius <= period / 2.0
    idx = grid.nodes_within_ball(profile.ball_center, profile.ball_radius)
    if idx.size == 0:
        raise UnresolvableBallError("ball contains no grid node")
    values = profile.evaluate(grid.node_coords(idx))
    min_on_ball = float(values.min())
    bound = min_on_ball >= profile.lower_bound - 1e-12
    return SingleSiteReport(
        ok=inside and bound,
        ball_inside_cell=inside,
        bound_holds=bound,
        checked_nodes=int(idx.size),
        min_on_ball=min_on_ball,
    )


@dataclass(frozen=True)
class PotentialModel:
    """Full model description: background, single-site lattice, disorder."""

    period: float
    background: PeriodicPotential
    site_kind: str
    site_params: tuple
    disorder: DisorderDistribution

    @property
    def coupling_floor(self):
        """The certified constant c of the single-site profiles."""
        return self.site_params[0]

    @property
    def ball_radius(self):
        return self.site_params[1]

    @property
    def support_radius(self):
        if self.site_kind == "ball_indicator":
            return self.site_params[1]
        if self.site_kind == "cone":
            return self.site_params[2]
        raise ValueError(self.site_kind)

    def profile_for(self, site):
        if self.site_kind == "ball_indicator":
            c, delta = self.site_params
            return indicator_profile(site, c, delta, self.period)
        if self.site_kind == "cone":
            c, delta, radius = self.site_params
            peak = c * radius / max(radius - delta, 1e-12)
            return cone_profile(site, peak, radius, c, delta, self.period)
        raise ValueError(self.site_kind)

    def sites_for(self, grid):
        """Integer site indices whose support can intersect the grid box."""
        reach = self.support_radius
        g = self.period
        ranges = []
        for k in range(grid.dimension):
            lo = grid.center[k] - grid.side / 2.0 - reach
            hi = grid.center[k] + grid.side / 2.0 + reach
            ranges.append(range(math.ceil(lo / g), math.floor(hi / g) + 1))
        return list(itertools.product(*ranges))

    def profiles_for(self, grid):
        return [self.profile_for(s) for s in self.sites_for(grid)]


def load_model(spec):
    """Build a PotentialModel from a JSON dict (or a path to one).

    Expected shape:
      {"G": g, "V0": {"kind": ..., ...}, "single_site": {"kind": ..., ...},
       "disorder": {"kind": ..., "eta": ..., "kappa": ...}}
    """
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    g = float(spec.get("G", 1.0))

    v0 = spec["V0"]
    kind = v0["kind"]
    if kind == "zero":
        background = zero_potential(g)
    elif kind == "constant":
        background = constant_potential(v0["value"], g)
    elif kind == "separable_square":
        background = separable_square_potential(
            v0["amplitude"], g, v0.get("duty", 0.5))
    else:
        raise ValueError(f"unknown V0 kind {kind!r}")

    ss = spec["single_site"]
    if ss["kind"] == "ball_indicator":
        site_params = (float(ss["c"]), float(ss["delta"]))
    elif ss["kind"] == "cone":
        site_params = (float(ss["c"]), float(ss["delta"]), float(ss["radius"]))
    else:
        raise ValueError(f"unknown single_site kind {ss['kind']!r}")

    dd = spec["disorder"]
    eta = float(dd.get("eta", 0.5))
    kappa = dd.get("kappa")
    if dd["kind"] == "uniform01":
        dist = uniform01(eta, 0.5 if kappa is None else float(kappa))
    elif dd["kind"] == "bernoulli":
        dist = bernoulli(float(dd["p"]), eta,
                         None if kappa is None else float(kappa))
    elif dd["kind"] == "truncated":
        dist = truncated(dd["values"], dd["probs"], eta,
                         None if kappa is None else float(kappa))
    else:
        raise ValueError(f"unknown disorder kind {dd['kind']!r}")

    return PotentialModel(
        period=g,
        background=background,
        site_kind=ss["kind"],
        site_params=site_params,
        disorder=dist,
    )
