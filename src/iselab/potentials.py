"""Background potentials, the single-site profile and disorder sampling.

A potential model bundles a G-periodic background V0, one nonnegative
single-site profile u with a ball lower bound c * indicator(B_delta(0)) <= u,
carried by every lattice site j translated to G j, and the distribution of
the couplings omega_j with its threshold pair (eta, kappa).  A configuration
is its seed and its law: cfg[q] draws omega_j from the counter-based stream
at whatever sites q names, so no caller chooses its sites in advance.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import rng
from .eigensolve import background_spectrum
from .errors import UnresolvableBallError
from .grid import assemble_schrodinger

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
    """The model's one nonnegative bump u(x) = shape(x) about the origin,
    with a certified ball lower bound c * indicator(B_delta(0)) <= u.

    Site j carries its translate u(x - G j), G the background period.
    `shape` is a hashable value, called on an (N, d) array of offsets from
    a site, so every site evaluates in one call (site_matrix).
    """

    shape: object = field(repr=False)
    lower_bound: float           # c
    ball_radius: float           # delta
    support_radius: float

    def __post_init__(self):
        if self.lower_bound <= 0 or self.ball_radius <= 0:
            raise ValueError("c and delta must be positive")

    def evaluate(self, offsets):
        """u at the rows of `offsets`; a negative value is a ValueError."""
        values = np.asarray(self.shape(np.asarray(offsets, dtype=float)),
                            dtype=float)
        if values.size and values.min() < 0:
            raise ValueError("single-site profile must be nonnegative")
        return values


# Shapes are frozen values, not closures, so a model pickles into pool
# workers and compares by its parameters.

@dataclass(frozen=True)
class Indicator:
    """c on the open ball of radius delta, 0 elsewhere."""

    c: float
    delta: float

    def __call__(self, offsets):
        d2 = np.sum(offsets ** 2, axis=1)
        return self.c * (d2 < self.delta * self.delta)


@dataclass(frozen=True)
class Cone:
    """A linear cone of height `peak`, 0 from distance `radius` on."""

    peak: float
    radius: float

    def __call__(self, offsets):
        dist = np.sqrt(np.sum(offsets ** 2, axis=1))
        return self.peak * np.maximum(0.0, 1.0 - dist / self.radius)


def indicator_profile(c, delta):
    """u = c * indicator(B_delta(0)); the minimal admissible profile."""
    return SingleSiteProfile(Indicator(c, delta), c, delta, delta)


def cone_profile(peak, radius, c, delta):
    """Linear cone of height `peak`; certified bound needs peak*(1-delta/radius) >= c."""
    return SingleSiteProfile(Cone(peak, radius), c, delta, radius)


@dataclass(frozen=True)
class DisorderDistribution:
    """Distribution of a single coupling constant, supported in [0, 1].

    Every certificate reads couplings in [0, 1], so a law with mass outside
    it (or a Bernoulli p outside it) is refused when it is built.
    """

    kind: str
    eta: float
    kappa: float
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "truncated":
            values, probs = self.params
            if not all(0 <= v <= 1 for v in values):
                raise ValueError("coupling values must lie in [0, 1]")
            if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0:
                raise ValueError("probs must be a probability vector")
        elif self.kind != "uniform01":
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.exact_threshold_mass() + 1e-12 < self.kappa:
            raise ValueError("P[omega >= eta] < kappa for this distribution")

    def from_uniform(self, u):
        """Deterministic map from a uniform draw to a coupling value."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform01":
            value = u
        else:
            values, probs = self.params
            edges = np.cumsum(probs)
            idx = np.searchsorted(edges, u, side="right")
            value = np.asarray(values, dtype=float)[np.minimum(idx, len(values) - 1)]
        return value if value.shape else float(value)

    def exact_threshold_mass(self):
        """Exact P[omega >= eta]."""
        if self.kind == "uniform01":
            return max(0.0, 1.0 - self.eta) if self.eta <= 1 else 0.0
        values, probs = self.params
        return float(sum(p for v, p in zip(values, probs) if v >= self.eta))


def uniform01(eta=0.5, kappa=0.5):
    return DisorderDistribution("uniform01", eta, kappa)


def bernoulli(p, eta=0.5, kappa=None):
    """Coupling 1 with probability p, else 0: a two-point table; u < p
    draws 1."""
    if not 0 <= p <= 1:
        raise ValueError("bernoulli p must lie in [0, 1]")
    return truncated((1.0, 0.0), (p, 1.0 - p), eta,
                     p if kappa is None else kappa)


def truncated(values, probs, eta, kappa=None):
    values = tuple(float(v) for v in values)
    probs = tuple(float(p) for p in probs)
    mass = sum(p for v, p in zip(values, probs) if v >= eta)
    return DisorderDistribution("truncated", eta, mass if kappa is None else kappa,
                                (values, probs))


@dataclass(frozen=True)
class DisorderConfiguration:
    """The couplings of one draw on all of Z^d: omega_j for every site j.

    cfg[q] draws dist.from_uniform of the SITE_VALUES uniform at (seed, j)
    for a site tuple q (a float) or every row j of a (..., d) integer array
    (an array of shape q.shape[:-1]), in one vectorized Philox evaluation.
    A value depends only on (seed, site), never on which sites are read
    together or in what order.
    """

    seed: int
    dist: DisorderDistribution

    def __getitem__(self, site):
        q = np.asarray(site, dtype=np.int64)
        u = rng.uniforms_at(self.seed, rng.SITE_VALUES,
                            q.reshape(-1, q.shape[-1]))
        return self.dist.from_uniform(u.reshape(q.shape[:-1]))


def site_matrix(profile, centers, grid):
    """Sparse node x site matrix U: column j holds u(x - centers[j]) on its
    support nodes.

    V_omega = U @ omega for omega_j the coupling at centers[j].  The CSC
    product adds the columns in order, node by node, so it equals adding the
    weighted translates one at a time, bit for bit.  One batched ball search
    (grid.nodes_within_balls) gives U's column pointers and row indices, and
    one profile evaluation at every offset its values.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, grid.dimension)
    indptr, idx = grid.nodes_within_balls(centers, profile.support_radius)
    owner = np.repeat(np.arange(len(centers)), np.diff(indptr))
    values = profile.evaluate(grid.node_coords(idx) - centers[owner])
    return sparse.csc_matrix((values, idx, indptr),
                             shape=(grid.num_points, len(centers)))


@dataclass(frozen=True, eq=False)
class Box:
    """One box's node data, shared by every operator on it.

    Each operator of the chain H0 <= H0 + eta c chi_S <= H_omega <= H0 + W is
    -Laplacian + V0 plus a node diagonal (`hamiltonian`).  `v0` is V0 at the
    nodes, `matrix` U = site_matrix(profile, G sites, grid) kept to its live
    columns (those with a node in the box) and `sites` their (m, d) integer
    sites, so V_omega = U @ omega (`potential`).  W = U @ 1 and its envelope
    are read from U, so a pickled box ships no second node array.
    """

    grid: object
    background: PeriodicPotential
    v0: np.ndarray = field(repr=False)
    matrix: object = field(repr=False)
    sites: np.ndarray = field(repr=False)
    profile: SingleSiteProfile = field(repr=False)

    @classmethod
    def build(cls, grid, background, profile, sites):
        # a dead column adds nothing to U @ omega: dropping it leaves every
        # node's sum, and the order of its terms, unchanged
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, grid.dimension)
        matrix = site_matrix(profile, background.period * sites, grid)
        live = np.flatnonzero(np.diff(matrix.indptr))
        return cls(grid, background, background.evaluate(grid.nodes()),
                   matrix[:, live], sites[live], profile)

    @property
    def w(self):
        """W = U @ 1, the potential with every coupling at 1."""
        return self.matrix @ np.ones(self.matrix.shape[1])

    @property
    def envelope(self):
        """s = max W, so 0 <= U @ omega <= s for omega in [0, 1]^m: the
        profile refuses a negative value, so U >= 0."""
        return float(self.w.max(initial=0.0))

    @property
    def lattice_step(self):
        """Nodes per background period G when rolling the node arrays by
        that many nodes along any axis leaves -Laplacian + V0 unchanged, bit
        for bit; None otherwise.

        That needs a periodic box, G / h a whole number, and V0 at the
        nodes equal to its roll by G / h along every axis.
        """
        grid, period = self.grid, self.background.period
        step = round(period / grid.spacing)
        if (grid.boundary != "periodic" or step < 1
                or abs(step * grid.spacing - period) > 1e-12 * period):
            return None
        v0 = self.v0.reshape((grid.points_per_side,) * grid.dimension)
        if all(np.array_equal(np.roll(v0, step, axis=k), v0)
               for k in range(grid.dimension)):
            return step
        return None

    @property
    def spectrum(self):
        """The background spectrum, memoized per (grid, background)."""
        return background_spectrum(self.grid, self.background)

    def potential(self, cfg):
        """V_omega = U @ omega at the nodes; >= 0, or it raises."""
        return self.potential_of(cfg[self.sites])

    def potential_of(self, omega):
        """U @ omega for the couplings omega at `sites`; >= 0, or it raises."""
        out = self.matrix @ omega
        if out.size and out.min() < 0:
            raise ValueError("random potential must be nonnegative")
        return out

    def hamiltonian(self, diagonal):
        """-Laplacian + V0 + diag(diagonal)."""
        return assemble_schrodinger(self.grid, self.v0 + diagonal)


@dataclass(frozen=True)
class SingleSiteReport:
    ok: bool
    ball_inside_cell: bool
    bound_holds: bool
    checked_nodes: int
    min_on_ball: float


def verify_single_site_bound(profile, grid, period=1.0):
    """Check u >= c on the nodes of B_delta(0), the ball of the site at the
    origin, and that ball inside its period cell (delta <= G/2)."""
    if profile.ball_radius / grid.spacing < MIN_POINTS_ACROSS_BALL:
        raise UnresolvableBallError(
            f"delta/h = {profile.ball_radius / grid.spacing:.3g} < "
            f"{MIN_POINTS_ACROSS_BALL}"
        )
    inside = profile.ball_radius <= period / 2.0
    idx = grid.nodes_within_balls(np.zeros(grid.dimension),
                                  profile.ball_radius)[1]
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
    """Full model description: background, the one single-site profile
    every lattice site j carries at G j, and the disorder."""

    background: PeriodicPotential
    profile: SingleSiteProfile
    disorder: DisorderDistribution

    @property
    def period(self):
        return self.background.period

    @property
    def coupling_floor(self):
        """The certified constant c of the single-site profile."""
        return self.profile.lower_bound

    @property
    def ball_radius(self):
        return self.profile.ball_radius

    def sites_for(self, grid):
        """(m, d) int64 array of the sites whose support can intersect the
        grid box, in lexicographic order."""
        hi = grid.side / 2.0 + self.profile.support_radius
        g = self.period
        axis = np.arange(math.ceil(-hi / g), math.floor(hi / g) + 1)
        mesh = np.meshgrid(*(axis,) * grid.dimension, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def box(self, grid):
        """Box.build of this model's background and profile on the grid."""
        return Box.build(grid, self.background, self.profile,
                         self.sites_for(grid))


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
        profile = indicator_profile(float(ss["c"]), float(ss["delta"]))
    elif ss["kind"] == "cone":
        c, delta, radius = (float(ss[k]) for k in ("c", "delta", "radius"))
        if radius <= delta:
            # the cone would vanish on part of its certified ball B_delta
            raise ValueError(f"cone radius {radius:g} must exceed its "
                             f"delta {delta:g}")
        peak = c * radius / (radius - delta)
        profile = cone_profile(peak, radius, c, delta)
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

    return PotentialModel(background, profile, dist)
