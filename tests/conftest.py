import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from iselab import eigensolve, rng
from iselab.events import _event_logs, ledger_verdict
from iselab.grid import GridSpec
from iselab.ise import ExperimentPlan
from iselab.potentials import Box, load_model, zero_potential

# the shipped models and plan, found from this file rather than the CWD
MODELS = Path(__file__).resolve().parent.parent / "models"


def shipped(name):
    """A fresh copy of models/<name>.json, free for the caller to edit."""
    return json.loads((MODELS / f"{name}.json").read_text())


def reference_plan(**overrides):
    """The shipped reference plan, with `trials` or `workers` overridden."""
    return dataclasses.replace(
        ExperimentPlan.from_json(shipped("reference_plan")), **overrides)


# Test oracles: closed forms and helpers that only the tests read.

def laplacian_eigenvalues_1d(n, h, boundary):
    """Closed-form 1D stencil spectrum (sorted for dirichlet/neumann)."""
    if boundary == "dirichlet":
        k = np.arange(1, n + 1)
        return (4.0 / h**2) * np.sin(np.pi * k / (2 * (n + 1))) ** 2
    if boundary == "periodic":
        m = np.arange(n)
        return (4.0 / h**2) * np.sin(np.pi * m / n) ** 2
    if boundary == "neumann":
        k = np.arange(n)
        return (4.0 / h**2) * np.sin(np.pi * k / (2 * n)) ** 2
    raise ValueError(boundary)


def laplacian_eigenvalues(grid):
    """Tensor-sum spectrum of the discrete Laplacian, sorted ascending."""
    axis = laplacian_eigenvalues_1d(grid.points_per_side, grid.spacing,
                                    grid.boundary)
    total = axis
    for _ in range(grid.dimension - 1):
        total = np.add.outer(total, axis).ravel()
    return np.sort(total)


def exact_event_log_failure(spec):
    """ln(1 - P[A]), meaningful even when P[A] rounds to 1."""
    a, log_m, z = _event_logs(spec)
    if a < -700 or log_m + a < -700:
        # 1 - (1-g)^M = M g (1 + O(M g)); the correction is far below ulp
        return log_m + a
    if z > math.log(745.0):   # P[A] ~ 0; the failure is certain
        return 0.0
    return math.log(-math.expm1(-math.exp(z)))


def min_scale_by_scan(dimension, alpha, q, kappa, eta, c, last=5_000_000):
    """Smallest L >= 3 with a true ledger verdict, walking L one at a time.

    The oracle of events.min_scale_for_probability: it reads the verdict
    alone, assumes nothing about its shape in L and fails past `last`.
    """
    for L in range(3, last):
        if ledger_verdict(dimension, L, alpha, q, kappa, eta, c):
            return L
    raise AssertionError(f"no true verdict below L={last}")


def uniform_at(seed, purpose, index):
    """Single uniform in [0, 1) at the given coordinates, drawn from its own
    generator: the per-site oracle of rng.uniforms_at."""
    return float(rng.stream(seed, purpose, index).random())


def _scan_ball(nodes, center, radius):
    """Indices of the rows of `nodes` strictly within `radius` of `center`,
    by a distance scan (squares summed axis by axis)."""
    dist2 = np.zeros(len(nodes))
    for k in range(nodes.shape[1]):
        dist2 += (nodes[:, k] - float(center[k])) ** 2
    return np.flatnonzero(dist2 < radius * radius)


def site_matrix_by_profile(profile, sites, grid):
    """U assembled one site at a time, at lattice period G = 1: site j's
    support nodes by a distance scan over grid.nodes() about its centre j,
    and its values by the profile's evaluate at their offsets.  The oracle
    of potentials.site_matrix."""
    nodes = grid.nodes()
    rows, values, indptr = [np.empty(0, dtype=np.int64)], [np.empty(0)], [0]
    for site in sites:
        idx = _scan_ball(nodes, site, profile.support_radius)
        rows.append(idx)
        values.append(profile.evaluate(nodes[idx] - np.asarray(site, float)))
        indptr.append(indptr[-1] + idx.size)
    return sparse.csc_matrix((np.concatenate(values), np.concatenate(rows),
                              indptr), shape=(grid.num_points, len(sites)))


def assemble_random_potential(cfg, profile, sites, grid):
    """Nodewise V_omega = sum_j omega_j u(x - j) = U @ omega on the grid,
    at lattice period G = 1."""
    return Box.build(grid, zero_potential(), profile, sites).potential(cfg)


@pytest.fixture
def unit_grid():
    """Periodic 2D box of side 4 with unit spacing (16 nodes)."""
    return GridSpec(dimension=2, side=4.0, spacing=1.0, boundary="periodic")


@pytest.fixture
def fine_grid():
    """Periodic 2D box of side 4 at 8 nodes per unit (1024 nodes)."""
    return GridSpec(dimension=2, side=4.0, spacing=0.125, boundary="periodic")


@pytest.fixture
def gapped_model():
    return load_model(shipped("reference_gapped"))


def _brute_force_cells(spec):
    """[(center, sites)] of the event's cells, found by filtering.

    Centers are the points of lZ^d in the open box (-L, L)^d and a cell's
    sites the integer points strictly inside the open cube of side l around
    its center, both filtered from the integer points of [-2L, 2L]^d and so
    both in lexicographic order.
    """
    L, l = spec.L, spec.l
    pts = np.array(list(itertools.product(range(-2 * L, 2 * L + 1),
                                          repeat=spec.dimension)))
    centers = pts[((pts % l) == 0).all(axis=1) & (np.abs(pts) < L).all(axis=1)]
    return [(tuple(j), [tuple(p) for p in
                        pts[(np.abs(pts - j) < l / 2.0).all(axis=1)].tolist()])
            for j in centers.tolist()]


def event_ball_mask(cfg, spec, profile, sites, grid):
    """Sorted node indices of the good event's balls, or None off the event.

    The oracle of events.event_choice with ucp.event_balls, at lattice
    period G = 1: each cell of _brute_force_cells chooses its smallest site
    with omega >= eta, read site by site; the mask is the union of the
    chosen sites' balls B_delta(j), each by a distance scan over
    grid.nodes(), a chosen site not in `sites` adding none.
    """
    carried = {tuple(map(int, s)) for s in sites}
    nodes = grid.nodes()
    pieces = []
    for _, cell in _brute_force_cells(spec):
        hits = [s for s in cell if cfg[s] >= spec.eta]
        if not hits:
            return None
        if min(hits) in carried:
            pieces.append(_scan_ball(nodes, min(hits), profile.ball_radius))
    return np.unique(np.concatenate(pieces))


@pytest.fixture(scope="session")
def brute_force_cells():
    """Independent oracle for EventSpec.cells(): see _brute_force_cells."""
    return _brute_force_cells


class PlantedConfiguration:
    """Couplings planted from a {site tuple: value} map.

    Reads like potentials.DisorderConfiguration: cfg[q] takes a site tuple
    (a float) or a (..., d) integer array (an array of shape q.shape[:-1]).
    A site the map does not plant raises KeyError.
    """

    def __init__(self, values):
        self.values = {tuple(map(int, s)): float(v) for s, v in values.items()}

    def __getitem__(self, site):
        q = np.asarray(site, dtype=np.int64)
        rows = map(tuple, q.reshape(-1, q.shape[-1]).tolist())
        out = np.array([self.values[r] for r in rows], dtype=float)
        return float(out[0]) if q.ndim == 1 else out.reshape(q.shape[:-1])


@pytest.fixture(scope="session")
def config_from():
    """Build a configuration from a mapping: see PlantedConfiguration."""
    return PlantedConfiguration


def _dense_eigvals(mat):
    """All eigenvalues of a sparse symmetric matrix, sorted, by dense LAPACK."""
    return np.sort(np.linalg.eigvalsh(mat.toarray()))


@pytest.fixture(scope="session")
def dense_eigvals():
    """Dense oracle for a matrix's spectrum: see _dense_eigvals."""
    return _dense_eigvals


def blas_threads():
    """The thread count each loaded OpenBLAS reports."""
    return [get() for get, _ in eigensolve._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads during the test, so that a pin
    to one thread shows; the counts found before are put back after it.
    Yields the counts the libraries report on two threads."""
    controls = eigensolve._openblas_thread_controls()
    before = blas_threads()
    for _, put in controls:
        put(2)
    yield blas_threads()
    for (_, put), threads in zip(controls, before):
        put(threads)
