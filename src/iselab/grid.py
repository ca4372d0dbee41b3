"""Boxes, ball node sets, the finite-difference Laplacian and box Hamiltonians.

The box (-L/2, L/2)^d is discretized with n = L/h cell-centered nodes per
axis, the same on every axis, so every node lies strictly inside the box
and, for periodic boundary conditions, wrapping a node by L lands exactly
on another node.  The cells of the good event are integer boxes with a
closed-form layout; events.EventSpec.cells tabulates them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import MemoryBudgetError

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "periodic")

# Grids larger than this are refused before anything is allocated.
MAX_POINTS = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the box (-side/2, side/2)^dimension.

    Every box is centred at the origin: with G/h whole, a box centred at
    another lattice point is the same operator with its sites relabelled.
    """

    dimension: int
    side: float
    spacing: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.side <= 0 or self.spacing <= 0:
            raise ValueError("side and spacing must be positive")
        if self.boundary not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.boundary!r}")
        n = self.points_per_side
        if n < 2:
            raise ValueError("need at least 2 points per side")
        if abs(n * self.spacing - self.side) > 1e-12 * self.side:
            raise ValueError("spacing must divide the side: n*h != L")
        if n ** self.dimension > MAX_POINTS:
            raise MemoryBudgetError(
                f"grid has {n}^{self.dimension} points, budget is {MAX_POINTS}"
            )

    @classmethod
    def per_unit(cls, dimension, side, points_per_unit, boundary="periodic"):
        """The box of side `side` at `points_per_unit` nodes per unit."""
        if points_per_unit < 1:
            raise ValueError("points_per_unit must be at least 1")
        return cls(dimension=dimension, side=float(side),
                   spacing=1.0 / points_per_unit, boundary=boundary)

    @property
    def points_per_side(self):
        return int(round(self.side / self.spacing))

    @property
    def num_points(self):
        return self.points_per_side ** self.dimension

    def axis_coords(self):
        """Cell-centered node coordinates along an axis, the same on each."""
        n = self.points_per_side
        return -self.side / 2.0 + (np.arange(n) + 0.5) * self.spacing

    def nodes(self):
        """All node coordinates, shape (n^d, d), C order (axis 0 slowest)."""
        mesh = np.meshgrid(*(self.axis_coords(),) * self.dimension,
                           indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def node_coords(self, idx):
        """Coordinates of the nodes with flat indices idx; equals nodes()[idx]."""
        n = self.points_per_side
        multi = np.unravel_index(idx, (n,) * self.dimension)
        return self.axis_coords()[np.stack(multi, axis=1)]

    def nodes_within_balls(self, centers, radius):
        """(indptr, indices): indices[indptr[i]:indptr[i + 1]] are the sorted
        flat indices of the nodes at strict Euclidean distance < radius from
        centers[i], one row per centre, from one batched search.

        Each centre is searched in an axis-aligned window of w nodes per
        axis, w more than a diameter spans, moved inside the box where it
        would leave it, so the cost is proportional to the ball volume, not
        the grid volume.  Balls are clipped at the box edge.
        """
        n, d = self.points_per_side, self.dimension
        centers = np.asarray(centers, dtype=float).reshape(-1, d)
        if not radius > 0:
            return (np.zeros(len(centers) + 1, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        w = min(n, math.ceil(2.0 * radius / self.spacing) + 3)
        # node i covers coordinate -L/2 + (i + 0.5) h
        start = np.floor((centers - radius + self.side / 2.0) / self.spacing
                         - 0.5).astype(np.int64)
        axis_idx = np.clip(start, 0, n - w)[:, :, None] + np.arange(w)
        square = (self.axis_coords()[axis_idx] - centers[:, :, None]) ** 2
        # C order over the window, axis 0 slowest: the indices rise along
        # a row, and each node's squares add up axis by axis
        dist2, idx = 0.0, 0
        for k in range(d):
            shape = (len(centers),) + (1,) * k + (w,) + (1,) * (d - 1 - k)
            dist2 = dist2 + square[:, k].reshape(shape)
            idx = idx * n + axis_idx[:, k].reshape(shape)
        hit = (dist2 < radius * radius).reshape(len(centers), w ** d)
        indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1))))
        return indptr, idx.reshape(hit.shape)[hit]


def _lap1d(n, h, boundary):
    """1D (2+1)-point Laplacian block, exact rational entries over h^2."""
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    mat = sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    if boundary == "periodic":
        mat[0, n - 1] = mat[0, n - 1] - 1.0
        mat[n - 1, 0] = mat[n - 1, 0] - 1.0
    elif boundary == "neumann":
        mat[0, 0] = 1.0
        mat[n - 1, n - 1] = 1.0
    return sparse.csr_matrix(mat) / h**2


@lru_cache(maxsize=32)
def laplacian_matrix(grid):
    """Sparse (2d+1)-stencil matrix for -Laplacian on the grid.

    Dirichlet eigenvalues per axis are (4/h^2) sin^2(pi k / (2(n+1))),
    periodic ones are (4/h^2) sin^2(pi m / n).
    """
    n = grid.points_per_side
    block = _lap1d(n, grid.spacing, grid.boundary)
    eye = sparse.identity(n, format="csr")
    total = None
    for axis in range(grid.dimension):
        term = None
        for k in range(grid.dimension):
            factor = block if k == axis else eye
            term = factor if term is None else sparse.kron(term, factor, format="csr")
        total = term if total is None else total + term
    total.sum_duplicates()
    return sparse.csr_matrix(total)


def assemble_schrodinger(grid, diagonal):
    """-Laplacian + diag(diagonal), the CSR matrix of every box Hamiltonian."""
    return laplacian_matrix(grid) + sparse.diags(diagonal)
