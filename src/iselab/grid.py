"""Boxes, ball node sets, the finite-difference Laplacian and box Hamiltonians.

The open hypercube of side L centered at x is discretized with n = L/h
cell-centered nodes per axis, so every node lies strictly inside the box
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
    """Discretization of the box of side `side` centered at `center`."""

    dimension: int
    side: float
    spacing: float
    boundary: str = "periodic"
    center: tuple = None

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.side <= 0 or self.spacing <= 0:
            raise ValueError("side and spacing must be positive")
        if self.boundary not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.boundary!r}")
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.dimension)
        else:
            center = tuple(float(c) for c in self.center)
            if len(center) != self.dimension:
                raise ValueError("center must have one coordinate per dimension")
            object.__setattr__(self, "center", center)
        n = self.points_per_side
        if n < 2:
            raise ValueError("need at least 2 points per side")
        if abs(n * self.spacing - self.side) > 1e-12 * self.side:
            raise ValueError("spacing must divide the side: n*h != L")
        if n ** self.dimension > MAX_POINTS:
            raise MemoryBudgetError(
                f"grid has {n}^{self.dimension} points, budget is {MAX_POINTS}"
            )

    @property
    def points_per_side(self):
        return int(round(self.side / self.spacing))

    @property
    def num_points(self):
        return self.points_per_side ** self.dimension

    def axis_coords(self, axis):
        """Cell-centered node coordinates along one axis."""
        n = self.points_per_side
        lo = self.center[axis] - self.side / 2.0
        return lo + (np.arange(n) + 0.5) * self.spacing

    def nodes(self):
        """All node coordinates, shape (n^d, d), C order (axis 0 slowest)."""
        axes = [self.axis_coords(k) for k in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def node_coords(self, idx):
        """Coordinates of the nodes with flat indices idx; equals nodes()[idx]."""
        n = self.points_per_side
        multi = np.unravel_index(idx, (n,) * self.dimension)
        return np.stack([self.axis_coords(k)[i] for k, i in enumerate(multi)],
                        axis=1)

    def nodes_within_ball(self, center, radius):
        """Flat indices of nodes with strict Euclidean distance < radius.

        Restricted to an axis-aligned index window first, so the cost is
        proportional to the ball volume, not the grid volume.
        """
        n = self.points_per_side
        h = self.spacing
        slices = []
        for k in range(self.dimension):
            lo = self.center[k] - self.side / 2.0
            # node i covers coordinate lo + (i + 0.5) h
            i_lo = max(0, int(math.floor((center[k] - radius - lo) / h - 0.5)))
            i_hi = min(n - 1, int(math.ceil((center[k] + radius - lo) / h - 0.5)))
            if i_lo > i_hi:
                return np.empty(0, dtype=np.int64)
            slices.append(np.arange(i_lo, i_hi + 1))
        mesh = np.meshgrid(*slices, indexing="ij")
        idx = np.zeros(mesh[0].size, dtype=np.int64)
        dist2 = np.zeros(mesh[0].size)
        for k in range(self.dimension):
            ik = mesh[k].ravel()
            idx = idx * n + ik
            coord = self.center[k] - self.side / 2.0 + (ik + 0.5) * h
            dist2 += (coord - center[k]) ** 2
        return np.sort(idx[dist2 < radius * radius])


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
    axis = laplacian_eigenvalues_1d(grid.points_per_side, grid.spacing, grid.boundary)
    total = axis
    for _ in range(grid.dimension - 1):
        total = np.add.outer(total, axis).ravel()
    return np.sort(total)
