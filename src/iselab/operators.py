"""Assembly of box Hamiltonians and their perturbations.

All potentials enter as diagonal multiplication operators, so the
matrix-level ordering H0 <= H0 + eta*c*chi_S <= H_omega <= H0 + W is exact
whenever the corresponding nodewise inequalities hold.  Every assemble_*
returns the SciPy CSR matrix it builds, which the spectral queries of
`eigensolve` take as it is.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import IselabError
from .grid import laplacian_matrix
from .potentials import assemble_random_potential, assemble_w


@dataclass(frozen=True)
class IndicatorMask:
    """Grid nodes belonging to a union of balls intersected with the box."""

    node_indices: object = field(repr=False)  # sorted int64 array

    def __post_init__(self):
        idx = np.asarray(self.node_indices, dtype=np.int64)
        object.__setattr__(self, "node_indices", np.unique(idx))

    @property
    def size(self):
        return int(self.node_indices.size)

    def indicator(self, num_points):
        chi = np.zeros(num_points)
        chi[self.node_indices] = 1.0
        return chi


def mask_from_balls(grid, balls):
    """Union of ball node sets; balls entirely outside the box drop out."""
    pieces = [grid.nodes_within_ball(b.center, b.radius) for b in balls]
    pieces = [p for p in pieces if p.size]
    if not pieces:
        raise IselabError("indicator mask is empty: no ball meets the grid")
    return IndicatorMask(np.concatenate(pieces))


def assemble_schrodinger(grid, diagonal):
    """-Laplacian + diag(diagonal): the step every assemble_* ends with."""
    return laplacian_matrix(grid) + sparse.diags(diagonal)


def background_diagonal(grid, v0):
    return v0.evaluate(grid.nodes())


def assemble_background(grid, v0):
    """H_{0,L} = -Laplacian + V0."""
    return assemble_schrodinger(grid, background_diagonal(grid, v0))


def assemble_hamiltonian(grid, v0, cfg, profiles):
    """H_{omega,L} = -Laplacian + V0 + V_omega."""
    diag = background_diagonal(grid, v0) + assemble_random_potential(cfg, profiles, grid)
    return assemble_schrodinger(grid, diag)


def assemble_interpolated(grid, v0, t, profiles):
    """H_{0,L} + t * W_L for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    diag = background_diagonal(grid, v0) + t * assemble_w(profiles, grid)
    return assemble_schrodinger(grid, diag)


def assemble_test_perturbation(grid, v0, mask, amplitude):
    """H_{0,L} + amplitude * chi_mask."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if mask.size == 0:
        raise IselabError("empty indicator mask")
    diag = background_diagonal(grid, v0) + amplitude * mask.indicator(grid.num_points)
    return assemble_schrodinger(grid, diag)
