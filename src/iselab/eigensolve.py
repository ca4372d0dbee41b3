"""Symmetric eigenvalue counts, and at most one eigensolve per query.

The spectral primitive is `count_below(mat, sigma)`: by Sylvester's law of
inertia the negative pivots of a sparse LDL^T of H - sigma I number exactly
the eigenvalues below sigma.  Whether a window holds spectrum is a
difference of two counts and needs no eigensolve, and a sorted grid of
energies (`counts_below`) is counted only where a Weyl bracket and the
count's monotonicity leave an energy open.  A query that must report
eigenvalues counts first and then makes one shift-invert solve for exactly
that many: the lowest eigenvalue above an energy (`min_eig_above`) and the
eigenvalues of a window (`eigs_in_window`) are each one ARPACK run on the
trusted LDL^T of the count, not on a pivoted LU of its own.  Queries take
the SciPy sparse matrix that `grid.assemble_schrodinger` builds.  A window
solve must return exactly the counted eigenvalues, background eigenpairs are
residual-checked against tol_eig, and failures surface as SolverError with
telemetry instead of silently truncated results.

The background operator H_{0,L} = -Laplacian + V0 is never solved in d
dimensions: V0 is separable and the stencil Laplacian is a Kronecker sum,
so its spectrum is the set of sums of the eigenvalues of one n x n
operator per axis (`background_spectrum`).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import SolverError
from .grid import _lap1d, assemble_schrodinger

TOL_EIG = 1e-8
TOL_GAP = 1e-6


def start_vector(n):
    """Deterministic Lanczos starting vector.

    ARPACK otherwise seeds itself from the global NumPy RNG, which makes
    repeated solves differ at the last few ulps and breaks byte-identical
    reruns.
    """
    return np.random.Generator(np.random.Philox(key=0x1ab0)).standard_normal(n)


@dataclass(frozen=True)
class BackgroundSpectrum:
    """The whole spectrum of H_{0,L}, sorted, with the 1D factors it comes from.

    values[i] = offset + sum_k w_k[j_k] for the axis eigenvalues w_k and the
    multi-index (j_0, ..., j_{d-1}) = unravel(order[i]); its eigenvector is
    the Kronecker product of the axis eigenvectors u_k[:, j_k].
    """

    values: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    axis_vectors: tuple = field(repr=False)

    def vectors(self, count):
        """Eigenvectors of values[:count], in C node order (axis 0 slowest)."""
        n = self.axis_vectors[0].shape[0]
        multi = np.unravel_index(self.order[:count], (n,) * len(self.axis_vectors))
        out = np.ones((1, count))
        for u, j in zip(self.axis_vectors, multi):
            out = (out[:, None, :] * u[:, j][None, :, :]).reshape(
                out.shape[0] * n, count)
        return out


def background_spectrum(grid, v0):
    """Exact spectrum of H_{0,L} = -Laplacian + V0 without a d-dimensional solve.

    Per axis k this diagonalizes the n x n operator
    _lap1d + diag(axis term at grid.axis_coords(k)), the same block that
    laplacian_matrix sums, so the Kronecker sum is H_{0,L} itself.
    """
    block = _lap1d(grid.points_per_side, grid.spacing, grid.boundary).toarray()
    total = np.array([float(v0.offset)])
    axis_vectors = []
    for k in range(grid.dimension):
        values, vectors = np.linalg.eigh(
            block + np.diag(v0.axis_values(grid.axis_coords(k))))
        total = np.add.outer(total, values).ravel()
        axis_vectors.append(vectors)
    order = np.argsort(total, kind="stable")
    return BackgroundSpectrum(total[order], order, tuple(axis_vectors))


def background_eigs_below(grid, v0, threshold):
    """(values, vectors) of H_{0,L} below threshold - tol_eig, sorted.

    They come from the 1D factors, and the Kronecker vectors are
    residual-checked against the assembled H_{0,L}.
    """
    spectrum = background_spectrum(grid, v0)
    count = int(np.searchsorted(spectrum.values, threshold - TOL_EIG))
    values, vectors = spectrum.values[:count], spectrum.vectors(count)
    h0 = assemble_schrodinger(grid, v0.evaluate(grid.nodes()))
    res = np.linalg.norm(h0 @ vectors - vectors * values[None, :], axis=0)
    if np.any(res > TOL_EIG * (np.abs(values) + 1.0)):
        raise SolverError("residual bound violated",
                          telemetry={"method": "separable", "k": count,
                                     "worst_residual": float(res.max())})
    return values, vectors


def _nudge(sigma):
    """The upward shift that moves sigma off an eigenvalue it sits on."""
    return sigma + 100 * TOL_EIG * (1.0 + abs(sigma))


def _inertia(mat, sigma):
    """(factor, #{lambda < sigma}), or None when the factor cannot be trusted.

    SuperLU in symmetric mode factors P (H - sigma I) P^T = L D L^T, so by
    Sylvester's law of inertia the negative pivots count the eigenvalues
    below sigma.  Without pivoting, rounding grows with the largest pivot;
    a pivot within it (sigma at an eigenvalue), or rounding beyond
    tol_eig (1 + |sigma|), rejects the factor.
    """
    shifted = (mat - sigma * sparse.identity(mat.shape[0], format="csr")).tocsc()
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: factor is exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # an exactly zero diagonal pivot forced a row exchange
    pivots = lu.U.diagonal()
    size, eps = np.abs(pivots), np.finfo(float).eps
    noise = 64 * eps * max(abs(shifted).sum(axis=0).max(), size.max())
    if size.min() <= noise or eps * size.max() > TOL_EIG * (1.0 + abs(sigma)):
        return None
    return lu, int(np.count_nonzero(pivots < 0))


def _trusted_ldlt(mat, sigma):
    """(factor, count, shift): _inertia at sigma, or after one upward nudge."""
    for shift in (sigma, _nudge(sigma)):
        factor = _inertia(mat, shift)
        if factor is not None:
            return (*factor, shift)
    raise SolverError("no trusted LDL^T factor at sigma or after a nudge",
                      telemetry={"sigma": sigma})


def count_below(mat, sigma):
    """Exact number of eigenvalues below sigma, from one sparse LDL^T.

    An untrusted factor moves sigma up by one nudge, so an eigenvalue at
    sigma counts as below (count_below(mat, E) = #{lambda <= E}), as may one
    within the nudge above it.
    """
    return _trusted_ldlt(mat, sigma)[1]


def counts_below(mat, energies, weyl=None):
    """[count_below(mat, e) for e in energies], from as few counts as exact.

    `energies` are sorted.  count_below(mat, E) = #{lambda < E*} for some E*
    in [E, nudge(E)], so it is monotone along every stretch of the grid in
    which each energy lies above the nudge of the one before; two counted
    energies with the same count there fix every energy between them, and
    the rest is bisected.  A grid break (a duplicate energy, a step below the
    nudge) only starts a new stretch.

    `weyl = (values, s)` brackets every count before any factorization, for
    mat = H0 + V with `values` the sorted spectrum of H0 and 0 <= V <= s node
    by node: Weyl's lambda_j(H0) <= lambda_j(mat) <= lambda_j(H0) + s puts
    count_below(mat, E) in [#{values < E - s - tol_gap},
    #{values < nudge(E) + tol_gap}], and an energy whose bracket closes is
    never counted.
    """
    e = np.asarray(energies, dtype=float)
    if np.any(np.diff(e) < 0):
        raise ValueError("energies must be sorted")
    if weyl is None:
        lo, hi = np.zeros(e.size, dtype=int), np.full(e.size, mat.shape[0])
    else:
        values, s = weyl
        lo = np.searchsorted(values, e - s - TOL_GAP)
        hi = np.searchsorted(values, _nudge(e) + TOL_GAP)
    breaks = np.flatnonzero(e[1:] <= _nudge(e[:-1])) + 1
    for run in np.split(np.arange(e.size), breaks):
        while True:
            # the counts rise along the run: tighten each bracket by its
            # neighbours' before choosing the next energy to count
            lo[run] = np.maximum.accumulate(lo[run])
            hi[run] = np.minimum.accumulate(hi[run][::-1])[::-1]
            open_ = run[lo[run] < hi[run]]
            if not open_.size:
                break
            j = open_[open_.size // 2]
            count = count_below(mat, e[j])
            if not lo[j] <= count <= hi[j]:
                raise SolverError("count outside its bracket",
                                  telemetry={"sigma": float(e[j]),
                                             "count": count})
            lo[j] = hi[j] = count
    return lo.tolist()


def _ldlt_shift_invert(mat, sigma, k, which="LM"):
    """eigsh near sigma, (H - sigma I)^-1 applied by _trusted_ldlt's factor."""
    lu, _, sigma = _trusted_ldlt(mat, sigma)
    n = mat.shape[0]
    try:
        return eigsh(mat, k=min(k, n - 1), sigma=sigma, which=which,
                     v0=start_vector(n), OPinv=LinearOperator(
                         mat.shape, matvec=lu.solve, dtype=mat.dtype))
    except RuntimeError as exc:  # ARPACK non-convergence
        raise SolverError(f"shift-invert failed: {exc}",
                          telemetry={"sigma": sigma, "k": k})


def min_eig_above(mat, b):
    """Smallest eigenvalue classified as >= b (values within tol_eig count).

    In shift-invert mode "LA" selects the largest 1 / (lambda - sigma), which
    is the eigenvalue closest above sigma = b - tol_eig; when none lies
    above, ARPACK returns one below sigma instead.
    """
    values, _ = _ldlt_shift_invert(mat, b - TOL_EIG, 1, "LA")
    if values[0] < b - TOL_EIG:
        raise SolverError("no eigenvalue at or above b", telemetry={"b": b})
    return float(values[0])


def lowest_in_spectrum_above(values, b):
    """(k0, lambda) from a full sorted spectrum; values within tol_eig of b count."""
    below = int(np.sum(values < b - TOL_EIG))
    if below == values.size:
        raise SolverError("no eigenvalue at or above b", telemetry={"b": b})
    return below + 1, float(values[below])


def eigs_in_window(mat, a, b):
    """Eigenvalues between a + tol_gap and b - tol_gap, sorted ascending.

    The window is counted first; only a nonempty one is solved, by one
    shift-invert at its centre for exactly the k counted eigenvalues: the
    window is symmetric about that centre, so the k nearest to it are the k
    inside.  A level on an edge (or within the nudge above it) counts as
    below that edge, as in count_below: outside the lower, inside the upper.
    The solve keeps the values in [s_lo, s_hi), the shifts both counts
    used, and one that returns any other number of them is a SolverError.
    """
    if b <= a:
        raise ValueError("need a < b")
    (_, below_lo, s_lo), (_, below_hi, s_hi) = (
        _trusted_ldlt(mat, e) for e in (a + TOL_GAP, b - TOL_GAP))
    k = below_hi - below_lo
    if k == 0:
        return np.empty(0)
    values = _ldlt_shift_invert(mat, 0.5 * (a + b), k)[0]
    values = np.sort(values[(values >= s_lo) & (values < s_hi)])
    if values.size != k:
        raise SolverError("window solve disagrees with its count",
                          telemetry={"a": a, "b": b, "count": k,
                                     "solved": int(values.size)})
    return values


T_GRID_RULE = "t_grid must rise strictly in [0, 1] by <= 0.05"


def check_t_grid(t_grid):
    """t_grid as a tuple, checked to rise strictly in [0, 1] by <= 0.05."""
    t_grid = tuple(t_grid)
    steps = np.diff(t_grid)
    if (np.any(steps <= 0) or np.any(steps > 0.05 + 1e-12)
            or (t_grid and (t_grid[0] < 0 or t_grid[-1] > 1))):
        raise ValueError(T_GRID_RULE)
    return t_grid

