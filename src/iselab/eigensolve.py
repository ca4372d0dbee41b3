"""Symmetric eigenvalue counts, and at most one eigensolve per query.

The spectral primitive is `count_below(mat, sigma)`: by Sylvester's law of
inertia the negative pivots of a sparse LDL^T of H - sigma I number exactly
the eigenvalues below sigma.  Whether a window holds spectrum is a
difference of two counts and needs no eigensolve, and a sorted grid of
energies (`counts_below`), or whether one count equals a given one
(`count_is`), is counted only where an eigenvalue enclosure and the
count's monotonicity leave it open.  The enclosure (`enclosure`) of
H0 + diag(V) with V >= 0 a node array is Weyl's, tightened from above by
Rayleigh-Ritz and from below by Lehmann's bound on the background
eigenvectors; it needs no factorization, and no d-dimensional vector: the
projections X^T diag(V) X come from the 1D factor
(`background_projections`).  A count takes a function that builds its
matrix, called at the first factorization only, so a decided count
assembles nothing.  A query that must report eigenvalues counts first and
then makes one shift-invert solve for exactly that many: the lowest
eigenvalue above an energy (`min_eig_above`) and the eigenvalues of a
window (`eigs_in_window`) are each one ARPACK run on the trusted LDL^T of
the count, not on a pivoted LU of its own.  The lift is bracketed the way
the counts are: with the count below b certified by Weyl
(`certified_lower_count`) and the next Rayleigh-Ritz value theta above it,
the shift sits tol_gap above theta, and the factor's count there says how
many eigenvalues lie between b and the shift, all of which one run solves
for.  Queries take the SciPy sparse matrix that `grid.assemble_schrodinger`
builds.  A window solve must return exactly the counted eigenvalues, a lift
exactly those of its bracket, background eigenpairs are residual-checked
against tol_eig, and failures surface as SolverError with telemetry instead
of silently truncated results.

Every LDL^T is one SuperLU call (`_inertia`), with small supernodes:
relax = panel_size = 4, where SuperLU's defaults (10, 20) are tuned for
large ones.  The lab's boxes (5-point stencil in 2D, 7-point in 3D) form
small supernodes, and on the reference model's periodic boxes at 9 points
per unit that setting factors in 0.62 to 0.80 of the default's time in
2D (L = 4 to 12) and 0.91 to 0.96 in 3D (L = 2 and 3); relax = panel_size
= 1 is faster in 2D but 11 to 23 % slower in 3D.  The settings move only
the rounding of the factor's values, so a count, read from the pivots'
signs, is the same, and shift-invert results move in their last bits.

The background operator H_{0,L} = -Laplacian + V0 is never solved in d
dimensions: V0 is separable, the stencil Laplacian is a Kronecker sum and
every axis has the same nodes, so its spectrum is the set of sums over the
d axes of the eigenvalues of one n x n operator (`background_spectrum`),
whose eigenvectors are checked once, where they are computed.

These kernels are small, so a command runs them under `one_blas_thread`:
every loaded OpenBLAS on one thread, and parallelism across trials only.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=1)
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, read from /proc/self/maps; none where there is no /proc.

    Read once per process: importing this module (NumPy, scipy.sparse.linalg)
    has loaded every OpenBLAS a command uses, and forked workers inherit the
    list with the libraries."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None)
                        for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Yields how many libraries it set (0 where it finds none: another BLAS,
    or no /proc) and restores the thread counts it found on exit.  Worker
    processes forked inside the block inherit the setting.
    """
    found = [(put, get()) for get, put in _openblas_thread_controls()]
    for put, _ in found:
        put(1)
    try:
        yield len(found)
    finally:
        for put, threads in found:
            put(threads)


@dataclass(frozen=True)
class BackgroundSpectrum:
    """The whole spectrum of H_{0,L}, sorted, with the 1D factor it comes from.

    Every axis carries the same n x n operator, with eigenvalues w and
    eigenvectors u = axis_vectors.  values[i] = offset + sum_k w[j_k] for
    the multi-index (j_0, ..., j_{d-1}) = unravel(order[i]), and its
    eigenvector is the Kronecker product of the columns u[:, j_k].
    """

    values: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    axis_vectors: np.ndarray = field(repr=False)
    dimension: int

    def vectors(self, count):
        """Eigenvectors of values[:count], in C node order (axis 0 slowest)."""
        u = self.axis_vectors
        n = u.shape[0]
        multi = np.unravel_index(self.order[:count], (n,) * self.dimension)
        out = np.ones((1, count))
        for j in multi:
            out = (out[:, None, :] * u[:, j][None, :, :]).reshape(
                out.shape[0] * n, count)
        return out


@lru_cache(maxsize=16)
def background_spectrum(grid, v0):
    """Exact spectrum of H_{0,L} = -Laplacian + V0 without a d-dimensional solve.

    Every axis has the same nodes, so one eigh of the n x n operator
    _lap1d + diag(axis term at grid.axis_coords()), the block that
    laplacian_matrix sums on each axis, gives the whole spectrum: its
    values summed over the d axes are the Kronecker sum, H_{0,L} itself.
    The 1D factor is checked here, once: max |u^T u - I| and the residual
    max |B u - u w| must be within 1e-12 (the residual relative to
    1 + max |w|), or it is a SolverError; its Kronecker products are then
    orthonormal eigenvectors of H_{0,L} to the same order.
    It is memoized per (grid, v0), as laplacian_matrix is per grid, and its
    arrays are read-only, so no caller can change what the next one reads.
    """
    block = _lap1d(grid.points_per_side, grid.spacing, grid.boundary).toarray()
    block += np.diag(v0.axis_values(grid.axis_coords()))
    values, vectors = np.linalg.eigh(block)
    orthonormality = np.abs(vectors.T @ vectors
                            - np.eye(values.size)).max()
    residual = np.abs(block @ vectors - vectors * values).max()
    if (orthonormality > 1e-12
            or residual > 1e-12 * (1.0 + np.abs(values).max())):
        raise SolverError("1D background factor fails its check",
                          telemetry={"orthonormality": float(orthonormality),
                                     "residual": float(residual)})
    total = np.array([float(v0.offset)])
    for _ in range(grid.dimension):
        total = np.add.outer(total, values).ravel()
    order = np.argsort(total, kind="stable")
    spectrum = BackgroundSpectrum(total[order], order, vectors, grid.dimension)
    for array in (spectrum.values, order, vectors):
        array.flags.writeable = False
    return spectrum


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
    tol_eig (1 + |sigma|), rejects the factor.  This is the only
    factorization in the package; relax = panel_size = 4 keep its
    supernodes small (see the module docstring).
    """
    shifted = mat - sigma * sparse.identity(mat.shape[0], format="csr")
    try:
        # H - sigma I is symmetric, so its CSR arrays are those of its CSC
        lu = splu(shifted.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  relax=4, panel_size=4, options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: factor is exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # an exactly zero diagonal pivot forced a row exchange
    pivots = lu.U.diagonal()
    size, eps = np.abs(pivots), np.finfo(float).eps
    column_sums = np.bincount(shifted.indices, np.abs(shifted.data),
                              minlength=shifted.shape[1])
    noise = 64 * eps * max(column_sums.max(), size.max())
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


def background_projections(spectrum, diagonals, count):
    """X^T diag(v) X for each node array v of `diagonals`, stacked, X the
    background eigenvectors of values[:count], from the 1D factor alone.

    Level p is the Kronecker product of the axis modes a_k(p) (u's columns),
    so entry (p, q) is the sum over nodes i of v(i) prod_k u[i_k, a_k(p)]
    u[i_k, a_k(q)].  With the A distinct axis modes m of the `count` levels,
    Y = u[:, m_a] u[:, m_b] is an n x A^2 array; contracting v with Y along
    each axis leaves an (A^2)^d array, and the count x count entries are
    read from it by their d mode pairs.  That is O(n^d A^2) work, and no
    n^d x count array of d-dimensional vectors is built.
    """
    u, dimension = spectrum.axis_vectors, spectrum.dimension
    n = u.shape[0]
    multi = np.unravel_index(spectrum.order[:count], (n,) * dimension)
    modes, index = np.unique(np.asarray(multi), return_inverse=True)
    index = index.reshape(dimension, count)
    y = (u[:, modes, None] * u[:, None, modes]).reshape(n, -1)
    t = np.reshape(diagonals, (len(diagonals),) + (n,) * dimension)
    for _ in range(dimension):
        # sums the leading node axis, and appends that axis's pair axis
        t = np.tensordot(t, y, axes=(1, 0))
    pairs = tuple(modes.size * i[:, None] + i[None, :] for i in index)
    return t[(slice(None),) + pairs]


def _rayleigh_ritz(diagonal, spectrum, j, rho=0.0, lehmann=False):
    """(theta, tau) for H = H0 + diag(diagonal) on the background
    eigenvectors X of values[:j], with G = X^T V X and G2 = X^T V^2 X from
    background_projections (V = diag(diagonal)).

    theta, sorted, are the Rayleigh-Ritz values, the eigenvalues of
    X^T H X = Lambda + G: lambda_i <= theta_i by min-max.  With `lehmann`,
    tau are the eigenvalues of Lehmann's pencil at rho (see enclosure),
    (Lambda - rho + G, (Lambda - rho)^2 + (Lambda - rho) G + G (Lambda - rho)
    + G2), reduced by the Cholesky factor of its positive definite second
    matrix; without it, tau is None.
    """
    g = background_projections(
        spectrum, (diagonal, diagonal ** 2) if lehmann else (diagonal,), j)
    g = 0.5 * (g + g.transpose(0, 2, 1))
    shifted = spectrum.values[:j] - rho
    a0 = np.diag(shifted) + g[0]
    theta = np.linalg.eigvalsh(a0) + rho
    if not lehmann:
        return theta, None
    c = np.linalg.cholesky(np.diag(shifted ** 2) + g[1]
                           + shifted[:, None] * g[0] + g[0] * shifted[None, :])
    return theta, np.linalg.eigvalsh(
        np.linalg.solve(c, np.linalg.solve(c, a0).T))


def enclosure(diagonal, spectrum, top):
    """(lower, upper), both sorted, with lower_j <= lambda_j <= upper_j
    for the eigenvalues lambda_j of H0 + diag(diagonal).

    `spectrum` is the background spectrum of H0 and `diagonal` a node array
    V >= 0, so 0 <= V <= s with s = max V.  Weyl gives values_j <= lambda_j
    <= values_j + s for every j.  The levels that can decide a count below
    `top` are the J0 = #{values < nudge(top) + tol_gap} lowest; they are
    tightened with the background eigenvectors X of the first J >= J0
    levels (orthonormal, checked once in background_spectrum), through
    G = X^T V X and G2 = X^T V^2 X (background_projections, in
    _rayleigh_ritz), so no d-dimensional vector is built:

    - Rayleigh-Ritz (min-max, any orthonormal X): lambda_j <= theta_j,
      the eigenvalues of X^T (H0 + V) X = Lambda + G.
    - Lehmann, at the widest background gap that follows some J in
      [J0, 2 J0] (the first of equal ones) when it is wider than s: by
      Weyl exactly J eigenvalues lie below rho, the midpoint of
      (values_J + s, values_{J+1}), and none within d = (gap - s) / 2 of
      it.  Rayleigh-Ritz for (H - rho)^-1 on the
      span of R = (H - rho) X gives the pencil (X^T R, R^T R), here
      (Lambda - rho + G, (Lambda - rho)^2 + (Lambda - rho) G
      + G (Lambda - rho) + G2), whose eigenvalues tau_1 <= ... bound
      lambda_{J+1-i} >= rho + 1 / tau_i for every tau_i < 0.  It is skipped
      when R^T R is too ill-conditioned for tol_gap: 64 eps (r / d)^2 >
      tol_gap, with r = max(values_max + s - rho, rho - values_0) >=
      ||H - rho||_2.

    lower is a running max and upper a suffix min, so both stay sorted.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.size and diagonal.min() < 0:
        raise ValueError("the enclosure needs a nonnegative diagonal")
    values = spectrum.values
    s = float(diagonal.max(initial=0.0))
    lower, upper = values.copy(), values + s
    j0 = int(np.searchsorted(values, _nudge(top) + TOL_GAP))
    if j0:
        gaps = np.diff(values[j0 - 1:min(2 * j0, values.size - 1) + 1])
        wide = gaps.size and gaps.max() > s
        j = j0 + int(np.argmax(gaps)) if wide else j0
        rho = d = 0.0
        if wide:
            rho = 0.5 * (values[j - 1] + s + values[j])
            d = 0.5 * (values[j] - values[j - 1] - s)
        norm = max(values[-1] + s - rho, rho - values[0])
        lehmann = (d > 0 and
                   64 * np.finfo(float).eps * (norm / d) ** 2 <= TOL_GAP)
        theta, tau = _rayleigh_ritz(diagonal, spectrum, j, rho, lehmann)
        upper[:j] = np.minimum(upper[:j], theta)
        if lehmann:
            bound = np.full(j, -np.inf)
            bound[tau < 0] = rho + 1.0 / tau[tau < 0]
            lower[:j] = np.maximum(lower[:j], bound[::-1])
    return (np.maximum.accumulate(lower),
            np.minimum.accumulate(upper[::-1])[::-1])


def _count_brackets(energies, bounds):
    """(lo, hi) with lo <= count_below(mat, e) <= hi at each energy (an
    array, or one energy), read from `bounds` alone (see counts_below)."""
    lower, upper = bounds
    return (np.searchsorted(upper, energies - TOL_GAP),
            np.searchsorted(lower, _nudge(energies) + TOL_GAP))


def counts_below(build, energies, bounds):
    """[count_below(build(), e) for e in energies], from as few counts as
    exact.

    `build` is a zero-argument function that returns the matrix; it is
    called once, at the first count, and not at all where the brackets
    decide every energy.

    `energies` are sorted.  count_below(mat, E) = #{lambda < E*} for some E*
    in [E, nudge(E)], so it is monotone along every stretch of the grid in
    which each energy lies above the nudge of the one before; two counted
    energies with the same count there fix every energy between them, and
    the rest is bisected.  A grid break (a duplicate energy, a step below the
    nudge) only starts a new stretch.

    `bounds = (lower, upper)`, sorted with lower_j <= lambda_j(mat) <=
    upper_j (`enclosure`, or Weyl's (values, values + s)), brackets every
    count before any factorization: count_below(mat, E) lies in
    [#{upper < E - tol_gap}, #{lower < nudge(E) + tol_gap}], and an energy
    whose bracket closes is never counted.  A bound may miss its eigenvalue
    by less than tol_gap (rounding): the margins absorb it.  A count outside
    its bracket is a SolverError.
    """
    e = np.asarray(energies, dtype=float)
    if np.any(np.diff(e) < 0):
        raise ValueError("energies must be sorted")
    lo, hi = _count_brackets(e, bounds)
    mat = None
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
            if mat is None:
                mat = build()
            count = count_below(mat, e[j])
            if not lo[j] <= count <= hi[j]:
                raise SolverError("count outside its bracket",
                                  telemetry={"sigma": float(e[j]),
                                             "count": count,
                                             "lo": int(lo[j]),
                                             "hi": int(hi[j])})
            lo[j] = hi[j] = count
    return lo.tolist()


def count_is(build, energy, bounds, k):
    """Whether count_below(build(), energy) == k, as counts_below decides
    it, but without a count (or a matrix) where the bracket already
    excludes k."""
    lo, hi = _count_brackets(energy, bounds)
    return bool(lo <= k <= hi) and counts_below(build, [energy],
                                                bounds) == [k]


def certified_lower_count(spectrum, s, b):
    """#{lambda < b - tol_eig} for every H0 + diag(V) with 0 <= V <= s node
    by node, or None.

    Weyl (lambda_j(H0) <= lambda_j <= lambda_j(H0) + s) keeps the
    background's count k when its k-th eigenvalue plus s stays tol_gap below
    b - tol_eig.  None (refused) when s does not fit.
    """
    values = spectrum.values
    k = int(np.searchsorted(values, b - TOL_EIG))
    if k and values[k - 1] + s >= b - TOL_EIG - TOL_GAP:
        return None
    return k


def _ldlt_shift_invert(mat, factor, k, which="LM", ncv=None):
    """The k eigenvalues eigsh finds near the shift of `factor`, a
    _trusted_ldlt (lu, count, shift), (H - shift I)^-1 applied by its lu."""
    lu, _, sigma = factor
    n = mat.shape[0]
    try:
        return eigsh(mat, k=min(k, n - 1), sigma=sigma, which=which, ncv=ncv,
                     v0=start_vector(n), OPinv=LinearOperator(
                         mat.shape, matvec=lu.solve, dtype=mat.dtype))[0]
    except RuntimeError as exc:  # ARPACK non-convergence
        raise SolverError(f"shift-invert failed: {exc}",
                          telemetry={"sigma": sigma, "k": k})


def min_eig_above(mat, b, diagonal, spectrum):
    """Smallest eigenvalue of mat = H0 + diag(diagonal) classified as >= b
    (values within tol_eig count); `spectrum` is H0's background spectrum
    and `diagonal` >= 0 a node array, so the lift is bracketed first.

    Let k = certified_lower_count(spectrum, max diagonal, b): exactly k
    eigenvalues lie below b - tol_eig.  Rayleigh-Ritz on the background
    eigenvectors of the J levels below nudge(b) + tol_gap gives theta with
    lambda_{k+1} <= theta_{k+1} (min-max), so one trusted LDL^T at
    sigma = theta_{k+1} + tol_gap counts k + m eigenvalues below its shift,
    m >= 1: lambda_{k+1}, ..., lambda_{k+m}, the m that lie in
    [b - tol_eig, sigma).  They are the m eigenvalues nearest below the
    shift, the m smallest 1 / (lambda - sigma) ("SA"), so one ARPACK run
    (ncv = 2 m + 1, at least 4) solves for exactly them, each of which must
    lie in that interval; the answer is their minimum.  Just above the
    level, the shift sets it far apart from its neighbours in
    1 / (lambda - sigma).
    Where no count is certified, or k = J, the shift is b - tol_eig and
    "LA" selects the largest 1 / (lambda - sigma), the eigenvalue closest
    above it; when none lies above, ARPACK returns one below instead.  A
    factor trusted only past b would skip a level at b: a SolverError.
    Anything else is a SolverError; a negative diagonal, which Weyl's
    count does not cover, is a ValueError.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.size and diagonal.min() < 0:
        raise ValueError("the lift needs a nonnegative diagonal")
    k = certified_lower_count(spectrum, float(diagonal.max(initial=0.0)), b)
    j = int(np.searchsorted(spectrum.values, _nudge(b) + TOL_GAP))
    if k is None or k >= j:
        sigma = b - TOL_EIG
        factor = _trusted_ldlt(mat, sigma)
        if factor[2] != sigma:
            raise SolverError("no trusted LDL^T factor at b - tol_eig",
                              telemetry={"b": b, "sigma": factor[2]})
        values = _ldlt_shift_invert(mat, factor, 1, "LA")
        if values[0] < sigma:
            raise SolverError("no eigenvalue at or above b",
                              telemetry={"b": b})
        return float(values[0])
    theta, _ = _rayleigh_ritz(diagonal, spectrum, j)
    factor = _trusted_ldlt(mat, theta[k] + TOL_GAP)
    m, sigma = factor[1] - k, factor[2]
    if m >= 1:
        values = _ldlt_shift_invert(mat, factor, m, "SA",
                                    min(max(2 * m + 1, 4), mat.shape[0]))
    if (m < 1 or values.size != m or values.min() < b - TOL_EIG
            or values.max() >= sigma):
        raise SolverError("lift outside its bracket",
                          telemetry={"b": b, "sigma": sigma, "count": m})
    return float(values.min())


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
    values = _ldlt_shift_invert(mat, _trusted_ldlt(mat, 0.5 * (a + b)), k)
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

