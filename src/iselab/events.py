"""The good-configuration event, scales and bound ledgers.

Everything here mirrors the union-bound chain that turns the per-cell
large-deviation estimate (1-kappa)^(l^d) into a probability bound of the
form 1 - L^(-q), together with the scale window that trades that bound
against the exp(-l^(7/5)) eigenvalue lift.  All smallness is tracked in
log space: the exponents involved underflow doubles almost immediately.
The chain holds "for L large enough": min_scale_for_probability finds the
smallest such L exactly, one bisection per scale l, up to e^700.

The cells have a closed form.  For odd l <= L they are the open cubes
Lambda_l(j) of side l centered at j = l * (-m..m)^d, m = (2L - 1) // (2l),
the points of lZ^d strictly inside the doubled box (-L, L)^d; each holds
the l^d integer sites j + {-(l-1)/2 .. (l-1)/2}^d.  EventSpec.cells
tabulates them, and event_choice reads the event from that table: each
cell's chosen site, or None off the event.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import ScaleWindowError


@dataclass(frozen=True)
class EventSpec:
    """Parameters of the event 'every cell in the doubled box is hit'."""

    dimension: int
    l: int
    L: int
    eta: float
    kappa: float

    def __post_init__(self):
        if self.l % 2 != 1 or self.l < 1:
            raise ValueError("l must be an odd positive integer")
        if self.l > self.L:
            raise ValueError("need l <= L")

    def cells(self):
        """(M, l^d, d) int64 table: row i holds the sites of the i-th cell.

        Rows follow the centers l * (-m..m)^d and entries the offsets
        {-(l-1)/2 .. (l-1)/2}^d, both in lexicographic order, so the middle
        entry l^d // 2 of a row is the cell's center.  Built once per spec
        and shared, so it is read-only.
        """
        return _cell_table(self)


@lru_cache(maxsize=64)
def _cell_table(spec):
    m = (2 * spec.L - 1) // (2 * spec.l)
    centers = spec.l * _cube(m, spec.dimension)
    table = centers[:, None, :] + _cube(spec.l // 2, spec.dimension)
    table.flags.writeable = False
    return table


def _cube(r, d):
    """The points of {-r..r}^d, lexicographic, as a ((2r+1)^d, d) int64 array."""
    axis = np.arange(-r, r + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)


def event_choice(cfg, spec):
    """Each cell's chosen site if omega lies in the good event, else None.

    A cell's choice is its lexicographically smallest site with omega >= eta,
    the first qualifying entry of its row of spec.cells(); the choices are
    int tuples in row order, in a tuple, so the choice can key a memo.
    """
    table = spec.cells()
    hits = cfg[table] >= spec.eta
    if not hits.any(axis=1).all():
        return None
    rows = table[np.arange(len(table)), hits.argmax(axis=1)]
    return tuple(map(tuple, rows.tolist()))


def cell_count(dimension, L, l):
    """M = #((lZ)^d intersect Lambda_{2L}); exact for (possibly huge) int L."""
    return (2 * ((2 * L - 1) // (2 * l)) + 1) ** dimension


def _cell_failure_log(l, d, kappa):
    """ln of the per-cell failure probability (1-kappa)^(l^d)."""
    if kappa >= 1.0:
        return -math.inf
    return (l ** d) * math.log1p(-kappa)


def exact_event_probability(spec):
    """P[A] = (1 - (1-kappa)^(l^d))^M, exact for i.i.d. exact-mass sites.

    Disjoint cells contain disjoint site sets, so the per-cell events are
    independent and the product formula is exact, not a bound.
    """
    if not 0 < spec.kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    log_p = exact_event_log_probability(spec)
    return math.exp(log_p)


def _event_logs(spec):
    """(a, ln M, z): a = ln (1-kappa)^(l^d), the log cell count and
    z = ln(-ln P[A]) = ln M + ln(-ln(1 - e^a)), or -inf.

    Working with the log of the magnitude keeps the huge-integer cell
    count M out of float arithmetic entirely.
    """
    a = _cell_failure_log(spec.l, spec.dimension, spec.kappa)
    log_m = math.log(cell_count(spec.dimension, spec.L, spec.l))
    if a < -700:
        # -ln(1 - e^a) = e^a to double precision, and -inf at a = -inf
        return a, log_m, log_m + a
    return a, log_m, log_m + math.log(-math.log1p(-math.exp(a)))


def exact_event_log_probability(spec):
    z = _event_logs(spec)[2]
    if z == -math.inf:
        return 0.0
    if z > 709.0:   # P[A] underflows to exactly 0
        return -math.inf
    return -math.exp(z)


def monte_carlo_event_probability(spec, trials, seed, chunk=2048):
    """Estimate P[A] by direct simulation with exact threshold mass kappa.

    Returns (p_hat, wilson_lo, wilson_hi).  Deterministic for a fixed seed:
    every trial draws from one counter-based stream in turn, so the chunk
    size, which only bounds memory, does not change the estimate.  At
    kappa >= 1 every draw u < kappa, so every trial hits and none is drawn.
    """
    if spec.kappa >= 1:
        return wilson_interval(trials, trials)
    m, sites_per_cell = spec.cells().shape[:2]
    gen = rng.stream(seed, rng.EVENT_TRIALS, (0,))
    hits = 0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        u = gen.random((batch, m, sites_per_cell))
        cell_ok = (u < spec.kappa).any(axis=2)
        hits += int(cell_ok.all(axis=1).sum())
        done += batch
    return wilson_interval(hits, trials)


def wilson_interval(successes, trials):
    """(p_hat, lo, hi): 95% Wilson score interval."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    z = 1.959963984540054
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return p, max(0.0, center - half), min(1.0, center + half)


def scale_window(L, alpha):
    """(l, x): x = (alpha ln L)^(2/3) and the largest odd integer l in (x/2, x]."""
    if not 0 < alpha:
        raise ValueError("alpha must be positive")
    if L < 2:
        raise ScaleWindowError(f"L={L} too small for any scale window")
    x = _window_x(L, alpha)
    l = int(math.floor(x))
    if l % 2 == 0:
        l -= 1
    if l < 1 or l <= x / 2.0:
        raise ScaleWindowError(
            f"no odd integer in ({x / 2.0:.6g}, {x:.6g}] for L={L}, alpha={alpha}"
        )
    return l, x


def _window_x(L, alpha):
    return (alpha * math.log(L)) ** (2.0 / 3.0)


def select_scale(L, alpha):
    """Largest odd integer l with x/2 < l <= x, where x = (alpha ln L)^(2/3)."""
    return scale_window(L, alpha)[0]


def lifting_bound(side, eta, c):
    """Guaranteed lift eta * c * exp(-side^(7/5)) for cells of side G l."""
    if side <= 0:
        raise ValueError("the cell side must be positive")
    return eta * c * math.exp(-float(side) ** 1.4)


@dataclass(frozen=True)
class LedgerLine:
    name: str
    lhs: float
    rhs: float
    relation: str
    holds: bool


@dataclass(frozen=True)
class BoundLedger:
    """Every inequality of the probability chain, evaluated at one (L, l)."""

    dimension: int
    L: int
    alpha: float
    q: float
    kappa: float
    eta: float
    c: float
    l: int
    lines: tuple
    quantities: dict
    verdict: bool

    def failing(self):
        return [line for line in self.lines if not line.holds]

    def to_json(self):
        return {
            "params": {
                "d": self.dimension, "L": self.L, "alpha": self.alpha,
                "q": self.q, "kappa": self.kappa, "eta": self.eta, "c": self.c,
                "l": self.l,
            },
            "lines": [
                {"name": ln.name, "lhs": ln.lhs, "rhs": ln.rhs,
                 "relation": ln.relation, "holds": ln.holds}
                for ln in self.lines
            ],
            "quantities": self.quantities,
            "verdict": self.verdict,
        }


_HOLDS = {"<": operator.lt, "<=": operator.le}


def _ledger_table(d, L, alpha, q, kappa, eta, c):
    """(l, lines, quantities) of the inequality chain at the selected scale.

    Each line is a (name, lhs, relation, rhs) tuple, in ledger order, and
    holds iff _HOLDS[relation](lhs, rhs).  Raises ValueError if kappa lies
    outside (0, 1] or eta * c <= 0, also where the scale window is empty,
    and ScaleWindowError if it is empty.
    """
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if not eta * c > 0:
        raise ValueError(f"eta * c must be positive: eta = {eta}, c = {c}")
    l, x = scale_window(L, alpha)
    ln_l = math.log(L)
    a_cell = _cell_failure_log(l, d, kappa)
    m = cell_count(d, L, l)
    log_m = math.log(m)
    log_two_l_d = d * (math.log(2.0) + ln_l)
    log_target = -q * ln_l
    # the asymptotic sufficiency condition; have = +inf at kappa = 1
    needed = (q + d) + d * math.log(2.0)
    have = math.inf if kappa >= 1.0 else (-math.log1p(-kappa) / 2 ** d) \
        * alpha ** (2 * d / 3.0) * ln_l ** ((2 * d - 3) / 3.0)
    log_eta_c = math.log(eta * c)
    lift_exponent = float(l) ** 1.4
    lift_room = log_eta_c + alpha * ln_l
    lines = (
        ("scale_window_lower", x / 2.0, "<", float(l)),
        ("scale_window_upper", float(l), "<=", x),
        ("ln_L_at_least_one", 1.0, "<=", ln_l),
        ("per_cell_failure_vs_target", a_cell, "<=", -log_two_l_d + log_target),
        ("sufficient_large_L", needed, "<=", have),
        # M <= (2L)^d in integers; log is monotone, so rounding cannot
        # reverse it, as it can in d (ln 2 + ln L)
        ("cell_count_vs_doubled_box", log_m, "<=", math.log((2 * L) ** d)),
        ("union_bound_vs_target", log_m + a_cell, "<=", log_target),
        ("lifting_at_selected_scale", lift_exponent, "<=", lift_room),
        ("lifting_scale_free", (alpha * ln_l) ** (14.0 / 15.0), "<=", lift_room),
    )
    quantities = {
        "x": x,
        "l": l,
        "log_per_cell_failure": a_cell,
        "log_cell_count": log_m,
        "cell_count": m if m < 10 ** 15 else None,
        "log_union_bound": log_m + a_cell,
        "log_target_failure": log_target,
        "log_lifting_floor": log_eta_c - lift_exponent,
        "log_target_lift": -alpha * ln_l,
    }
    return l, lines, quantities


def build_ledger(dimension, L, alpha, q, kappa, eta, c):
    """Evaluate the whole inequality chain at the selected scale.

    Verdict true means: on top of the per-cell and union bounds holding at
    the selected l, the scale-free sufficient conditions hold, so the
    chain guarantees P[A] >= 1 - L^(-q) and a lift of at least L^(-alpha).
    """
    l, table, quantities = _ledger_table(dimension, L, alpha, q, kappa, eta, c)
    lines = tuple(LedgerLine(name, lhs, rhs, rel, _HOLDS[rel](lhs, rhs))
                  for name, lhs, rel, rhs in table)
    return BoundLedger(
        dimension=dimension, L=L, alpha=alpha, q=q, kappa=kappa, eta=eta, c=c,
        l=l, lines=lines, quantities=quantities,
        verdict=all(line.holds for line in lines),
    )


def ledger_verdict(dimension, L, alpha, q, kappa, eta, c):
    """The ledger's verdict, read from the same table without the report."""
    try:
        table = _ledger_table(dimension, L, alpha, q, kappa, eta, c)[1]
    except ScaleWindowError:
        return False
    return all(_HOLDS[rel](lhs, rhs) for _, lhs, rel, rhs in table)


# the search gives up on bands of one scale l that start above e^700
_L_BUDGET = int(math.exp(700.0))


def _first(pred, lo, hi):
    """Smallest L in [lo, hi) with pred(L), or hi; pred false, then true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_scale_for_probability(dimension, alpha, q, kappa, eta, c):
    """Smallest L >= 3 with a true ledger verdict, or None beyond e^700.

    Exact: the L at which scale_window picks one l form a band, and within
    a band the verdict is false, then true, so bisection finds its first
    true L.  The answer lies in the first band whose last L is true.
    """
    # A band is where x = (alpha ln L)^(2/3) lies in [l, min(l + 2, 2l)).
    # In it sufficient_large_L (d >= 2) and both lifting lines rise with L;
    # the window lines, ln L >= 1 and M <= (2L)^d always hold.  With
    # K = -ln(1 - kappa), sufficient_large_L times ln L >= 1 gives
    # (q + d) ln L + d ln 2 <= K (x/2)^d < K l^d, the per-cell line, and
    # ln M <= d ln 2L turns that into the union line; so neither decides.
    if dimension < 2 or not alpha > 0:
        raise ValueError("the search needs d >= 2 and alpha > 0")

    def verdict(L):
        return ledger_verdict(dimension, L, alpha, q, kappa, eta, c)

    l, lo = 1, 3
    while True:
        lo = _first(lambda L: _window_x(L, alpha) >= l, lo, _L_BUDGET + 1)
        if lo > _L_BUDGET:
            return None
        # ln L grows at most 2^1.5 < 3 times across a band, so it ends
        # below lo^3
        hi = _first(lambda L: _window_x(L, alpha) >= min(l + 2, 2 * l), lo,
                    lo ** 3)
        if lo < hi and verdict(hi - 1):
            return _first(verdict, lo, hi - 1)
        l, lo = l + 2, hi
