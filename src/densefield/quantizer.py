"""Scalar quantization and the point-to-point TDMA coding scheme.

Lloyd-Max codebooks for the unit Gaussian are designed with closed-form cell
moments (error-function integrals from the standard library's ``math.erfc``),
so the design is exact up to its tolerance with no Monte Carlo noise.  The
design solves the centroid condition, with boundaries at the midpoints of
the points, by Newton's method: the Jacobian is tridiagonal in closed form,
so each step costs O(L), and about a dozen steps reach the tolerance.  The
point-to-point scheme splits [0, 1] into K sub-intervals, activates one
sensor per sub-interval per time step in a round-robin frame, and codes each
active sample on its own.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InfeasibleConfigError
from .field import _freeze

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)
_K_LIMIT = 100_000
# Lloyd-Max residual tolerance and Newton step limit; largest codebook size
_LLOYD_TOL = 1e-11
_LLOYD_MAX_ITER = 100
_MAX_LEVELS = 1 << 16


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _norm_cdf(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt 2) of an array; 0 and 1 at -inf
    and +inf exactly."""
    return 0.5 * _ERFC(-x / _SQRT_2).astype(float)


def _norm_ppf(p):
    """Standard normal quantile of each probability in an array."""
    from statistics import NormalDist  # kept off the CLI import path

    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(v) for v in p.tolist()])


def _edge_term(edges):
    # x * pdf(x) with the correct 0 limit at +-inf
    out = np.zeros_like(edges)
    finite = np.isfinite(edges)
    out[finite] = edges[finite] * _norm_pdf(edges[finite])
    return out


def _cell_stats(boundaries):
    """Probability, mean and second moment of N(0,1) on each cell.

    Cells above 0 take their probability as a difference of survival
    functions: a difference of CDFs there cancels to a few ulps of 1, which
    would floor the design residual near 1e-9 for L of several hundred.
    """
    edges = np.concatenate(([-np.inf], boundaries, [np.inf]))
    cdf = _norm_cdf(edges)
    sf = _norm_cdf(-edges)
    pdf = np.where(np.isfinite(edges), _norm_pdf(edges), 0.0)
    xpdf = _edge_term(edges)
    prob = np.where(edges[:-1] >= 0.0, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    m1 = pdf[:-1] - pdf[1:]
    m2 = prob - (xpdf[1:] - xpdf[:-1])
    return prob, m1, m2


@dataclass(frozen=True)
class ScalarQuantizer:
    """Lloyd-Max codebook for the unit Gaussian source."""

    levels: int
    boundaries: np.ndarray
    points: np.ndarray
    distortion: float

    def __post_init__(self):
        for name in ("boundaries", "points"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _distortion(boundaries, points):
    prob, m1, m2 = _cell_stats(boundaries)
    return float(np.sum(m2 - 2.0 * points * m1 + points ** 2 * prob))


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the system with sub-, main and super-diagonals ``lower``,
    ``diag`` and ``upper`` by the Thomas sweep, in O(n) time and memory."""
    sub, sup, den, x = (a.tolist() for a in (lower, upper, diag, rhs))
    for i in range(1, len(x)):
        w = sub[i - 1] / den[i - 1]
        den[i] -= w * sup[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= den[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - sup[i] * x[i + 1]) / den[i]
    return np.array(x)


@lru_cache(maxsize=256)
def lloyd_max(levels):
    """Design the L-level minimum-MSE scalar quantizer for N(0, 1).

    Starting from the equal-probability quantile codebook, Newton's method
    solves the centroid condition F_i(y) = m1_i(b) - y_i prob_i(b) = 0 with
    the boundaries b at the midpoints of y.  The Jacobian is tridiagonal:
    J[i, i+1] = (b_i - y_i) pdf(b_i) / 2, J[i, i-1] = (y_i - b_{i-1})
    pdf(b_{i-1}) / 2 and J[i, i] = J[i, i+1] + J[i, i-1] - prob_i.  The
    design returns only once max |m1/prob - y| < ``_LLOYD_TOL``, and raises
    ``ConvergenceError`` with that residual after ``_LLOYD_MAX_ITER`` steps.
    Designs are cached: the level search, the delta and the final codebook
    share one design.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if levels == 1:
        return ScalarQuantizer(levels=1, boundaries=np.empty(0),
                               points=np.zeros(1), distortion=1.0)
    points = _norm_ppf((2.0 * np.arange(levels) + 1.0) / (2.0 * levels))
    for _ in range(_LLOYD_MAX_ITER):
        boundaries = 0.5 * (points[:-1] + points[1:])
        prob, m1, _ = _cell_stats(boundaries)
        resid = float(np.max(np.abs(m1 / prob - points)))
        if resid < _LLOYD_TOL:
            return ScalarQuantizer(levels=int(levels), boundaries=boundaries,
                                   points=points,
                                   distortion=_distortion(boundaries, points))
        pdf = _norm_pdf(boundaries)
        upper = 0.5 * (boundaries - points[:-1]) * pdf
        lower = 0.5 * (points[1:] - boundaries) * pdf
        diag = -prob
        diag[:-1] += upper
        diag[1:] += lower
        points = points - _solve_tridiagonal(lower, diag, upper,
                                             m1 - points * prob)
    raise ConvergenceError(
        f"L={levels} Lloyd-Max design did not reach tol={_LLOYD_TOL} in "
        f"{_LLOYD_MAX_ITER} Newton steps (residual {resid:.3g})",
        residual=resid,
    )


def quantize(q, x):
    """Cell index and reproduction point for x; boundary ties go up."""
    idx = np.searchsorted(q.boundaries, x, side="right")
    rep = q.points[idx]
    if np.ndim(x) == 0:
        return int(idx), float(rep)
    return idx, rep


def scalar_delta(levels):
    """Rate penalty in bits of the Lloyd-Max codebook against the Gaussian
    rate-distortion function at the same distortion: log2(L) - 0.5 log2(1/D)."""
    if levels < 2:
        raise ValueError("delta is defined for two or more levels")
    d = lloyd_max(levels).distortion
    return math.log2(levels) - 0.5 * math.log2(1.0 / d)


def min_levels_for_distortion(target):
    """Smallest codebook size up to ``_MAX_LEVELS`` whose designed distortion
    is <= target.

    The designed distortion falls strictly with L, so L is found by doubling
    to a bracket (lo, hi] with D(lo) > target >= D(hi), then bisection: about
    2 log2(L) designs instead of L.
    """
    if target <= 0:
        raise InfeasibleConfigError("no finite codebook reaches distortion <= 0")
    lo, hi = 0, 1
    while lloyd_max(hi).distortion > target:
        if hi == _MAX_LEVELS:
            raise InfeasibleConfigError(
                f"no codebook up to {_MAX_LEVELS} levels reaches {target}")
        lo, hi = hi, min(2 * hi, _MAX_LEVELS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lloyd_max(mid).distortion <= target:
            hi = mid
        else:
            lo = mid
    return hi


def p2p_distortion_budget(model, d_net, k_intervals):
    """Per-sample coding budget D_K = d_net - (1 - rho^2(1/K)).

    What is left of the field budget once the worst-case estimation error
    across a sub-interval of width 1/K is paid.
    """
    slack = d_net - (1.0 - model(1.0 / k_intervals) ** 2)
    if slack <= 0:
        raise InfeasibleConfigError(
            f"K={k_intervals}: interval width 1/K leaves no sample budget "
            f"under d_net={d_net}"
        )
    if slack > 1.0:
        raise InfeasibleConfigError(f"K={k_intervals}: budget {slack:.6g} exceeds 1")
    return float(slack)


def p2p_rate_for_K(model, d_net, k_intervals):
    """Sum rate (nats per time step, all sensors) of the TDMA scheme at K.

    Each active sensor codes at (1/2) ln(1/D_K) nats per active step and is
    active a K/N fraction of the time, so the sum over sensors is
    -(K/2) ln(D_K) independent of N.
    """
    budget = p2p_distortion_budget(model, d_net, k_intervals)
    return float(-(k_intervals / 2.0) * math.log(budget))


def p2p_min_feasible_k(model, d_net):
    """Smallest K <= _K_LIMIT whose sub-interval width leaves a positive
    sample budget."""
    for k in range(1, _K_LIMIT + 1):
        if d_net - (1.0 - model(1.0 / k) ** 2) > 0:
            return k
    raise InfeasibleConfigError(f"no feasible K up to {_K_LIMIT} for d_net={d_net}")


def optimize_K(model, d_net, k_max=None, n_sensors=None):
    """Minimize the p2p sum rate over feasible K in one array pass.

    The objective grows roughly linearly in K once the budget saturates, so
    the default window [K_min_feasible, 10 K_min_feasible] brackets the
    minimizer without assuming unimodality.  The budgets D_K and rates
    -(K/2) ln D_K of every K in the window are computed at once, and the
    first minimum breaks ties toward smaller K.  With ``n_sensors`` the
    window keeps only the divisors of N up to N, the counts a TDMA schedule
    over N sensors can use.  The rate returned is ``p2p_rate_for_K``'s at
    K*, so it does not depend on the array pass's rounding.
    """
    if not 0 < d_net < 1:
        raise ValueError("d_net must lie in (0, 1)")
    k_min = p2p_min_feasible_k(model, d_net)
    if k_max is None:
        k_max = n_sensors or 10 * k_min
    if k_max < k_min:
        raise InfeasibleConfigError(
            f"no feasible K <= {k_max}: need at least K = {k_min}"
        )
    ks = np.arange(k_min, k_max + 1)
    if n_sensors:
        ks = ks[n_sensors % ks == 0]
    budget = d_net - (1.0 - model(1.0 / ks) ** 2)
    feasible = (budget > 0.0) & (budget <= 1.0)
    if not feasible.any():  # only the divisor filter can drop the feasible k_min
        raise InfeasibleConfigError(
            f"no feasible sub-interval count in [{k_min}, {k_max}] divides "
            f"N={n_sensors} for d_net={d_net}"
        )
    ks = ks[feasible]
    best_k = int(ks[np.argmin(-(ks / 2.0) * np.log(budget[feasible]))])
    return best_k, p2p_rate_for_K(model, d_net, best_k)


@dataclass(frozen=True)
class TdmaSchedule:
    """Round-robin activation: one active sensor per sub-interval per step.

    Sensors and times are 1-based.  Sensor (N/K) l + j (the j-th sensor of
    sub-interval l) is active at times {j, j + N/K, ..., j + (m'-1) N/K}.
    """

    N: int
    K: int
    m_prime: int

    @property
    def n_steps(self):
        return self.m_prime * self.N // self.K


def tdma_schedule(n_sensors, k_intervals, m_prime):
    if k_intervals < 1 or n_sensors % k_intervals:
        raise InfeasibleConfigError(
            f"K={k_intervals} must divide the sensor count N={n_sensors}"
        )
    if m_prime < 1:
        raise ValueError("need at least one frame")
    return TdmaSchedule(N=int(n_sensors), K=int(k_intervals), m_prime=int(m_prime))
