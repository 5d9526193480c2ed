"""Scalar quantization and the point-to-point TDMA coding scheme.

Lloyd-Max codebooks for the unit Gaussian are designed with closed-form cell
moments (error-function integrals from the standard library's ``math.erfc``),
so the design is exact up to its tolerance with no Monte Carlo noise.  The
design solves the centroid condition, with boundaries at the midpoints of
the points, by Newton's method: the Jacobian is tridiagonal in closed form,
so each step costs O(L), and about a dozen steps reach the tolerance.  The
point-to-point scheme splits [0, 1] into K sub-intervals, activates one
sensor per sub-interval per time step in a round-robin frame, and codes each
active sample on its own.  The design and the K scan run on Python floats
with ``math`` and the C quantile behind ``statistics.NormalDist``; only
``quantize`` and a codebook's arrays import numpy.
"""

import math
from functools import cached_property, lru_cache

from .correlation import _freeze
from .errors import ConvergenceError, InfeasibleConfigError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_K_LIMIT = 100_000
# Lloyd-Max residual tolerance and Newton step limit; largest codebook size
_LLOYD_TOL = 1e-11
_LLOYD_MAX_ITER = 100
_MAX_LEVELS = 1 << 16


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _norm_cdf(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt 2), exactly 0 and 1 at -/+inf."""
    return 0.5 * math.erfc(-x / _SQRT_2)


try:  # the C call behind statistics.NormalDist().inv_cdf on CPython >= 3.10
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without it: NormalDist itself
    from statistics import NormalDist
    _norm_ppf = NormalDist().inv_cdf
else:
    def _norm_ppf(p):
        return _normal_dist_inv_cdf(p, 0.0, 1.0)


def _cell_stats(boundaries):
    """Probability, mean and second moment of N(0,1) on each cell, as lists.

    Cells above 0 take their probability as a difference of survival
    functions: a difference of CDFs there cancels to a few ulps of 1, which
    would floor the design residual near 1e-9 for L of several hundred.
    """
    edges = [-math.inf, *boundaries, math.inf]
    prob = [_norm_cdf(-lo) - _norm_cdf(-hi) if lo >= 0.0
            else _norm_cdf(hi) - _norm_cdf(lo) for lo, hi in zip(edges, edges[1:])]
    pdf = [_norm_pdf(e) for e in edges]
    # x * pdf(x) with the correct 0 limit at +-inf
    xpdf = [0.0, *(b * d for b, d in zip(boundaries, pdf[1:])), 0.0]
    m1 = [lo - hi for lo, hi in zip(pdf, pdf[1:])]
    m2 = [p - (hi - lo) for p, lo, hi in zip(prob, xpdf, xpdf[1:])]
    return prob, m1, m2


class ScalarQuantizer:
    """Lloyd-Max codebook for the unit Gaussian source, immutable.  Its
    ``boundaries`` and ``points`` are read-only float arrays of the values
    given, built on first read: reading only ``levels`` and ``distortion``
    loads no numpy."""

    def __init__(self, levels, boundaries, points, distortion):
        vars(self).update(levels=levels, distortion=distortion,
                          _values=(tuple(boundaries), tuple(points)))

    def __setattr__(self, name, value):
        raise AttributeError(f"ScalarQuantizer is immutable; cannot set {name!r}")

    boundaries = cached_property(lambda self: _freeze(self._values[0]))
    points = cached_property(lambda self: _freeze(self._values[1]))


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the system with sub-, main and super-diagonals ``lower``,
    ``diag`` and ``upper`` by the Thomas sweep, in O(n) time and memory."""
    den, x = list(diag), list(rhs)
    for i in range(1, len(x)):
        w = lower[i - 1] / den[i - 1]
        den[i] -= w * upper[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= den[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1]) / den[i]
    return x


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
        return ScalarQuantizer(levels=1, boundaries=(), points=(0.0,), distortion=1.0)
    points = [_norm_ppf((2.0 * i + 1.0) / (2.0 * levels)) for i in range(levels)]
    for _ in range(_LLOYD_MAX_ITER):
        boundaries = [0.5 * (a + b) for a, b in zip(points, points[1:])]
        prob, m1, m2 = _cell_stats(boundaries)
        resid = max(abs(c / p - y) for c, p, y in zip(m1, prob, points))
        if resid < _LLOYD_TOL:
            distortion = math.fsum(s - 2.0 * y * c + y * y * p
                                   for s, y, c, p in zip(m2, points, m1, prob))
            return ScalarQuantizer(levels=int(levels), boundaries=boundaries,
                                   points=points, distortion=distortion)
        pdf = [_norm_pdf(b) for b in boundaries]
        upper = [0.5 * (b - y) * d for b, y, d in zip(boundaries, points, pdf)]
        lower = [0.5 * (y - b) * d for b, y, d in zip(boundaries, points[1:], pdf)]
        diag = [-p + u + w for p, u, w in zip(prob, [*upper, 0.0], [0.0, *lower])]
        step = _solve_tridiagonal(lower, diag, upper,
                                  [c - y * p for c, y, p in zip(m1, points, prob)])
        points = [y - d for y, d in zip(points, step)]
    raise ConvergenceError(
        f"L={levels} Lloyd-Max design did not reach tol={_LLOYD_TOL} in "
        f"{_LLOYD_MAX_ITER} Newton steps (residual {resid:.3g})",
        residual=resid,
    )


def quantize(q, x):
    """Cell index and reproduction point for x; boundary ties go up."""
    import numpy as np
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


def _slack(model, d_net, k_intervals):
    # d_net - (1 - rho^2(1/K)), rho at a float lag: no numpy for a built-in kernel
    return d_net - (1.0 - model(1.0 / k_intervals) ** 2)


def p2p_distortion_budget(model, d_net, k_intervals):
    """Per-sample coding budget D_K = d_net - (1 - rho^2(1/K)).

    What is left of the field budget once the worst-case estimation error
    across a sub-interval of width 1/K is paid.
    """
    slack = _slack(model, d_net, k_intervals)
    if slack <= 0:
        raise InfeasibleConfigError(f"K={k_intervals}: interval width 1/K leaves "
                                    f"no sample budget under d_net={d_net}")
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
        if _slack(model, d_net, k) > 0:
            return k
    raise InfeasibleConfigError(f"no feasible K up to {_K_LIMIT} for d_net={d_net}")


def optimize_K(model, d_net, k_max=None, n_sensors=None):
    """Minimize the p2p sum rate over feasible K by a scalar scan.

    The objective grows roughly linearly in K once the budget saturates, so
    the default window [K_min_feasible, 10 K_min_feasible] brackets the
    minimizer without assuming unimodality.  Each K in the window with a
    budget D_K in (0, 1] is scored by -(K/2) ln D_K on Python floats, and
    the first minimum breaks ties toward smaller K.  With ``n_sensors`` the
    window keeps only the divisors of N up to N, the counts a TDMA schedule
    over N sensors can use.  The rate returned is ``p2p_rate_for_K``'s at K*.
    """
    if not 0 < d_net < 1:
        raise ValueError("d_net must lie in (0, 1)")
    k_min = p2p_min_feasible_k(model, d_net)
    if k_max is None:
        k_max = n_sensors or 10 * k_min
    if k_max < k_min:
        raise InfeasibleConfigError(f"no feasible K <= {k_max}: need at least "
                                    f"K = {k_min}")
    rates = {k: -(k / 2.0) * math.log(slack) for k in range(k_min, k_max + 1)
             if not (n_sensors and n_sensors % k)
             and 0.0 < (slack := _slack(model, d_net, k)) <= 1.0}
    if not rates:  # only the divisor filter can drop the feasible k_min
        raise InfeasibleConfigError(
            f"no feasible sub-interval count in [{k_min}, {k_max}] divides "
            f"N={n_sensors} for d_net={d_net}"
        )
    best_k = min(rates, key=rates.get)
    return best_k, p2p_rate_for_K(model, d_net, best_k)


def tdma_schedule(n_sensors, k_intervals, m_prime):
    """Time steps of m' frames of the round-robin activation: m' N / K.

    One sensor per sub-interval is active per step.  Sensors and times are
    1-based: sensor (N/K) l + j (the j-th sensor of sub-interval l) is active
    at times {j, j + N/K, ..., j + (m'-1) N/K}.
    """
    if k_intervals < 1 or n_sensors % k_intervals:
        raise InfeasibleConfigError(
            f"K={k_intervals} must divide the sensor count N={n_sensors}"
        )
    if m_prime < 1:
        raise ValueError("need at least one frame")
    return m_prime * n_sensors // k_intervals
