"""Rate and distortion functionals for the three coding schemes.

Covers the sensor-sample distortion targets implied by a field target, the
largest admissible test-channel noise (p_max), the distributed sum rate, the
centralized reverse-water-filling reference, and the constant bound on the
rate loss of distributed versus centralized coding.
All rates are in nats per snapshot; other units and every output format are
the CLI's.
"""

from collections import namedtuple

import numpy as np

from .correlation import _bisect, _interp_r2, _smallest_count
from .errors import InfeasibleConfigError
from .estimation import avg_mmse_from_eigvals
from .field import CLAMP_FLOOR, DENSE_BUDGET_BYTES, _spectrum_cut, spectrum

_PMAX_REL_TOL = 1e-6
_N_LIMIT = 10 ** 7


def jmse_upper_bound(model, n_sensors, jprime):
    """Upper bound on the integrated field MSE given sensor-sample MSE jprime.

    Cauchy-Schwarz worst case over the correlation between interpolation
    error and sensor reconstruction error:
        (1 - r2) + j' + 2 sqrt(r2 (1 - r2) j'),   r2 = rho^2(1/(2N)).
    """
    r2 = model(1.0 / (2 * n_sensors)) ** 2
    return (1.0 - r2) + jprime + 2.0 * np.sqrt(r2 * (1.0 - r2) * jprime)


def jmse_lower_bound(model, n_sensors, jprime):
    """Matching lower bound: r2 j' - 2 sqrt(r2 (1 - r2) j')."""
    r2 = model(1.0 / (2 * n_sensors)) ** 2
    return r2 * jprime - 2.0 * np.sqrt(r2 * (1.0 - r2) * jprime)


def target_distortion_dsc(d_net, n_sensors, model):
    """Sensor-sample distortion D'(N) that guarantees field distortion d_net.

    Root of the upper bound at equality, solved in closed form (quadratic in
    sqrt(J')).  Needs 1/(2N) inside the monotone radius with interpolation
    error 1 - rho_+^2(1/(2N)) < d_net; approaches d_net from below.  The
    refusal names the smallest N that passes, and the spectrum's size limit
    when that N lies past it.
    """
    r2 = _interp_r2(model, 1.0 / (2 * n_sensors))
    a = 1.0 - r2
    if a >= d_net:
        n_min, cut = smallest_feasible_n(model, d_net), _spectrum_cut(model)
        over = "" if n_min <= cut else (
            f", but the {model.kind} spectrum fits the dense budget of "
            f"{DENSE_BUDGET_BYTES >> 20} MiB only up to N = {cut}")
        raise InfeasibleConfigError(
            f"N={n_sensors} cannot reach field distortion {d_net}: interpolation "
            f"error alone is {a:.6g}; smallest feasible N is {n_min}{over}"
        )
    # a < d_net gives d_net - a^2 >= a (1 - a) = r2 a, so the root is >= 0
    root = np.sqrt(d_net - a * a) - np.sqrt(r2 * a)
    return float(root * root)


def reverse_distortion_bound(d_net, n_sensors, model):
    """Sensor-sample distortion D''(N) implied by field distortion d_net.

    Any scheme meeting the field target must keep the sensor-sample MSE at or
    below this; decreases toward d_net as N grows.  Valid once 1/(2N) is
    inside the monotone radius and rho_+^2(1/(2N)) >= 1/2.
    """
    r2 = _interp_r2(model, 1.0 / (2 * n_sensors))
    if r2 < 0.5:
        raise InfeasibleConfigError(
            f"rho^2(1/(2N)) = {r2:.6g} < 1/2: bound preconditions fail at N={n_sensors}"
        )
    a = 1.0 - r2
    return float((2 * a + 2 * np.sqrt(a * (a + d_net)) + d_net) / r2)


def smallest_feasible_n(model, d_net):
    """Smallest N <= _N_LIMIT that ``target_distortion_dsc`` accepts (lag 1/(2N))."""
    return _smallest_count(model, d_net, 2, _N_LIMIT, "N")


def find_pmax(cov, target_mse):
    """Largest test-channel noise variance whose MMSE stays within target_mse.

    The average MMSE is increasing in p, so bracket by doubling from p=1 and
    bisect; the returned p satisfies avg_mse(p) <= target_mse and
    avg_mse(p (1 + _PMAX_REL_TOL)) > target_mse.
    """
    if target_mse >= 1.0:
        raise InfeasibleConfigError(
            "target at or above the field variance: p_max is unbounded"
        )
    if target_mse <= CLAMP_FLOOR:
        raise InfeasibleConfigError(
            f"target {target_mse} at or below the clamp floor {CLAMP_FLOOR}"
        )
    lam = cov.eigvals
    lo, hi = 0.0, 1.0
    while avg_mmse_from_eigvals(lam, hi) <= target_mse:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:  # pragma: no cover - unreachable for target < 1
            raise InfeasibleConfigError("bracketing diverged")
    while hi - lo > _PMAX_REL_TOL * max(lo, np.finfo(float).tiny):
        mid = 0.5 * (lo + hi)
        if avg_mmse_from_eigvals(lam, mid) <= target_mse:
            lo = mid
        else:
            hi = mid
    return lo


def dsc_operating_point(model, d_net, n):
    """The distributed scheme's chain at N sensors: (d_prime, spectrum, p_max).

    D'(N) from the field target, the clamped covariance spectrum (no
    eigenvectors, see ``field.spectrum``), and the largest test-channel noise
    whose average MMSE meets D'(N).
    """
    d_prime = target_distortion_dsc(d_net, n, model)
    spec = spectrum(model, n)
    return d_prime, spec, find_pmax(spec, d_prime)


def dsc_sum_rate(cov, p):
    """Sum rate of the distributed scheme at test-channel noise p.

    Mutual information between the sensor vector and its noisy version:
    (1/2) sum_i ln(1 + lambda_i / p) nats per snapshot.
    """
    if p <= 0:
        raise ValueError("noise variance must be positive")
    return float(0.5 * np.sum(np.log1p(cov.eigvals / p)))


class WaterfillSolution(namedtuple("WaterfillSolution",
                                   "theta_level per_mode_rate total_rate_nats")):
    """Reverse water-filling allocation for a Gaussian vector source: the
    water level, the rate of each mode and their total."""

    __slots__ = ()


def centralized_rate(cov, avg_distortion):
    """Smallest coding rate reaching the average distortion, by water-filling.

    Modes above the water level are coded down to it, modes below are sent as
    zero; the level is the exact piecewise-linear solution of
    sum_i min(lambda_i, level) = N * D, so the allocation meets D exactly
    unless D is at or above the mean eigenvalue, where the rate is zero.
    """
    if avg_distortion <= 0:
        raise ValueError("distortion budget must be positive")
    lam = cov.eigvals
    n = lam.size
    target = n * avg_distortion
    if target >= lam.sum():
        level = max(float(lam[0]), avg_distortion)
        return WaterfillSolution(theta_level=level, per_mode_rate=np.zeros(n),
                                 total_rate_nats=0.0)
    asc = np.sort(lam)
    prefix = np.concatenate([[0.0], np.cumsum(asc)])
    # cand[k] is the level if exactly the k smallest modes lie below it; the
    # solution is the first cand[k] inside [asc[k-1], asc[k]]
    cand = (target - prefix[:-1]) / (n - np.arange(n))
    below = np.concatenate([[0.0], asc[:-1]])
    holds = (below <= cand) & (cand <= asc)
    if not holds.any():  # pragma: no cover - the scan is exhaustive
        raise RuntimeError("water level bracketing failed")
    level = cand[np.argmax(holds)]
    rates = np.where(lam > level, 0.5 * np.log(lam / level), 0.0)
    return WaterfillSolution(theta_level=float(level), per_mode_rate=rates,
                             total_rate_nats=float(rates.sum()))


def find_theta(model, target_mse):
    """Largest theta <= theta_mono with rho(theta) > 0 and
    1 - rho^2(theta)/(1 + theta) <= target_mse.

    The condition holds as theta -> 0 and, since rho is non-increasing on
    (0, theta_mono], fails for good once it fails there; so one ``_bisect``
    of (0, theta_mono] down to adjacent doubles finds the largest theta.
    """
    if not 0 < target_mse < 1:
        raise ValueError("target must lie in (0, 1)")

    def ok(t):
        r = model(t)
        return r > 0 and 1.0 - r * r / (1.0 + t) <= target_mse

    hi = model.theta_mono
    return hi if ok(hi) else _bisect(ok, 0.0, hi)


def rate_loss_bound(d_net, eps, theta):
    """Bound (d_net + eps)/(2 theta^2) on distributed-minus-centralized rate."""
    if eps <= 0 or theta <= 0:
        raise ValueError("eps and theta must be positive")
    return (d_net + eps) / (2.0 * theta * theta)


class RateReport(namedtuple("RateReport", "N d_prime d_double_prime p_max "
                            "dsc_sum_rate_nats centralized_rate_nats "
                            "rate_loss_bound_nats theta feasible")):
    """Per-N record of the distortion targets, p_max and the three rates;
    an infeasible N has ``feasible`` False and NaN targets, p_max and rates."""

    __slots__ = ()


def rate_curve(model, d_net, n_list):
    """Assemble one RateReport per requested sensor count.

    Infeasible N are flagged in place rather than dropped.  The rate-loss
    pipeline uses the slack eps = 0.05 * d_net; theta comes from the
    averaging-window condition at d_net - eps, and the test-channel for the
    loss bound uses p = theta^2 N.
    """
    if not len(n_list):
        raise ValueError("need at least one sensor count")
    eps = 0.05 * d_net
    theta = find_theta(model, d_net - eps)
    loss_bound = rate_loss_bound(d_net, eps, theta)
    reports = []
    for n in n_list:
        try:
            d_prime, spec, p_max = dsc_operating_point(model, d_net, n)
            d_dprime = reverse_distortion_bound(d_net, n, model)
            reports.append(RateReport(
                N=int(n), d_prime=d_prime, d_double_prime=d_dprime,
                p_max=p_max, dsc_sum_rate_nats=dsc_sum_rate(spec, p_max),
                centralized_rate_nats=centralized_rate(spec, d_dprime).total_rate_nats,
                rate_loss_bound_nats=loss_bound, theta=theta, feasible=True))
        except InfeasibleConfigError:
            reports.append(RateReport(
                N=int(n), d_prime=float("nan"),
                d_double_prime=float("nan"), p_max=float("nan"),
                dsc_sum_rate_nats=float("nan"), centralized_rate_nats=float("nan"),
                rate_loss_bound_nats=loss_bound, theta=theta, feasible=False))
    return reports

