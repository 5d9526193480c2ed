"""Rate and distortion functionals for the three coding schemes, and the
covariance spectra they read.

Covers the sensor-sample distortion targets implied by a field target, the
largest admissible test-channel noise (p_max), the distributed sum rate, the
centralized reverse-water-filling reference, and the constant bound on the
rate loss of distributed versus centralized coding.
All rates are in nats per snapshot; other units and every output format are
the CLI's.

Rates read a spectrum only through ``Spectrum.avg_mmse``,
``Spectrum.mutual_information`` and the descending ``Spectrum.modes`` with
the trace.  exp-markov's sums are closed forms, and any listed spectrum's
(sinc's modes, a table's eigenvalues) one exact ``math.fsum``: this module
imports no numpy, which loads only for a table's eigenvalues.
"""

import math
import sys
from collections import namedtuple
from itertools import chain

from .correlation import (CUSTOM_TABLE, EXP_MARKOV, SINC, _bisect, _interp_r2,
                          _smallest_count)
from .errors import ConditioningError, InfeasibleConfigError

_PMAX_REL_TOL = 1e-6
_N_LIMIT = 10 ** 7

CLAMP_FLOOR = 1e-10


def _sensor_count(n_sensors):
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    return int(n_sensors)


def _check_psd(raw_max, raw_min):
    """Refuse a spectrum whose smallest raw eigenvalue is negative beyond
    rounding: rank-deficient PSD spectra come out slightly negative (sinc:
    -1e-12 against 1604 at N = 2048), anything further below is refused."""
    if raw_min < -1e-8 * max(raw_max, 1.0):
        raise ConditioningError(
            f"covariance is not positive semidefinite: smallest eigenvalue "
            f"{raw_min:.6g} against largest {raw_max:.6g}"
        )


class Spectrum(namedtuple("Spectrum", "n top n_clamped raw_min raw_max backend")):
    """Eigenvalues of the N-sensor covariance, clamped below at
    ``CLAMP_FLOOR``, read through the functionals the rates need.

    ``top`` holds the clamped eigenvalues the backend keeps, descending: all
    N for ``dense`` (a custom table: a read-only numpy array from LAPACK),
    those at or above the floor for ``slepian`` (the sinc Gram matrix of a
    16-node Gauss-Legendre factor; every other mode lies at the floor), none
    for ``kms`` (exp-markov, whose modes come from its secular equation one
    at a time and whose sums have closed forms).  ``n_clamped`` counts the
    modes the clamp raised and ``raw_min``/``raw_max`` are the unclamped
    extremes (for ``slepian``, of the min(N, 16) modes it computed).  p_max,
    the distributed sum rate and water-filling read nothing else, so they
    never need eigenvectors; every backend but ``kms`` sums its listed
    modes with ``_sum``.
    """

    __slots__ = ()

    def avg_mmse(self, p):
        """Mean of lambda p/(lambda + p) over the modes: the average MSE of
        the optimal estimate through the test channel at noise p."""
        if self.backend == "kms":
            return _kms_sums(self.n, p)[0] / self.n
        return self._sum(lambda lam: lam * p / (lam + p)) / self.n

    def mutual_information(self, p):
        """(1/2) sum ln(1 + lambda/p) over the modes, in nats."""
        if self.backend == "kms":
            return _kms_sums(self.n, p)[1]
        return 0.5 * self._sum(lambda lam: math.log1p(lam / p))

    def trace(self):
        """Sum of the clamped eigenvalues; exp-markov's is exactly N, the
        diagonal being rho(0) = 1, and none of its modes is clamped."""
        return float(self.n) if self.backend == "kms" else self._sum(float)

    def modes(self):
        """The clamped eigenvalues in descending order as (value, multiplicity)
        pairs, computed as they are read: ``kms`` solves one cell of its
        secular equation per mode, ``slepian`` ends with its floor modes as
        one pair of ties."""
        if self.backend == "kms":
            return ((_kms_mode(self.n, j), 1) for j in range(self.n))
        rest = self.n - len(self.top)
        return chain(((float(lam), 1) for lam in self.top),
                     [(CLAMP_FLOOR, rest)] if rest else [])

    def _sum(self, f):
        # fsum of f over the modes, the floor modes as one product
        return math.fsum([*map(f, self.top),
                          (self.n - len(self.top)) * f(CLAMP_FLOOR)])


def _kms_constants(n):
    """a = e^(-1/N), 1 - a and 1 - a^2 for the exp-markov covariance
    a^|i-j|, read by its spectrum here and by its precision in ``sim``; the
    last two from expm1, since the textbook forms cancel as a -> 1 (a trace
    off by 1e-7 at N = 65,536)."""
    return math.exp(-1.0 / n), -math.expm1(-1.0 / n), -math.expm1(-2.0 / n)


def _kms_mode(n, j):
    """Eigenvalue j (0-based, descending) of the exp-markov covariance.

    This is the Kac-Murdock-Szego matrix (1953): its eigenvalues are
    (1-a^2) / ((1-a)^2 + 4a sin^2(theta/2)) at the N roots theta in (0, pi)
    of sin(N theta) [(1-a)^2 - 2(1+a^2) sin^2(theta/2)]
    + (1-a^2) cos(N theta) sin(theta).  The equation is
    (1-a^2) (-1)^j sin(j pi / N) at j pi / N, positive just above 0 and of
    sign (-1)^N just below pi: each cell (j pi / N, (j+1) pi / N) holds one
    root, with the sign (-1)^j above its left end.  Cell j is bisected to
    adjacent doubles, never evaluated at an end (near pi the value there is
    rounding noise).
    """
    a, c1, c2 = _kms_constants(n)

    def left_sign(t):
        s2 = math.sin(0.5 * t) ** 2
        f = (math.sin(n * t) * (c1 * c1 - 2.0 * (1.0 + a * a) * s2)
             + c2 * math.cos(n * t) * math.sin(t))
        return (math.copysign(1.0, f) < 0) == (j % 2 == 1)

    step = math.pi / n
    theta = _bisect(left_sign, j * step, (j + 1) * step)
    return c2 / (c1 * c1 + 4.0 * a * math.sin(0.5 * theta) ** 2)


def _kms_sums(n, p):
    """(S1, S2) = (sum lambda p/(lambda + p), (1/2) sum ln(1 + lambda/p))
    over the exp-markov spectrum, in closed form.

    The inverse covariance is T/(1-a^2), T tridiagonal with diagonal
    1, 1+a^2, ..., 1+a^2, 1 and off-diagonal -a.  With x = (1-a^2)/p and
    P(x) = det(T + x I), S1 = (1-a^2) d/dx ln P(x) and
    S2 = (1/2) ln(P(x)/P(0)), P(0) = 1 - a^2.  The continuant is
    P = a^N [(z-a)^2 z^(N-1) - (a-1/z)^2 z^(1-N)] / (z - 1/z) with
    a (z + 1/z) = 1 + a^2 + x, z > 1.  In s = a z - 1, the positive root of
    s^2 + (1 - a^2 - x) s - x = 0, and r = 1 + s,
        ln(P(x)/P(0)) = (N-1) ln r + ln(1 + w) + ln(1 - Q),
        w = s [(s + 1-a^2)(1-a^2) + s r] / ((1-a^2) [(1-a^2) r + s (r + a^2)]),
        Q = (a^2 s / (r (s + 1-a^2)))^2 z^(2-2N),
    each term from log1p and every difference (s, r - a = s + 1 - a) formed
    without cancellation: the plain difference of logs loses 1e-7 relative
    at p = 1e9.  S1 is (1-a^2) ds/dx d/ds ln P, ds/dx = r^2/(r^2 - a^2).
    One sensor's covariance is [1].
    """
    if n == 1:
        return p / (1.0 + p), 0.5 * math.log1p(1.0 / p)
    a, c1, c2 = _kms_constants(n)
    x = c2 / p
    b = c2 - x
    root = math.sqrt((c1 * c1 + x) * ((1.0 + a) ** 2 + x))   # sqrt(b^2 + 4x)
    s = 2.0 * x / (b + root) if b > 0 else 0.5 * (root - b)
    r = 1.0 + s
    u = s + c2
    # Q = s^2 g, the second solution's share; z^(2-2N) = (r/a)^(2-2N)
    g = (a * a / (r * u)) ** 2 * math.exp(-2.0 * (n - 1) * (math.log1p(s) + 1 / n))
    q = s * s * g
    w = s * (u * c2 + s * r) / (c2 * (c2 * r + s * (r + a * a)))
    s2 = 0.5 * ((n - 1) * math.log1p(s) + math.log1p(w) + math.log1p(-q))
    rr_aa = (s + c1) * (r + a)                                 # r^2 - a^2
    dlog = ((n - 1) / r
            + (u * rr_aa + 2.0 * a * a * s * r) / (u * r * (r * u + a * a * s))
            - (2.0 * c2 * s * g / u - 2.0 * n * q / r) / (1.0 - q))
    return c2 * r * r / rr_aa * dlog, s2


# the 8 positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and
# their weights, correctly rounded (the rule is symmetric about 0)
_GL_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499)
_GL_WEIGHTS = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096)


def _jacobi_eigvals(a):
    """Eigenvalues of the symmetric matrix ``a``, a list of rows that is
    overwritten, by cyclic Jacobi sweeps until the off-diagonal mass is at
    most 1e-36 of the diagonal mass (about 6 sweeps for the sinc blocks).
    Each rotation zeroes a[p][q] and updates the two diagonal entries by
    -+ t a[p][q], with t = tan of the rotation angle (the smaller root)."""
    k = range(len(a))
    while (math.fsum(a[i][j] ** 2 for i in k for j in k if i != j)
           > 1e-36 * math.fsum(a[i][i] ** 2 for i in k)):
        for p in k:
            for q in range(p + 1, len(a)):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = 0.5 * (a[q][q] - a[p][p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for r in k:
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
    return [a[i][i] for i in k]


def _slepian_gram(n):
    """The cosine and sine blocks of the 16 x 16 Gram matrix B^T B of the
    N x 16 factor B of the sinc covariance, Sigma = B B^T.

    sinc((i-j)/N) is N times the prolate matrix with W = 1/(2N) (Slepian
    1978), and half the integral of cos(pi t (i-j)/N) over t in [-1, 1].
    The 16-point Gauss-Legendre rule is exact to rounding there for every
    lag |i-j|/N < 1: pairing the nodes +t and -t gives the columns
    sqrt(w) cos(pi t c/N) and sqrt(w) sin(pi t c/N) over the 8 positive
    nodes (the finite-N Nystrom rule of Bornemann 2010), here at the centred
    index c = i - (N-1)/2, which leaves B B^T unchanged.  Over the centred
    indices cos(gamma c) sums to the Dirichlet kernel
    D(gamma) = sin(N gamma/2)/sin(gamma/2), D(0) = N, and sin(gamma c) to 0,
    so B^T B splits into the cosine and sine blocks
    (1/2) sqrt(w_a w_b) [D(alpha_a - alpha_b) +- D(alpha_a + alpha_b)],
    alpha = pi t/N, each 8 x 8 (lists of rows).
    """
    def dirichlet(u):        # D(pi u / N)
        h = 0.5 * math.pi * u
        return n if u == 0 else math.sin(h) / math.sin(h / n)

    gl = list(zip(_GL_NODES, _GL_WEIGHTS))
    return [[[0.5 * math.sqrt(wa * wb) * (dirichlet(ta - tb) + sign * dirichlet(ta + tb))
              for tb, wb in gl] for ta, wa in gl] for sign in (1.0, -1.0)]


def spectrum(model, n_sensors):
    """Clamped eigenvalues of the N-sensor covariance, without eigenvectors.

    exp-markov takes the KMS closed forms (backend ``kms``): its sums in
    O(1) and only as many modes as a reader asks for.  sinc (``slepian``)
    takes the eigenvalues of the 16 x 16 Gram matrix of its Gauss-Legendre
    factor (``_jacobi_eigvals`` of the two ``_slepian_gram`` blocks), the
    nonzero eigenvalues of Sigma: the other N - 16 modes are zero to
    rounding and are clamped to the floor (7 or 8 lie above it at any N).
    Neither builds anything of size N.  A custom table takes ``eigvalsh`` of
    the two halves of ``field._reflection_split`` (``dense``).  Every
    backend keeps the positive-semidefinite refusal.
    """
    n = _sensor_count(n_sensors)
    if model.kind == EXP_MARKOV:
        raw_max, raw_min = _kms_mode(n, 0), _kms_mode(n, n - 1)
        # about 1/(2N): the floor is first reached past N = 5e9
        if raw_min < CLAMP_FLOOR:
            raise InfeasibleConfigError(
                f"the exp-markov spectrum of N = {n} sensors reaches below the "
                f"clamp floor {CLAMP_FLOOR} (smallest eigenvalue {raw_min:.6g})")
        return Spectrum(n, (), 0, raw_min, raw_max, "kms")
    if model.kind == SINC:
        raw = sorted(chain(*map(_jacobi_eigvals, _slepian_gram(n))), reverse=True)[:n]
        _check_psd(raw[0], raw[-1])
        top = tuple(lam for lam in raw if lam >= CLAMP_FLOOR)
        return Spectrum(n, top, n - len(top), raw[-1], raw[0], "slepian")
    from .field import _dense_spectrum
    return _dense_spectrum(model, n)


def jmse_upper_bound(model, n_sensors, jprime):
    """Upper bound on the integrated field MSE given sensor-sample MSE jprime.

    Cauchy-Schwarz worst case over the correlation between interpolation
    error and sensor reconstruction error:
        (1 - r2) + j' + 2 sqrt(r2 (1 - r2) j'),   r2 = rho_+^2(1/(2N)),
    charged by ``correlation._interp_r2``: a lag past the radius is refused.
    """
    r2 = _interp_r2(model, 1.0 / (2 * n_sensors))
    return (1.0 - r2) + jprime + 2.0 * math.sqrt(r2 * (1.0 - r2) * jprime)


def jmse_lower_bound(model, n_sensors, jprime):
    """Matching lower bound r2 j' - 2 sqrt(r2 (1 - r2) j'), with the upper
    bound's r2 and refusal."""
    r2 = _interp_r2(model, 1.0 / (2 * n_sensors))
    return r2 * jprime - 2.0 * math.sqrt(r2 * (1.0 - r2) * jprime)


def target_distortion_dsc(d_net, n_sensors, model):
    """Sensor-sample distortion D'(N) that guarantees field distortion d_net.

    Root of the upper bound at equality, solved in closed form (quadratic in
    sqrt(J')).  Needs 1/(2N) inside the monotone radius with interpolation
    error 1 - rho_+^2(1/(2N)) < d_net; approaches d_net from below.  The
    refusal names the smallest N that passes, and for a table the size limit
    of its dense spectrum when that N lies past it.
    """
    r2 = _interp_r2(model, 1.0 / (2 * n_sensors))
    a = 1.0 - r2
    if a >= d_net:
        n_min, over = smallest_feasible_n(model, d_net), ""
        if model.kind == CUSTOM_TABLE:
            from .field import _TABLE_N_MAX, DENSE_BUDGET_BYTES
            if n_min > _TABLE_N_MAX:
                over = (f", but the {model.kind} spectrum fits the dense budget of "
                        f"{DENSE_BUDGET_BYTES >> 20} MiB only up to N = {_TABLE_N_MAX}")
        raise InfeasibleConfigError(
            f"N={n_sensors} cannot reach field distortion {d_net}: interpolation "
            f"error alone is {a:.6g}; smallest feasible N is {n_min}{over}"
        )
    # a < d_net gives d_net - a^2 >= a (1 - a) = r2 a, so the root is >= 0
    root = math.sqrt(d_net - a * a) - math.sqrt(r2 * a)
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
    return float((2 * a + 2 * math.sqrt(a * (a + d_net)) + d_net) / r2)


def smallest_feasible_n(model, d_net):
    """Smallest N <= _N_LIMIT that ``target_distortion_dsc`` accepts (lag 1/(2N))."""
    return _smallest_count(model, d_net, 2, _N_LIMIT, "N")


def find_pmax(spec, target_mse):
    """Largest test-channel noise variance whose average MMSE over the
    ``Spectrum`` spec stays within target_mse.

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
    avg_mmse = spec.avg_mmse
    lo, hi = 0.0, 1.0
    while avg_mmse(hi) <= target_mse:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:  # pragma: no cover - unreachable for target < 1
            raise InfeasibleConfigError("bracketing diverged")
    while hi - lo > _PMAX_REL_TOL * max(lo, sys.float_info.min):
        mid = 0.5 * (lo + hi)
        if avg_mmse(mid) <= target_mse:
            lo = mid
        else:
            hi = mid
    return lo


def dsc_operating_point(model, d_net, n):
    """The distributed scheme's chain at N sensors: (d_prime, spectrum, p_max).

    D'(N) from the field target, the clamped covariance spectrum (no
    eigenvectors, see ``spectrum``), and the largest test-channel noise
    whose average MMSE meets D'(N).
    """
    d_prime = target_distortion_dsc(d_net, n, model)
    spec = spectrum(model, n)
    return d_prime, spec, find_pmax(spec, d_prime)


def dsc_sum_rate(spec, p):
    """Sum rate of the distributed scheme at test-channel noise p, over the
    ``Spectrum`` spec.

    Mutual information between the sensor vector and its noisy version:
    (1/2) sum_i ln(1 + lambda_i / p) nats per snapshot.
    """
    if p <= 0:
        raise ValueError("noise variance must be positive")
    return spec.mutual_information(p)


class WaterfillSolution(namedtuple("WaterfillSolution",
                                   "theta_level per_mode_rate total_rate_nats")):
    """Reverse water-filling allocation for a Gaussian vector source: the
    water level, the rates of the active modes (those above the level, the
    leading ``len(per_mode_rate)`` in descending order) and their total."""

    __slots__ = ()


def centralized_rate(spec, avg_distortion):
    """Smallest coding rate reaching the average distortion, by water-filling
    the ``Spectrum`` spec.

    Modes above the water level are coded down to it, modes below are sent as
    zero; the level is the exact piecewise-linear solution of
    sum_i min(lambda_i, level) = N * D, so the allocation meets D exactly
    unless D is at or above the mean eigenvalue less 1e-12, where the rate is
    zero.  With the k largest modes above it the level is
    (N D - trace + their sum) / k, which rises with k toward the next mode
    while that mode lies above it: the modes are read in descending order,
    and reading stops at the first one at or below the level.  A budget at
    or below ``CLAMP_FLOOR`` is refused, as ``find_pmax`` refuses it: above
    it the level stays above the floor, so no mode that exists only by
    clamping is ever coded.
    """
    if avg_distortion <= 0:
        raise ValueError("distortion budget must be positive")
    if avg_distortion <= CLAMP_FLOOR:
        raise InfeasibleConfigError(
            f"target {avg_distortion} at or below the clamp floor {CLAMP_FLOOR}")
    target, trace = spec.n * avg_distortion, spec.trace()
    modes = spec.modes()
    # within 1e-12 N of the trace, the dense backend's own rounding (eigvalsh
    # puts exp-markov's trace of exactly N a few ulps off it), nothing is coded
    if target >= trace - 1e-12 * spec.n:
        level = max(next(modes)[0], avg_distortion)
        return WaterfillSolution(theta_level=level, per_mode_rate=(),
                                 total_rate_nats=0.0)
    active, k, top, level = [], 0, 0.0, -math.inf
    for lam, count in modes:
        if lam <= level:
            break
        active.append((lam, count))
        k, top = k + count, top + lam * count
        level = (target - trace + top) / k
    level = math.fsum([target, -trace, *(lam * count for lam, count in active)]) / k
    rates = [(0.5 * math.log(lam / level), count) for lam, count in active]
    return WaterfillSolution(
        theta_level=level,
        per_mode_rate=tuple(chain.from_iterable((r,) * count for r, count in rates)),
        total_rate_nats=math.fsum(r * count for r, count in rates))


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

