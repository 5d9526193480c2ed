"""Independent oracle implementations used to pin expected values.

Everything here deliberately avoids the library's computational paths:
the N x N covariance formed entry by entry instead of split by reflection,
normal-equation solves instead of eigen-filters, brentq roots instead of
closed forms, water-level bisection instead of the prefix solve, the
centroid/midpoint fixed point instead of Newton's method, slogdet instead of eigenvalue sums,
scipy's DPSS windows against the dense sinc matrix and Slepian's
tridiagonal eigenvectors, and the N x 16 Gauss-Legendre factor itself,
instead of the closed-form 16 x 16 Gram matrix and its Jacobi sweeps, every
KMS root at once instead of one cell per mode read, a scalar scan over
every N and K instead of one bisection, a grid walk and a bisection of
its first failing cell instead of find_theta's one bisection, a linear scan
over every codebook size instead of doubling and bisection, one scalar p2p
rate per sub-interval count instead of optimize_K's one array pass, a direct node-by-node quadrature of the dsc
field error's closed-form mean instead of the simulator's cell weights, and
a dense inverse, Cholesky factor and triangular solve for the exp-markov
dsc errors instead of the bidiagonal recurrence along the sensors.

The end of the file also holds helpers that only tests read, kept out of the
library: the snapshot stream of an integer seed, the nearest-sample index
and interpolation rule, the window-averaging and Prop. 1 bounds, codebook
and report JSON, the per-sensor p2p rate, the TDMA activation maps, the
interpolation-only integrated MSE and the test channel's exact per-sensor
error from a covariance pack.
"""

import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from densefield.correlation import CorrelationModel
from densefield.errors import InfeasibleConfigError
from densefield.field import _generator
from densefield.quantizer import ScalarQuantizer, lloyd_max, p2p_rate_for_K
from densefield.rates import _GL_NODES, _GL_WEIGHTS, CLAMP_FLOOR
from densefield.cli import _report_body


def dense_covariance(model, n):
    """The N x N covariance rho(|i - j| / N) of N regular sensors, formed
    entry by entry (the library decomposes it without forming it)."""
    lags = np.arange(n)
    return model(np.abs(lags[:, None] - lags[None, :]) / n)


def brute_force_mmse(sigma, p):
    """Per-sample MMSE by solving the normal equations column by column."""
    n = sigma.shape[0]
    obs_cov = sigma + p * np.eye(n)
    per = np.empty(n)
    for k in range(n):
        coef = np.linalg.solve(obs_cov, sigma[:, k])
        per[k] = sigma[k, k] - sigma[:, k] @ coef
    return per


def ubf_value(jprime, r2):
    return (1 - r2) + jprime + 2 * np.sqrt(r2 * (1 - r2) * jprime)


def lbf_value(jprime, r2):
    return r2 * jprime - 2 * np.sqrt(r2 * (1 - r2) * jprime)


def dprime_root(model, n, d_net):
    """Sensor target as the equality root of the upper field-MSE bound."""
    r2 = model(1.0 / (2 * n)) ** 2
    return brentq(lambda j: ubf_value(j, r2) - d_net, 0.0, d_net,
                  xtol=1e-16, rtol=8.9e-16)


def ddprime_root(model, n, d_net):
    """Reverse sensor bound as the equality root of the lower field-MSE bound."""
    r2 = model(1.0 / (2 * n)) ** 2
    hi = d_net
    while lbf_value(hi, r2) < d_net:
        hi *= 2
    return brentq(lambda j: lbf_value(j, r2) - d_net, d_net, hi,
                  xtol=1e-16, rtol=8.9e-16)


def waterfill_bisect(eigvals, avg_distortion, iters=200):
    """Water level by bisection on sum(min(lam, level)) = N * D."""
    lam = np.asarray(eigvals, dtype=float)
    target = lam.size * avg_distortion
    lo, hi = 0.0, float(lam.max())
    if target >= lam.sum():
        return hi, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.minimum(lam, mid).sum() < target:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    rate = float(np.sum(np.where(lam > level, 0.5 * np.log(lam / level), 0.0)))
    return level, rate


def logdet_rate(sigma, p):
    """Mutual information by slogdet of I + Sigma/p."""
    _, ld = np.linalg.slogdet(np.eye(sigma.shape[0]) + sigma / p)
    return 0.5 * ld


def theta_root(model, target):
    """Scalar root of 1 - rho(t)^2/(1+t) = target on (0, theta_mono]."""
    return brentq(lambda t: 1 - model(t) ** 2 / (1 + t) - target,
                  1e-12, model.theta_mono, xtol=1e-15, rtol=8.9e-16)


def lloyd_fixed_point(levels, tol=1e-11, max_iter=500_000):
    """Lloyd-Max codebook for N(0, 1) by the centroid/midpoint fixed point.

    Starts from the equal-probability quantile codebook and alternates the
    two conditions with error-function cell moments until the centroids move
    less than ``tol`` and the re-evaluated residual is below ``tol``.
    Returns (points, boundaries, distortion).
    """
    def cell_moments(b):
        edges = np.concatenate(([-np.inf], b, [np.inf]))
        finite = np.isfinite(edges)
        pdf = np.exp(-0.5 * edges * edges) / np.sqrt(2 * np.pi)
        xpdf = np.zeros_like(edges)
        xpdf[finite] = edges[finite] * pdf[finite]
        prob = np.diff(ndtr(edges))
        return prob, pdf[:-1] - pdf[1:], prob - np.diff(xpdf)

    pts = ndtri((2.0 * np.arange(levels) + 1.0) / (2.0 * levels))
    for _ in range(max_iter):
        b = 0.5 * (pts[:-1] + pts[1:])
        prob, m1, _ = cell_moments(b)
        new = m1 / prob
        delta = np.max(np.abs(new - pts))
        pts = new
        if delta < tol:
            b = 0.5 * (pts[:-1] + pts[1:])
            prob, m1, m2 = cell_moments(b)
            if np.max(np.abs(m1 / prob - pts)) < tol:
                distortion = float(np.sum(m2 - 2.0 * pts * m1 + pts ** 2 * prob))
                return pts, b, distortion
    raise RuntimeError(f"fixed point did not reach tol={tol} in {max_iter} steps")


def dsc_cross_term(model, positions, p, grid_g=8):
    """Analytic integral of E[E_S E_Q] for the distributed scheme.

    E_S is the conditional-mean residual against the nearest sample, E_Q the
    interpolated reconstruction error; their product has a closed second-moment
    form through the estimator matrix A = Sigma (Sigma + pI)^-1.
    """
    n = positions.size
    sigma = dense_covariance(model, n)
    a_mat = sigma @ np.linalg.inv(sigma + p * np.eye(n))
    nodes = (np.arange(n * grid_g) + 0.5) / (n * grid_g)
    idx = np.minimum((nodes * n).astype(int), n - 1)
    total = 0.0
    for s, k in zip(nodes, idx):
        rho_s = model(s - positions[k])
        c_s = model(np.abs(s - positions))
        cross = rho_s * (rho_s - a_mat[k] @ c_s - rho_s * (1.0 - (a_mat @ sigma)[k, k]))
        total += cross
    return total / nodes.size


def dsc_expected_jmse(model, n_sensors, per_sample_mse, grid_g=8):
    """Closed-form mean of simulate_dsc's per-snapshot field error.

    Direct midpoint quadrature of E[J] = a0 + cell_w . diag(Sigma_e): a node s
    reconstructed from sample k adds 1 - rho^2(s - s_k) + rho^2(s - s_k) e_k,
    where e_k = ``per_sample_mse[k]`` is the sample's exact MMSE.
    """
    nodes = (np.arange(n_sensors * grid_g) + 0.5) / (n_sensors * grid_g)
    idx = np.minimum((nodes * n_sensors).astype(int), n_sensors - 1)
    r2 = model(nodes - (2 * idx + 1) / (2 * n_sensors)) ** 2
    return float(np.mean(1.0 - r2 + r2 * np.asarray(per_sample_mse)[idx]))


def chunked_gaussians(n, m, seed, chunk=None):
    """The N x m Gaussians simulate_dsc's recurrence draws for ``seed``:
    coordinate-major from the field child, or with ``chunk`` the snapshots
    [c chunk, (c+1) chunk) from their own stream instead, chunk 0 from the
    field child and chunk c >= 1 from the field child's (c-1)-th spawned
    child."""
    field_ss, _ = np.random.SeedSequence(seed).spawn(2)
    chunk = chunk or m
    starts = range(0, m, chunk)
    streams = [field_ss] + field_ss.spawn(len(starts) - 1)
    return np.hstack([_generator(ss).standard_normal((n, min(chunk, m - lo)))
                      for ss, lo in zip(streams, starts)])


def markov_precision_factor(n, p):
    """The upper-triangular U of Q = inv(Sigma) + I/p = U U^T, densely.

    Q comes from the dense inverse of a^|i-j|, a = e^(-1/N) (p = inf gives
    the field's own precision); U is the Cholesky factor of Q with rows and
    columns reversed, reversed back (unique with a positive diagonal, so it
    is the library's bidiagonal U).
    """
    lags = np.arange(n)
    sigma = np.exp(-np.abs(lags[:, None] - lags[None, :]) / n)
    q = np.linalg.inv(sigma) + np.eye(n) / p
    return np.linalg.cholesky(q[::-1, ::-1])[::-1, ::-1]


def markov_dsc_errors(n, p, m, seed, chunk=None):
    """simulate_dsc's exp-markov sensor errors as an m x N array, densely:
    U^T e = g solved for e, U the ``markov_precision_factor`` and g the
    ``chunked_gaussians`` of ``seed``."""
    from scipy.linalg import solve_triangular

    g = chunked_gaussians(n, m, seed, chunk)
    return solve_triangular(markov_precision_factor(n, p).T, g, lower=True).T


def markov_field_draws(n, m, rng):
    """m rows of the exp-markov field at N regular sensors, densely: U^T x = g
    solved for x, U the ``markov_precision_factor`` at p = inf and g the
    (m, N) Gaussians of the Generator ``rng``, drawn row-major."""
    from scipy.linalg import solve_triangular

    g = rng.standard_normal((m, n))
    return solve_triangular(markov_precision_factor(n, np.inf).T, g.T,
                            lower=True).T


def integrated_mse(truth, recon_fn, grid_g, *, model, positions, grid_truth=None):
    """Average integrated squared reconstruction error over [0, 1].

    ``truth`` holds the m snapshots at the sensor ``positions`` as rows, and
    ``recon_fn(i, nodes)`` returns the reconstruction for snapshot i at the
    quadrature nodes.  By default the estimate is hybrid: the field between
    nodes is represented by its conditional law given the nearest sample, so
    the conditional variance is added analytically and only the nearest-sample
    mismatch is evaluated from data.  Passing ``grid_truth`` (an m x (N grid_g)
    matrix of field values at the nodes) switches to direct quadrature against
    those values.
    """
    n = positions.size
    nodes = (np.arange(n * grid_g) + 0.5) / (n * grid_g)
    idx = np.minimum((nodes * n).astype(int), n - 1)
    rho_n = model(nodes - positions[idx])
    r2 = rho_n ** 2
    js = np.empty(truth.shape[0])
    for i in range(truth.shape[0]):
        rec = np.asarray(recon_fn(i, nodes), dtype=float)
        if grid_truth is None:
            vals = (1.0 - r2) + (rho_n * truth[i, idx] - rec) ** 2
        else:
            vals = (np.asarray(grid_truth[i], dtype=float) - rec) ** 2
        js[i] = vals.mean()
    return float(js.mean())


def dpss_sinc_eigpairs(n, k):
    """Leading k eigenvalues of the N-sensor sinc covariance from DPSS windows.

    The covariance sinc((i-j)/N) is N times the prolate matrix with
    NW = 1/2, so scipy's discrete prolate spheroidal sequences are its
    eigenvectors.  Returns each window's Rayleigh quotient against the dense
    matrix and the residual norm |Sigma v - lambda v| that shows it is one.
    """
    from scipy.signal.windows import dpss

    lags = np.arange(n)
    sigma = np.sinc((lags[:, None] - lags[None, :]) / n)
    win = np.atleast_2d(dpss(n, 0.5, Kmax=k, norm=2))
    prod = win @ sigma
    lam = np.einsum("ij,ij->i", win, prod) / np.einsum("ij,ij->i", win, win)
    return lam, np.linalg.norm(prod - lam[:, None] * win, axis=1)


def slepian_tridiagonal_eigvals(n):
    """Leading sinc eigenvalues from Slepian's tridiagonal eigenvectors.

    sinc((i-j)/N) is N times the prolate matrix with W = 1/(2N), which
    commutes with Slepian's tridiagonal matrix (1978); their eigenvectors
    coincide, in the same order.  The top k come from scipy's
    ``eigh_tridiagonal`` and each becomes an eigenvalue by its Rayleigh
    quotient through an FFT Toeplitz product.  k doubles from 24 until the
    last quotient lies a decade below the clamp floor.
    """
    from scipy.linalg import eigh_tridiagonal

    i = np.arange(n)
    diag = ((n - 1) / 2.0 - i) ** 2 * np.cos(np.pi / n)
    off = i[1:] * (n - i[1:]) / 2.0
    row = np.sinc(i / n)
    row_hat = np.fft.rfft(np.concatenate([row, [0.0], row[:0:-1]]))
    k = min(24, n)
    while True:
        _, vecs = eigh_tridiagonal(diag, off, select="i",
                                   select_range=(n - k, n - 1))
        prod = np.fft.irfft(np.fft.rfft(vecs, 2 * n, axis=0) * row_hat[:, None],
                            2 * n, axis=0)[:n]
        quotients = np.sort(np.einsum("ij,ij->j", vecs, prod))[::-1]
        if k == n or quotients[-1] < 0.1 * CLAMP_FLOOR:
            return quotients
        k = min(2 * k, n)


def kms_eigvals(n):
    """Descending eigenvalues of the exp-markov covariance a^|i-j|, a = e^(-1/N),
    from the roots of the secular equation of ``rates._kms_mode``, all N
    cells bisected at once as arrays to adjacent doubles."""
    a = np.exp(-1.0 / n)
    c1 = -np.expm1(-1.0 / n)      # 1 - a
    c2 = -np.expm1(-2.0 / n)      # 1 - a^2

    def negative(t):
        s2 = np.sin(0.5 * t) ** 2
        f = (np.sin(n * t) * (c1 * c1 - 2.0 * (1.0 + a * a) * s2)
             + c2 * np.cos(n * t) * np.sin(t))
        return np.signbit(f)

    lo = np.arange(n) * (np.pi / n)
    hi = np.arange(1, n + 1) * (np.pi / n)
    neg_lo = np.arange(n) % 2 == 1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        left = negative(mid) == neg_lo
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    theta = 0.5 * (lo + hi)
    return c2 / (c1 * c1 + 4.0 * a * np.sin(0.5 * theta) ** 2)


def sinc_factor(n):
    """The N x 16 factor B of the sinc covariance, Sigma = B B^T: the columns
    sqrt(w) cos(pi t c/N) and sqrt(w) sin(pi t c/N) over the 8 positive
    nodes t of the 16-point Gauss-Legendre rule, at the centred sensor index
    c = i - (N-1)/2, so B^T B is ``rates._slepian_gram``'s two blocks."""
    t, w = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    angle = np.multiply.outer((np.arange(n) - 0.5 * (n - 1)) * (np.pi / n), t)
    return np.hstack([np.cos(angle), np.sin(angle)]) * np.sqrt(np.concatenate([w, w]))


def descending_eigvals(spec):
    """Every clamped eigenvalue of a ``rates.Spectrum``, descending, as one
    array: its ``modes`` pairs with each multiplicity expanded."""
    return np.array([lam for lam, count in spec.modes() for _ in range(count)])


def find_theta_loop(model, target_mse, grid_points=4096):
    """find_theta by an independent search: a grid scanned one scalar
    model() call at a time.

    Walks the grid up to the first failing point (halving below the first
    grid point when that one already fails), then bisects that cell 100
    times; the library bisects all of (0, theta_mono] instead.
    """
    def ok(t):
        r = model(t)
        return r > 0 and 1.0 - r * r / (1.0 + t) <= target_mse

    hi = model.theta_mono
    if ok(hi):
        return float(hi)
    grid = np.linspace(0.0, hi, grid_points + 1)[1:]
    good = None
    for t in grid:
        if ok(t):
            good = t
        else:
            break
    if good is None:
        good = grid[0]
        while not ok(good):
            good /= 2.0
        bad = grid[0]
    else:
        bad = min(good + hi / grid_points, hi)
    for _ in range(100):
        mid = 0.5 * (good + bad)
        if ok(mid):
            good = mid
        else:
            bad = mid
    return float(good)


def smallest_feasible_n_scan(model, d_net):
    """Smallest N with 1 - rho^2(1/(2N)) < d_net, one scalar check per N."""
    n = 1
    while not 1.0 - model(1.0 / (2 * n)) ** 2 < d_net:
        n += 1
    return n


def smallest_count_scan(model, d_net, per_unit):
    """Smallest n whose lag 1/(per_unit n) lies inside the monotone radius
    with rho > 0 and 1 - rho^2 < d_net, one scalar check per n upward (N at
    per_unit 2, K at 1)."""
    n = 1
    while True:
        lag = 1.0 / (per_unit * n)
        if lag <= model.theta_mono:
            r = model(lag)
            if r > 0 and 1.0 - r ** 2 < d_net:
                return n
        n += 1


def feasibility_tables():
    """Correlation tables, keyed by name, whose rho rises or turns negative
    within lags 1/K and 1/(2N) that the scheme rule 1 - rho^2 < d_net alone
    would certify at d_net = 0.1: ``psd`` is exp(-tau/10) cos(20 tau) on
    2,001 rows, ``bump`` rises to 0.99 at lag 1/6 and ``dip`` rises back to
    1 at lag 1/2."""
    tau = np.linspace(0.0, 1.0, 2001)
    return {
        "psd": np.column_stack([tau, np.exp(-tau / 10) * np.cos(20 * tau)]),
        "bump": np.array([[0.0, 1.0], [0.125, 0.9], [1 / 6, 0.99], [0.25, 0.5],
                          [0.5, 0.5], [1.0, 0.0]]),
        "dip": np.array([[0.0, 1.0], [0.1, 0.5], [0.5, 1.0], [1.0, 0.0]]),
    }


def min_levels_scan(target, max_levels):
    """Smallest L <= max_levels with designed distortion <= target, one design
    per L from 1 upward; None if there is none."""
    for levels in range(1, max_levels + 1):
        if lloyd_max(levels).distortion <= target:
            return levels
    return None


def optimize_k_scan(model, d_net, k_min, k_max, n_sensors=None):
    """(K*, rate) over [k_min, k_max] by one scalar ``p2p_rate_for_K`` call
    per K (only the divisors of ``n_sensors`` when given), keeping the first
    strict minimum; None when no K there is feasible."""
    best_k, best_rate = None, math.inf
    for k in range(k_min, k_max + 1):
        if n_sensors and n_sensors % k:
            continue
        try:
            rate = p2p_rate_for_K(model, d_net, k)
        except InfeasibleConfigError:
            continue
        if rate < best_rate:
            best_k, best_rate = k, rate
    return None if best_k is None else (best_k, best_rate)


# helpers that only tests read


def seeded_generator(seed):
    """The library's stream for an integer seed, for ``sample_snapshots``."""
    return _generator(np.random.SeedSequence(seed))


def nearest_sample_index(s, n_sensors):
    """0-based index of the sensor whose cell [k/N, (k+1)/N) contains s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("positions must lie in [0, 1]")
    idx = np.minimum(np.floor(s * n_sensors).astype(int), n_sensors - 1)
    return idx


def nearest_sample_location(s, n_sensors):
    """Location of the sample closest to s: (2k+1)/(2N) for s in [k/N, (k+1)/N).

    s = 1 belongs to the last cell so the map is total on [0, 1].
    """
    idx = nearest_sample_index(s, n_sensors)
    loc = (2 * idx + 1) / (2 * n_sensors)
    if np.ndim(s) == 0:
        return float(loc)
    return loc


def interpolate(model, recon_at_sensors, positions, s):
    """Field reconstruction away from the sensors.

    Scales the reconstructed nearest sample by the correlation at the offset:
    the conditional-mean rule  X~(s) = rho(s - n(s)) * X~(n(s)).  At a sensor
    position this returns the reconstruction unchanged since rho(0) = 1.
    """
    recon = np.asarray(recon_at_sensors, dtype=float)
    if recon.shape[-1] != positions.size:
        raise ValueError(
            f"reconstruction has {recon.shape[-1]} entries for {positions.size} sensors"
        )
    idx = nearest_sample_index(s, positions.size)
    scale = model(np.asarray(s, dtype=float) - positions[idx])
    out = scale * recon[..., idx]
    if np.ndim(s) == 0 and recon.ndim == 1:
        return float(out)
    return out


def averaging_estimator_mse_bound(model: CorrelationModel, n_sensors, theta, p):
    """MSE bound for the window-averaging estimator with optimized scale.

    Averaging the ~N*theta noisy samples nearest a sensor, with the scale
    that minimizes the quadratic part of the error, achieves at most

        1 - rho(theta)^2 / (1 + p/(N theta)) * (1 - 2/(N theta)).

    This upper-bounds the optimal estimator's per-sensor MSE, since any
    linear estimator does.  Valid while rho is non-increasing and positive
    out to theta and the window holds more than two samples.
    """
    if theta <= 0 or theta > model.theta_mono:
        raise ValueError("theta must lie in (0, theta_mono]")
    n_theta = n_sensors * theta
    if n_theta <= 2:
        raise ValueError("window N*theta must exceed 2 for the bound to mean anything")
    r = model(theta)
    if r <= 0:
        raise ValueError("rho(theta) must be positive")
    return 1.0 - (r * r / (1.0 + p / n_theta)) * (1.0 - 2.0 / n_theta)


def prop1_sum_rate_bound(theta):
    """Constant upper bound 1/(2 theta^2) on the distributed sum rate."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return 1.0 / (2.0 * theta * theta)


def quantizer_to_json(q):
    return json.dumps({
        "levels": q.levels,
        "boundaries": [float(b) for b in q.boundaries],
        "points": [float(p) for p in q.points],
        "distortion": q.distortion,
    }, indent=2, sort_keys=True)


def quantizer_from_json(text):
    obj = json.loads(text)
    return ScalarQuantizer(levels=int(obj["levels"]),
                           boundaries=np.asarray(obj["boundaries"], dtype=float),
                           points=np.asarray(obj["points"], dtype=float),
                           distortion=float(obj["distortion"]))


def p2p_per_sensor_rate(model, d_net, k_intervals, n_sensors):
    """Per-sensor, per-time-step rate (K/N) * (1/2) ln(1/D_K)."""
    return p2p_rate_for_K(model, d_net, k_intervals) / n_sensors


def active_times(n_sensors, k_intervals, m_prime):
    """Map from each 1-based sensor to its tuple of active time steps over m'
    round-robin frames of N sensors in K sub-intervals."""
    frame = n_sensors // k_intervals
    return {frame * l + j: tuple(range(j, j + m_prime * frame, frame))
            for l in range(k_intervals) for j in range(1, frame + 1)}


def active_sensors_at(n_sensors, k_intervals, time):
    """1-based sensors active at a 1-based time step, one per sub-interval."""
    frame = n_sensors // k_intervals
    j = (time - 1) % frame + 1
    return [frame * l + j for l in range(k_intervals)]


def report_to_json(report, config=None):
    """Stable JSON form of a report; optionally embeds the resolved config."""
    obj = _report_body(report)
    if config is not None:
        obj["config"] = config
    return json.dumps(obj, indent=2, sort_keys=True)


def interpolation_only_jmse(model, n_sensors, grid_g=512):
    """Integrated MSE of the scheme with perfect sensor samples.

    Direct midpoint quadrature of the conditional variance 1 - rho^2(s - n(s));
    the error floor any reconstruction based on nearest-sample interpolation
    carries.
    """
    nodes = (np.arange(n_sensors * grid_g) + 0.5) / (n_sensors * grid_g)
    r2 = model(nodes - nearest_sample_location(nodes, n_sensors)) ** 2
    return float(np.mean(1.0 - r2))


def mmse_error(cov, p):
    """Exact per-sensor MSE of the optimal linear estimate at noise variance
    p, one per sensor; its mean is ``estimation.avg_mmse_from_eigvals``.

    The error covariance is Sigma - Sigma (Sigma + pI)^-1 Sigma, whose
    eigenbasis form has mode errors lambda*p/(lambda+p); the diagonal is
    recovered by ``CovariancePack.sensor_variances``.
    """
    if p < 0:
        raise ValueError("noise variance must be nonnegative")
    mode_mse = cov.eigvals * p / (cov.eigvals + p) if p > 0 else np.zeros(cov.n)
    return cov.sensor_variances(mode_mse)
