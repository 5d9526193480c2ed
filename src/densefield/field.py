"""Sensor geometry, covariance spectra and snapshot sampling of the field
whose autocorrelation a ``correlation.CorrelationModel`` gives.

Sensors sit at N regular points of [0, 1], so every function here takes the
count N, and positions and snapshots are plain read-only float arrays.  All
objects here are immutable after construction and safe to share between
threads; snapshot generation is deterministic given the generator's state
regardless of any internal parallelism.  Every path, here and in ``sim``,
checks its largest array with ``check_dense_size`` before building it.
"""

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .correlation import EXP_MARKOV, SINC, _freeze
from .errors import ConditioningError, InfeasibleConfigError


def _sensor_count(n_sensors):
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    return int(n_sensors)


def sensor_positions(n_sensors):
    """Read-only positions of N regular sensors: sensor k (1-based) sits at
    (2k-1)/(2N)."""
    n = _sensor_count(n_sensors)
    k = np.arange(1, n + 1)
    positions = (2 * k - 1) / (2 * n)
    positions.flags.writeable = False
    return positions


CLAMP_FLOOR = 1e-10

# largest float64 array any path builds (512 MiB: an N x N matrix up to
# N = 8192); an eigendecomposition holds several such arrays at once
DENSE_BUDGET_BYTES = 512 * 2**20


def check_dense_size(count, what):
    """The one size rule: refuse ``what``, a float64 array of ``count``
    values, over ``DENSE_BUDGET_BYTES`` before it is allocated."""
    if 8 * count > DENSE_BUDGET_BYTES:
        raise InfeasibleConfigError(
            f"{what}: {count} float64 values ({8 * count / 2**30:.1f} GiB) "
            f"exceed the dense budget of {DENSE_BUDGET_BYTES >> 20} MiB")


# float64 values per sensor that the kms and slepian spectra are checked for
# (their tracemalloc peaks are in ``_kms_eigvals`` and ``_sinc_factor``)
_KMS_PEAK, _SINC_PEAK = 8, 18


class Spectrum(namedtuple("Spectrum", "eigvals n_clamped raw_min raw_max backend")):
    """Eigenvalues of a sensor covariance, clamped and sorted descending.

    ``eigvals`` are read-only and clamped below at ``CLAMP_FLOOR``;
    ``n_clamped`` counts the modes the clamp raised, ``raw_min``/``raw_max``
    are the unclamped extremes (for ``slepian``, of the min(N, 16) modes
    it computed) and ``backend`` names what computed them: ``kms`` (the
    exp-markov secular equation) or ``slepian`` (the sinc Gram matrix of a
    16-column Gauss-Legendre factor) from ``spectrum``, ``dense`` (LAPACK)
    for a custom table and every pack.
    p_max, the distributed sum rate and water-filling read nothing else, so
    they never need eigenvectors.
    """

    __slots__ = ()
    n = property(lambda self: self.eigvals.size)


def _clamped(raw, n):
    """(eigvals, n_clamped, raw_min, raw_max) of an n x n covariance from
    its ``raw.size`` leading raw eigenvalues (descending), the clamped
    eigvals read-only; the modes after them must lie below the floor."""
    # rounding leaves rank-deficient PSD spectra slightly negative (sinc:
    # -1e-12 against 1604 at N = 2048); anything further below is refused
    if raw[-1] < -1e-8 * max(raw[0], 1.0):
        raise ConditioningError(
            f"covariance is not positive semidefinite: smallest eigenvalue "
            f"{raw[-1]:.6g} against largest {raw[0]:.6g}"
        )
    eigvals = np.full(n, CLAMP_FLOOR)
    eigvals[:raw.size] = np.maximum(raw, CLAMP_FLOOR)
    eigvals.flags.writeable = False
    n_clamped = n - raw.size + np.count_nonzero(raw < CLAMP_FLOOR)
    return eigvals, int(n_clamped), float(raw[-1]), float(raw[0])


class CovariancePack(namedtuple("CovariancePack", Spectrum._fields
                                + ("sigma_x", "eigvals_raw", "blocks", "parity"))):
    """Sensor-sample covariance with its clamped spectrum and eigenvectors.

    The first fields are a ``Spectrum``'s.  ``eigvals_raw`` keeps the
    unclamped spectrum for diagnostics.  Sampling, MMSE solves, mutual
    information and water-filling all run on the clamped spectrum, so every
    consumer sees one consistent field law.  ``blocks`` holds the
    eigenvectors as built: from ``covariance_matrix`` (the reflection split,
    for every kernel) the top ceil(N/2) rows of the unit-norm symmetric
    modes and the top floor(N/2) rows of the skew ones, with ``parity`` +1
    or -1 per mode (its bottom rows are its top rows reversed times parity);
    from ``from_matrix`` the one N x N V, with ``parity`` None.  Every array
    is read-only: ``covariance_matrix`` marks its own fresh arrays in place,
    and ``from_matrix`` copies a writeable matrix it is given.
    """

    n = Spectrum.n

    @cached_property
    def eigvecs(self):
        """The N x N V, columns in descending order, unfolded on first use;
        a product with the identity is exact, so V has the blocks' bits."""
        return _freeze(self.to_sensors(np.eye(self.n)).T)

    def to_sensors(self, coef):
        """Rows c of eigenbasis coefficients mapped to sensor values c V^T.

        With parities known this is one product with the symmetric block and
        one with the skew block, half the flops of c V^T: the top rows are
        their sum, the bottom rows their difference reversed, and the middle
        row of odd N comes from the symmetric modes alone.
        """
        if self.parity is None:
            return coef @ self.blocks[0].T
        top_sym, top_skew = self.blocks
        k = self.n // 2
        y_sym = coef[:, self.parity > 0] @ top_sym.T
        y_skew = coef[:, self.parity < 0] @ top_skew.T
        out = np.empty_like(coef)
        out[:, k:self.n - k] = y_sym[:, k:]
        np.add(y_sym[:, :k], y_skew, out=out[:, :k])
        np.subtract(y_sym[:, :k], y_skew, out=out[:, ::-1][:, :k])
        return out

    def sensor_variances(self, s):
        """(V o V) s, each sensor's variance when mode k has variance s_k:
        with parities known the top rows come from the squared symmetric and
        skew blocks and the bottom rows mirror them, so V is never unfolded."""
        if self.parity is None:
            return np.square(self.blocks[0]) @ s
        top_sym, top_skew = self.blocks
        k = self.n // 2
        top = np.square(top_sym) @ s[self.parity > 0]
        top[:k] += np.square(top_skew) @ s[self.parity < 0]
        return np.concatenate([top, top[:k][::-1]])

    @classmethod
    def from_matrix(cls, sigma):
        sigma = _freeze(sigma)
        raw, vecs = np.linalg.eigh(sigma)
        raw = _freeze(raw[::-1])
        return cls(*_clamped(raw, raw.size), "dense", sigma, raw,
                   (_freeze(vecs[:, ::-1]),), None)


def _first_row(model, n):
    """rho at the lags 0, 1/N, ..., (N-1)/N of the regular N-sensor grid,
    refused before anything is allocated if its N x N matrix would not fit."""
    check_dense_size(n * n, f"the {n} x {n} covariance of N = {n} sensors")
    return model(np.arange(n) / n)


def _reflection_split(row):
    """The two half-size problems of the symmetric Toeplitz matrix Sigma
    with first row ``row``.

    Sigma equals its own row-and-column reversal, so its eigenvectors can be
    taken symmetric, [x/sqrt2; y; Jx/sqrt2], or skew, [x/sqrt2; 0; -Jx/sqrt2],
    with J the reversal and the middle entry y only for odd N (Cantoni and
    Butler 1976).  With h = ceil(N/2) and k = floor(N/2), (lambda, [x; y]) is
    an eigenpair of the h x h ``sym`` = T + XJ and (lambda, x) of the k x k
    ``skew`` = T - XJ, where T holds rho at the lags |i - j| of the top rows
    and XJ at the reflected lags N-1-i-j.  For odd N the middle row and
    column of ``sym`` are scaled by 1/sqrt2, which keeps it symmetric.
    """
    n = row.size
    k, h = n // 2, n - n // 2
    i = np.arange(h)
    direct = row[np.abs(i[:, None] - i)]
    reflected = row[n - 1 - i[:, None] - i]
    skew = direct[:k, :k] - reflected[:k, :k]
    sym = direct
    sym += reflected
    if h > k:
        sym[k] *= np.sqrt(0.5)
        sym[:, k] *= np.sqrt(0.5)
    return sym, skew


def _split_eigpairs(row):
    """Descending eigenvalues, the two eigenvector blocks and the parities
    of the symmetric Toeplitz matrix with first row ``row``, from one
    ``eigh`` of each half of ``_reflection_split``.

    The eigenvalues are merged in descending order (a stable sort, so a tie
    puts the symmetric mode first).  A mode's top rows are its half-size
    eigenvector with the n // 2 outer rows times 1/sqrt2.
    """
    n = row.size
    (raw_sym, vecs_sym), (raw_skew, vecs_skew) = map(np.linalg.eigh,
                                                     _reflection_split(row))
    raw = np.concatenate([raw_sym[::-1], raw_skew[::-1]])
    order = np.argsort(-raw, kind="stable")
    parity = np.where(order < n - n // 2, 1.0, -1.0)
    top_sym = np.ascontiguousarray(vecs_sym[:, ::-1])
    top_skew = np.ascontiguousarray(vecs_skew[:, ::-1])
    top_sym[:n // 2] *= np.sqrt(0.5)
    top_skew *= np.sqrt(0.5)
    return raw[order], (top_sym, top_skew), parity


def covariance_matrix(model, n_sensors):
    """N x N Toeplitz covariance rho(|s_i - s_j|) of the N regular sensors,
    with its eigendecomposition.

    Every kernel takes its eigenpairs from the two half-size problems of the
    reflection split (``_split_eigpairs``, one ``eigh`` each, backend
    ``dense``), whose C-contiguous blocks the pack keeps uncopied.
    Band-limited kernels are numerically rank deficient at large N; the
    clamp floor keeps the decomposition usable for sampling and
    log-determinant work, and ``n_clamped`` reports how often it engaged.
    """
    n = _sensor_count(n_sensors)
    row = _first_row(model, n)
    raw, blocks, parity = _split_eigpairs(row)
    for arr in (raw, parity, *blocks):
        arr.flags.writeable = False
    # a read-only view of 2N - 1 values: row i is rho at lags i, ..., 0, 1, ...
    mirrored = np.concatenate([row[:0:-1], row])
    sigma = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1]
    return CovariancePack(*_clamped(raw, n), "dense", sigma, raw, blocks, parity)


def _kms_eigvals(n):
    """Descending eigenvalues of the exp-markov covariance a^|i-j|, a = e^(-1/N).

    This is the Kac-Murdock-Szego matrix (1953): its eigenvalues are
    (1-a^2) / ((1-a)^2 + 4a sin^2(theta/2)) at the N roots theta in (0, pi)
    of sin(N theta) [(1-a)^2 - 2(1+a^2) sin^2(theta/2)]
    + (1-a^2) cos(N theta) sin(theta).  1-a and 1-a^2 come from expm1; the
    textbook forms in cos(theta) cancel as a -> 1 (trace off by 1e-7 at
    N = 65,536).  The equation is (1-a^2) (-1)^j sin(j pi / N) at j pi / N,
    positive just above 0 and of sign (-1)^N just below pi: each cell
    (j pi / N, (j+1) pi / N) holds one root, with the sign (-1)^j above its
    left end.  All cells are bisected at once to adjacent doubles, never
    evaluated at a cell end (near pi the value there is rounding noise).
    """
    a = np.exp(-1.0 / n)
    c1 = -np.expm1(-1.0 / n)      # 1 - a
    c2 = -np.expm1(-2.0 / n)      # 1 - a^2

    def negative(t):
        s2 = np.sin(0.5 * t) ** 2
        f = (np.sin(n * t) * (c1 * c1 - 2.0 * (1.0 + a * a) * s2)
             + c2 * np.cos(n * t) * np.sin(t))
        return np.signbit(f)

    # the cell ends, a midpoint and one evaluation's temporaries peak at
    # 7.25 N float64 values (tracemalloc, N = 2^16 and 2^20)
    check_dense_size(_KMS_PEAK * n, f"the KMS root grid of N = {n} sensors")
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


def _kms_precision(n):
    """Diagonal and off-diagonal value of the tridiagonal inverse of the
    exp-markov covariance a^|i-j|, a = e^(-1/N): (1+a^2)/(1-a^2) inside,
    1/(1-a^2) at both corners and -a/(1-a^2) off the diagonal, with 1-a^2
    from expm1 as in ``_kms_eigvals``.  One sensor's covariance is [1], and
    so is its inverse."""
    if n == 1:
        return np.ones(1), 0.0
    a = np.exp(-1.0 / n)
    c2 = -np.expm1(-2.0 / n)      # 1 - a^2
    diag = np.full(n, (1.0 + a * a) / c2)
    diag[[0, -1]] = 1.0 / c2
    return diag, -a / c2


# the 8 positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and
# their weights, correctly rounded (the rule is symmetric about 0)
_GL_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_GL_WEIGHTS = np.array([
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096])


def _sinc_factor(n):
    """The N x 16 factor B of the sinc covariance, Sigma = B B^T.

    sinc((i-j)/N) is N times the prolate matrix with W = 1/(2N) (Slepian
    1978), and sinc(x) is half the integral of cos(pi t x) over t in
    [-1, 1].  The 16-point Gauss-Legendre rule is exact to rounding there
    for |x| <= 1, which covers every lag (i - j)/N: pairing the nodes +t and
    -t and splitting cos(pi t (i - j)/N) gives the columns sqrt(w)
    cos(pi t i/N) and sqrt(w) sin(pi t i/N) over the 8 positive nodes (the
    finite-N Nystrom rule of Bornemann 2010).  The columns are built as
    contiguous rows; B is their transpose.
    """
    # the 16 N values of the factor and the N base angles peak at 17 N
    # float64 values (tracemalloc, N = 2^16 and 2^20)
    check_dense_size(_SINC_PEAK * n, f"the N x 16 sinc factor of N = {n} sensors")
    rows = np.empty((16, n))
    angle = rows[8:]
    base = np.arange(n, dtype=float)
    base *= np.pi / n
    np.multiply.outer(_GL_NODES, base, out=angle)
    np.cos(angle, out=rows[:8])
    np.sin(angle, out=angle)
    rows *= np.sqrt(np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS]))[:, None]
    return rows.T


def spectrum(model, n_sensors):
    """Clamped eigenvalues of the N-sensor covariance, without eigenvectors.

    exp-markov takes the closed KMS form (backend ``kms``) and sinc
    (``slepian``) the eigenvalues of the 16 x 16 B^T B of its
    ``_sinc_factor`` B, both without an N x N matrix: those are the nonzero
    eigenvalues of B B^T, and the other N - 16 modes are zero to rounding
    and are clamped to the floor (7 or 8 lie above it at any N).  A custom
    table takes ``eigvalsh`` of the two halves of ``_reflection_split``
    (``dense``), which keeps the positive-semidefinite refusal.
    """
    n = _sensor_count(n_sensors)
    if model.kind == EXP_MARKOV:
        raw, backend = _kms_eigvals(n), "kms"
    elif model.kind == SINC:
        b = _sinc_factor(n)
        raw, backend = np.linalg.eigvalsh(b.T @ b)[::-1][:n], "slepian"
    else:
        halves = _reflection_split(_first_row(model, n))
        raw = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in halves]))[::-1]
        backend = "dense"
    return Spectrum(*_clamped(raw, n), backend)


def _spectrum_cut(model):
    """Largest N whose ``spectrum`` passes the size rule: _KMS_PEAK N values
    for exp-markov, _SINC_PEAK N for sinc and the N x N covariance for a
    table."""
    values = DENSE_BUDGET_BYTES // 8
    per_sensor = {EXP_MARKOV: _KMS_PEAK, SINC: _SINC_PEAK}.get(model.kind)
    return values // per_sensor if per_sensor else math.isqrt(values)


def _generator(ss):
    # SFC64, numpy's fastest bit generator (12.1 ns per Gaussian in bulk,
    # Philox 16.7 ns; 2 vCPUs).  Independent streams are SeedSequence
    # children of one root seed, not counter positions, so none depends on
    # an evaluation schedule.
    return np.random.Generator(np.random.SFC64(ss))


def sample_snapshots(cov, m, rng):
    """Draw m i.i.d. N(0, Sigma_clamped) rows from the Generator ``rng`` as a
    fresh read-only (m, N) array: row i is snapshot i at the sensors.

    The generator fills rows in order, so draws of m1 then m2 rows from one
    generator are the Gaussians of a single (m1 + m2)-row draw.
    """
    if m < 1:
        raise ValueError("need at least one snapshot")
    gauss = rng.standard_normal((int(m), cov.n))
    gauss *= np.sqrt(cov.eigvals)
    data = cov.to_sensors(gauss)
    data.flags.writeable = False
    return data
