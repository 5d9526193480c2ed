"""Sensor geometry, dense covariance eigendecompositions and snapshot
sampling of the field whose autocorrelation a ``correlation.CorrelationModel``
gives; the eigenvalue-only spectra of the built-in kernels are ``rates``'.

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

from .correlation import _freeze
from .errors import InfeasibleConfigError
from .rates import CLAMP_FLOOR, Spectrum, _check_psd, _sensor_count


def sensor_positions(n_sensors):
    """Read-only positions of N regular sensors: sensor k (1-based) sits at
    (2k-1)/(2N)."""
    n = _sensor_count(n_sensors)
    k = np.arange(1, n + 1)
    positions = (2 * k - 1) / (2 * n)
    positions.flags.writeable = False
    return positions


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


# largest N whose N x N covariance passes the size rule: a table's spectrum
_TABLE_N_MAX = math.isqrt(DENSE_BUDGET_BYTES // 8)


def _clamped(raw, n):
    """(eigvals, n_clamped, raw_min, raw_max) of an n x n covariance from
    its ``raw.size`` leading raw eigenvalues (descending), the clamped
    eigvals read-only; the modes after them must lie below the floor."""
    _check_psd(float(raw[0]), float(raw[-1]))
    eigvals = np.full(n, CLAMP_FLOOR)
    eigvals[:raw.size] = np.maximum(raw, CLAMP_FLOOR)
    eigvals.flags.writeable = False
    n_clamped = n - raw.size + np.count_nonzero(raw < CLAMP_FLOOR)
    return eigvals, int(n_clamped), float(raw[-1]), float(raw[0])


class CovariancePack(namedtuple("CovariancePack", "eigvals n_clamped blocks parity")):
    """Eigendecomposition of the sensor-sample covariance: what sampling and
    the eigenbasis Monte Carlo read (rates read a ``rates.Spectrum``).

    ``eigvals`` holds the N clamped eigenvalues, descending, and
    ``n_clamped`` counts the modes the clamp raised.  Sampling and the MMSE
    filter run on the clamped spectrum, so every consumer sees one
    consistent field law.  ``blocks`` holds the eigenvectors as built: from
    ``covariance_matrix`` (the reflection split, for every kernel) the top
    ceil(N/2) rows of the unit-norm symmetric modes and the top floor(N/2)
    rows of the skew ones, with ``parity`` +1 or -1 per mode (its bottom
    rows are its top rows reversed times parity); from ``from_matrix`` the
    one N x N V, with ``parity`` None.  Every array is read-only and the
    pack's own: neither constructor keeps the matrix it decomposes.
    """

    n = property(lambda self: self.eigvals.size)

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
        raw, vecs = np.linalg.eigh(sigma)
        return cls(*_clamped(raw[::-1], raw.size)[:2], (_freeze(vecs[:, ::-1]),), None)


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
    """The eigendecomposition of the N x N Toeplitz covariance
    rho(|s_i - s_j|) of the N regular sensors, as a ``CovariancePack``.

    Every kernel takes its eigenpairs from the two half-size problems of the
    reflection split (``_split_eigpairs``, one ``eigh`` each), whose
    C-contiguous blocks the pack keeps uncopied; the N x N matrix is never
    formed.  Band-limited kernels are numerically rank deficient at large N;
    the clamp floor keeps the decomposition usable for sampling and the MMSE
    filter, and ``n_clamped`` reports how often it engaged.
    """
    n = _sensor_count(n_sensors)
    raw, blocks, parity = _split_eigpairs(_first_row(model, n))
    for arr in (parity, *blocks):
        arr.flags.writeable = False
    return CovariancePack(*_clamped(raw, n)[:2], blocks, parity)


def _dense_spectrum(model, n):
    """The ``dense`` Spectrum of a custom table: ``eigvalsh`` of the two
    halves of ``_reflection_split``, with the positive-semidefinite refusal."""
    halves = _reflection_split(_first_row(model, n))
    raw = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in halves]))[::-1]
    return Spectrum(n, *_clamped(raw, n), "dense")


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
