"""Stationary Gaussian field model, sensor geometry and snapshot sampling.

The field lives on [0, 1], has zero mean, unit variance and an autocorrelation
function rho(tau) that is symmetric, equals 1 at 0 and is non-increasing on a
neighbourhood of 0 of radius ``theta_mono``.  All objects here are immutable
after construction and safe to share between threads; snapshot generation is
deterministic given the seed regardless of any internal parallelism.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConditioningError

SINC = "sinc"
EXP_MARKOV = "exp-markov"
CUSTOM_TABLE = "custom-table"

_KINDS = (SINC, EXP_MARKOV, CUSTOM_TABLE)


def _freeze(arr):
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CorrelationModel:
    """Autocorrelation function rho(tau) with its monotone-neighbourhood radius.

    ``theta_mono`` is a radius such that rho is non-increasing on
    (0, theta_mono].  Evaluation accepts scalars or arrays and uses |tau|,
    so rho(-tau) = rho(tau) by construction.
    """

    kind: str
    params: tuple = ()
    theta_mono: float = 1.0
    table_tau: np.ndarray = dc_field(default=None, repr=False)
    table_rho: np.ndarray = dc_field(default=None, repr=False)

    def __call__(self, tau):
        t = np.abs(np.asarray(tau, dtype=float))
        if self.kind == SINC:
            out = np.sinc(t)
        elif self.kind == EXP_MARKOV:
            out = np.exp(-t)
        else:
            if np.any(t > self.table_tau[-1] + 1e-12):
                raise ValueError(
                    f"custom table covers lags up to {self.table_tau[-1]}, "
                    f"requested {float(np.max(t))}"
                )
            out = np.interp(t, self.table_tau, self.table_rho)
        if np.ndim(tau) == 0:
            return float(out)
        return out


def _table_theta_mono(tau, rho):
    inc = np.nonzero(np.diff(rho) > 0)[0]
    if inc.size == 0:
        return float(min(tau[-1], 1.0))
    return float(min(tau[inc[0]], 1.0))


def _validate_table(tau, rho):
    if tau.ndim != 1 or rho.ndim != 1 or tau.size != rho.size or tau.size < 2:
        raise ValueError("correlation table needs two equal-length columns")
    if tau[0] != 0.0:
        raise ValueError("correlation table must start at tau = 0")
    if np.any(np.diff(tau) <= 0):
        raise ValueError("correlation table lags must be strictly increasing")
    if rho[0] != 1.0:
        raise ValueError("correlation table must have rho(0) = 1")
    if np.any(np.abs(rho) > 1.0):
        raise ValueError("correlation table values must lie in [-1, 1]")
    if tau[-1] < 1.0 - 1e-12:
        # rho is evaluated on all of [0, 1]; tables must cover that range
        raise ValueError("correlation table must cover lags up to 1")


def make_correlation(kind, params=()):
    """Build a CorrelationModel.

    ``params`` is empty for the built-in kinds; for ``custom-table`` it is the
    interleaved flat list [tau0, rho0, tau1, rho1, ...] or an (M, 2) array.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown correlation kind {kind!r}; expected one of {_KINDS}")
    if kind == SINC:
        if len(params):
            raise ValueError("sinc takes no parameters")
        # sinc decreases on (0, 1] (its first minimum is at 1.43), so the
        # whole unit interval is a monotone neighbourhood
        return CorrelationModel(kind=SINC, theta_mono=1.0)
    if kind == EXP_MARKOV:
        if len(params):
            raise ValueError("exp-markov takes no parameters")
        return CorrelationModel(kind=EXP_MARKOV, theta_mono=1.0)
    arr = np.asarray(params, dtype=float)
    if arr.ndim == 1:
        if arr.size % 2:
            raise ValueError("flat table must interleave (tau, rho) pairs")
        arr = arr.reshape(-1, 2)
    tau, rho = _freeze(arr[:, 0]), _freeze(arr[:, 1])
    _validate_table(tau, rho)
    return CorrelationModel(kind=CUSTOM_TABLE, theta_mono=_table_theta_mono(tau, rho),
                            table_tau=tau, table_rho=rho)


def load_correlation_table(path):
    """Load a custom-table model from a two-column CSV of (tau, rho) rows."""
    data = np.loadtxt(path, delimiter=",", dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected exactly two columns (tau, rho)")
    return make_correlation(CUSTOM_TABLE, data)


@dataclass(frozen=True)
class SensorGrid:
    """Regular sensor placement: sensor k (1-based) sits at (2k-1)/(2N)."""

    n_sensors: int
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", _freeze(self.positions))


def sensor_positions(n_sensors):
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    k = np.arange(1, n_sensors + 1)
    return SensorGrid(n_sensors=int(n_sensors), positions=(2 * k - 1) / (2 * n_sensors))


@dataclass(frozen=True)
class CovariancePack:
    """Sensor-sample covariance with a cached, clamped eigendecomposition.

    ``eigvals`` are clamped below at ``clamp_floor`` and sorted descending;
    ``eigvals_raw`` keeps the unclamped spectrum for diagnostics.  Sampling,
    MMSE solves, mutual information and water-filling all run on the clamped
    spectrum, so every consumer sees one consistent field law.
    """

    sigma_x: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    clamp_floor: float
    eigvals_raw: np.ndarray
    n_clamped: int

    def __post_init__(self):
        for name in ("sigma_x", "eigvals", "eigvecs", "eigvals_raw"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n(self):
        return self.sigma_x.shape[0]

    @classmethod
    def from_matrix(cls, sigma, clamp_floor=1e-10):
        if not 0.0 <= clamp_floor <= 1e-6:
            raise ValueError("clamp_floor must lie in [0, 1e-6]")
        sigma = np.asarray(sigma, dtype=float)
        raw, vecs = np.linalg.eigh(sigma)
        raw = raw[::-1]
        vecs = vecs[:, ::-1]
        # rounding leaves rank-deficient PSD spectra slightly negative (sinc:
        # -1e-12 against 1604 at N = 2048); anything further below is refused
        if raw[-1] < -1e-8 * max(raw[0], 1.0):
            raise ConditioningError(
                f"covariance is not positive semidefinite: smallest eigenvalue "
                f"{raw[-1]:.6g} against largest {raw[0]:.6g}"
            )
        clamped = np.maximum(raw, clamp_floor)
        return cls(sigma_x=sigma, eigvals=clamped, eigvecs=vecs,
                   clamp_floor=float(clamp_floor), eigvals_raw=raw,
                   n_clamped=int(np.count_nonzero(raw < clamp_floor)))


def covariance_matrix(model, grid, clamp_floor=1e-10):
    """N x N Toeplitz covariance rho(|s_i - s_j|) with cached eigenfactors.

    Band-limited kernels are numerically rank deficient at large N; the
    clamp floor keeps the cached factorisation usable for sampling and
    log-determinant work, and ``n_clamped`` reports how often it engaged.
    """
    n = grid.n_sensors
    lags = np.arange(n)
    first_row = model(lags / n)
    sigma = first_row[np.abs(lags[:, None] - lags[None, :])]
    return CovariancePack.from_matrix(sigma, clamp_floor)


@dataclass(frozen=True)
class FieldSnapshots:
    """m independent rows, each a draw of the field at the N sensor positions."""

    data: np.ndarray
    seed: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))


def _generator(seed_source):
    # counter-based generator so streams are reproducible independent of
    # any evaluation schedule; one root seed, SeedSequence-derived children
    if isinstance(seed_source, np.random.SeedSequence):
        ss = seed_source
    else:
        ss = np.random.SeedSequence(int(seed_source))
    return np.random.Generator(np.random.Philox(ss))


def sample_snapshots(cov, m, seed):
    """Draw m i.i.d. N(0, Sigma_clamped) rows, bit-reproducible for a seed."""
    if m < 1:
        raise ValueError("need at least one snapshot")
    rng = _generator(seed)
    gauss = rng.standard_normal((int(m), cov.n))
    factor = cov.eigvecs * np.sqrt(cov.eigvals)
    data = gauss @ factor.T
    seed_val = seed if isinstance(seed, int) else -1
    return FieldSnapshots(data=data, seed=seed_val, m=int(m))


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


def interpolate(model, recon_at_sensors, grid, s):
    """Field reconstruction away from the sensors.

    Scales the reconstructed nearest sample by the correlation at the offset:
    the conditional-mean rule  X~(s) = rho(s - n(s)) * X~(n(s)).  At a sensor
    position this returns the reconstruction unchanged since rho(0) = 1.
    """
    recon = np.asarray(recon_at_sensors, dtype=float)
    if recon.shape[-1] != grid.n_sensors:
        raise ValueError(
            f"reconstruction has {recon.shape[-1]} entries for {grid.n_sensors} sensors"
        )
    idx = nearest_sample_index(s, grid.n_sensors)
    scale = model(np.asarray(s, dtype=float) - grid.positions[idx])
    out = scale * recon[..., idx]
    if np.ndim(s) == 0 and recon.ndim == 1:
        return float(out)
    return out
