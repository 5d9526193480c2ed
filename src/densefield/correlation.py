"""Autocorrelation models rho(tau) of the stationary Gaussian field.

The field lives on [0, 1], has zero mean, unit variance and an autocorrelation
function rho(tau) that is symmetric, equals 1 at 0 and is non-increasing on a
neighbourhood of 0 of radius ``theta_mono``.  Only array lags and tables
import numpy, so rho at float lags of a built-in kernel never loads it.
"""

import math
from collections import namedtuple

SINC = "sinc"
EXP_MARKOV = "exp-markov"
CUSTOM_TABLE = "custom-table"

_KINDS = (SINC, EXP_MARKOV, CUSTOM_TABLE)


def _freeze(arr):
    """A read-only float array of ``arr``'s values: a read-only float array
    as it is, anything else copied, so the caller's array stays writeable."""
    import numpy as np
    if isinstance(arr, np.ndarray) and arr.dtype == float and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=float, order="C")
    out.flags.writeable = False
    return out


class CorrelationModel(namedtuple("CorrelationModel",
                                  "kind theta_mono table_tau table_rho",
                                  defaults=(1.0, None, None))):
    """Autocorrelation function rho(tau) with its monotone-neighbourhood radius.

    ``theta_mono`` is a radius such that rho is non-increasing on
    (0, theta_mono].  Evaluation accepts scalars or arrays and uses |tau|,
    so rho(-tau) = rho(tau) by construction.  A float lag of a built-in kind
    takes ``math``: ``math.exp`` may differ from ``np.exp`` by one ulp, and
    sinc repeats ``np.sinc``'s operations (t = 1e-20 at 0).  A table model
    holds its read-only (tau, rho) arrays in ``table_tau`` and ``table_rho``.
    """

    __slots__ = ()

    def __call__(self, tau):
        if self.kind != CUSTOM_TABLE and isinstance(tau, (int, float)):
            t = abs(float(tau))
            if self.kind == EXP_MARKOV:
                return math.exp(-t)
            y = math.pi * (t or 1e-20)
            return math.sin(y) / y
        import numpy as np
        t = np.abs(np.asarray(tau, dtype=float))
        if self.kind == SINC:
            out = np.sinc(t)
        elif self.kind == EXP_MARKOV:
            out = np.exp(-t)
        else:
            if np.any(t > self.table_tau[-1] + 1e-12):
                raise ValueError(f"custom table covers lags up to "
                                 f"{self.table_tau[-1]}, requested {float(np.max(t))}")
            out = np.interp(t, self.table_tau, self.table_rho)
        if np.ndim(tau) == 0:
            return float(out)
        return out


def make_correlation(kind, params=()):
    """Build a CorrelationModel.

    ``params`` is empty for the built-in kinds; for ``custom-table`` it is an
    (M, 2) array of (tau, rho) rows, and any other shape, or a table that is
    not a correlation on [0, 1], is refused.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown correlation kind {kind!r}; expected one of {_KINDS}")
    if kind != CUSTOM_TABLE:
        if len(params):
            raise ValueError(f"{kind} takes no parameters")
        # both decrease on (0, 1] (sinc's first minimum is at 1.43), so the
        # whole unit interval is a monotone neighbourhood
        return CorrelationModel(kind=kind, theta_mono=1.0)
    import numpy as np
    arr = np.asarray(params, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("correlation table needs exactly two columns (tau, rho)")
    tau, rho = _freeze(arr[:, 0]), _freeze(arr[:, 1])
    if tau.size < 2:
        raise ValueError("correlation table needs at least two rows")
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
    # rho is non-increasing up to the first lag where it rises
    inc = np.nonzero(np.diff(rho) > 0)[0]
    theta_mono = float(min(tau[inc[0]] if inc.size else tau[-1], 1.0))
    return CorrelationModel(kind=CUSTOM_TABLE, theta_mono=theta_mono,
                            table_tau=tau, table_rho=rho)


def load_correlation_table(path):
    """Load a custom-table model from a two-column CSV of (tau, rho) rows."""
    import numpy as np
    data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    try:
        return make_correlation(CUSTOM_TABLE, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
