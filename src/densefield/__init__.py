"""Rates, distortion targets and quantizer designs for dense sensor sampling
of a 1-D stationary Gaussian field, verified by seeded Monte Carlo runs.

``import densefield`` loads no layer and no numpy: a layer module is imported
the first time one of its public names (or the module itself) is read."""

import importlib
import os

# Set before numpy loads, since OpenBLAS reads it only then: an idle worker
# sleeps after 2^20 cycles (~0.4 ms), not 2^28 (~0.1 s of spinning after load
# and after every BLAS call).  `import numpy` CPU 0.266 -> 0.164 s for 0.164 s
# wall (median of 15, 2 vCPUs); thread count and outputs are unchanged.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

__version__ = "0.1.0"

# layer module -> the public names the package exports from it
_EXPORTS = {
    "errors": ("ConditioningError", "ConvergenceError", "InfeasibleConfigError"),
    "correlation": ("CorrelationModel", "make_correlation", "load_correlation_table"),
    "field": ("CovariancePack", "sensor_positions", "covariance_matrix",
              "sample_snapshots"),
    "estimation": ("mmse_estimate",),
    "rates": ("Spectrum", "spectrum", "RateReport", "WaterfillSolution",
              "target_distortion_dsc", "reverse_distortion_bound", "find_pmax",
              "dsc_operating_point", "dsc_sum_rate", "centralized_rate",
              "find_theta", "rate_loss_bound", "rate_curve"),
    "quantizer": ("ScalarQuantizer", "lloyd_max", "quantize",
                  "p2p_rate_for_K", "optimize_K", "tdma_schedule", "scalar_delta"),
    "sim": ("SimulationReport", "simulate_dsc", "simulate_p2p"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
