"""Rates, distortion targets and quantizer designs for dense sensor sampling
of a 1-D stationary Gaussian field, verified by seeded Monte Carlo runs."""

import os

# Set before numpy loads, since OpenBLAS reads it only then: an idle worker
# sleeps after 2^20 cycles (~0.4 ms), not 2^28 (~0.1 s of spinning after load
# and after every BLAS call).  `import numpy` CPU 0.266 -> 0.164 s for 0.164 s
# wall (median of 15, 2 vCPUs); thread count and outputs are unchanged.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .errors import ConditioningError, ConvergenceError, InfeasibleConfigError
from .estimation import MmseResult, TestChannel, mmse_error, mmse_estimate
from .field import (CorrelationModel, CovariancePack, FieldSnapshots, SensorGrid,
                    Spectrum, covariance_matrix, load_correlation_table,
                    make_correlation, sample_snapshots, sensor_positions, spectrum)
from .quantizer import (ScalarQuantizer, TdmaSchedule, lloyd_max, optimize_K,
                        p2p_rate_for_K, quantize, scalar_delta, tdma_schedule)
from .rates import (RateReport, WaterfillSolution, centralized_rate,
                    dsc_operating_point, dsc_sum_rate, find_pmax, find_theta,
                    rate_curve, rate_loss_bound,
                    reverse_distortion_bound, target_distortion_dsc)
from .sim import SimulationReport, simulate_dsc, simulate_p2p

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "ConvergenceError", "InfeasibleConfigError",
    "CorrelationModel", "CovariancePack", "FieldSnapshots", "SensorGrid", "Spectrum",
    "MmseResult", "TestChannel", "RateReport", "WaterfillSolution",
    "ScalarQuantizer", "TdmaSchedule", "SimulationReport",
    "make_correlation", "load_correlation_table", "sensor_positions",
    "covariance_matrix", "spectrum", "sample_snapshots", "mmse_estimate",
    "mmse_error", "target_distortion_dsc", "reverse_distortion_bound", "find_pmax",
    "dsc_operating_point", "dsc_sum_rate", "centralized_rate", "find_theta",
    "rate_loss_bound", "rate_curve", "lloyd_max", "quantize",
    "p2p_rate_for_K", "optimize_K", "tdma_schedule", "scalar_delta",
    "simulate_dsc", "simulate_p2p",
]
