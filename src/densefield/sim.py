"""Seeded Monte Carlo verification of the two coding schemes.

The integrated squared reconstruction error over [0, 1] is estimated with a
hybrid quadrature: conditioning on the sample a grid point is reconstructed
from, the conditional variance 1 - rho^2(s - n(s)) enters analytically and
only the sensor-located error is simulated.  This removes the variance of the
off-sensor field draw; a full "naive" simulation that draws the field at every
quadrature node is available behind a flag as a slower oracle for small N.
Reductions use fixed-order numpy sums, so a seed pins the report bit-for-bit.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .estimation import TestChannel, mmse_estimate
from .field import (CovariancePack, covariance_matrix, nearest_sample_index,
                    sample_snapshots, sensor_positions, spectrum)
from .quantizer import quantize, tdma_schedule
from .rates import jmse_lower_bound, jmse_upper_bound

DSC_SCHEME = "dsc-test-channel"
P2P_SCHEME = "p2p-lloyd"

WITHIN = "within"
VIOLATED_LOW = "violated-low"
VIOLATED_HIGH = "violated-high"

# statistical margin on bound checks, in standard errors of the mean
SIGMA_MARGIN = 3.0


@dataclass(frozen=True)
class SimulationReport:
    scheme: str
    j_mse: float
    j_prime_mse: float
    per_sensor_mse: np.ndarray
    n_snapshots: int
    grid_points_per_gap: int
    seed: int
    bound_low: float
    bound_high: float
    verdict: str
    stderr_jmse: float
    stderr_jprime: float


def _quadrature_nodes(n_sensors, grid_g):
    """Midpoint-rule nodes: grid_g per inter-sensor gap, uniform on [0, 1]."""
    if grid_g < 2:
        raise ValueError("need at least two quadrature points per gap")
    total = n_sensors * grid_g
    return (np.arange(total) + 0.5) / total


def interpolation_only_jmse(model, n_sensors, grid_g=512):
    """Integrated MSE of the scheme with perfect sensor samples.

    Quadrature of the conditional variance 1 - rho^2(s - n(s)); the error
    floor any reconstruction based on nearest-sample interpolation carries.
    """
    return _dsc_weights(model, sensor_positions(n_sensors), grid_g)[0]


def _dsc_weights(model, grid, grid_g):
    """Per-snapshot J = a0 + sum_k w_k e_k^2 for the nearest-sample scheme."""
    n = grid.n_sensors
    nodes = _quadrature_nodes(n, grid_g)
    idx = nearest_sample_index(nodes, n)
    r2 = model(nodes - grid.positions[idx]) ** 2
    w = 1.0 / nodes.size
    a0 = float(np.sum(1.0 - r2) * w)
    cell_w = (r2 * w).reshape(n, grid_g).sum(axis=1)
    return a0, cell_w, nodes, idx, np.sqrt(r2)


def _report(scheme, j_snap, err2, per_sensor, grid_g, seed, bounds):
    """Means, standard errors and verdict of per-snapshot field errors
    ``j_snap`` and squared sensor errors ``err2`` (one row per snapshot);
    ``bounds(j')`` is the (low, high) pair the field MSE is checked against."""
    m = j_snap.size
    jprime_snap = err2.mean(axis=1)
    j_mse = float(j_snap.mean())
    jprime = float(jprime_snap.mean())
    stderr_j = float(j_snap.std(ddof=1) / np.sqrt(m)) if m > 1 else float("inf")
    stderr_jp = float(jprime_snap.std(ddof=1) / np.sqrt(m)) if m > 1 else float("inf")
    low, high = bounds(jprime)
    margin = SIGMA_MARGIN * stderr_j
    verdict = (VIOLATED_LOW if j_mse < low - margin
               else VIOLATED_HIGH if j_mse > high + margin else WITHIN)
    return SimulationReport(
        scheme=scheme, j_mse=j_mse, j_prime_mse=jprime,
        per_sensor_mse=per_sensor, n_snapshots=int(m),
        grid_points_per_gap=int(grid_g), seed=int(seed), bound_low=low,
        bound_high=high, verdict=verdict, stderr_jmse=stderr_j,
        stderr_jprime=stderr_jp)


def simulate_dsc(model, n_sensors, p, m=20_000, grid_g=8, seed=0, naive=False):
    """Monte Carlo run of the distributed scheme's test-channel surrogate.

    Per snapshot: draw the sensor vector X, observe U = X + Z with
    Z ~ N(0, pI), estimate X from U with the optimal linear filter,
    reconstruct the field by nearest-sample interpolation and integrate the
    squared error.  The report carries the empirical field MSE, the empirical
    sensor-sample MSE, and a verdict against the distortion sandwich evaluated
    at the empirical sensor-sample MSE.
    """
    if p <= 0:
        raise ValueError("test-channel noise must be positive")
    if m < 1:
        raise ValueError("need at least one snapshot")
    grid = sensor_positions(n_sensors)
    a0, cell_w, nodes, node_idx, rho_nodes = _dsc_weights(model, grid, grid_g)

    field_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    cov = covariance_matrix(model, grid)
    if naive:
        joint_pos = np.concatenate([grid.positions, nodes])
        joint_cov = CovariancePack.from_matrix(
            model(np.abs(joint_pos[:, None] - joint_pos[None, :])))
        joint = sample_snapshots(joint_cov, m, field_ss).data
        x = joint[:, :n_sensors]
        x_nodes = joint[:, n_sensors:]
    else:
        x = sample_snapshots(cov, m, field_ss).data

    noise = np.random.Generator(np.random.Philox(noise_ss))
    u = x + np.sqrt(p) * noise.standard_normal(x.shape)
    x_hat = mmse_estimate(TestChannel(p=p, cov=cov), u)

    err2 = (x - x_hat) ** 2
    if naive:
        recon_nodes = rho_nodes * x_hat[:, node_idx]
        j_snap = ((x_nodes - recon_nodes) ** 2).mean(axis=1)
    else:
        j_snap = a0 + err2 @ cell_w
    return _report(DSC_SCHEME, j_snap, err2, err2.mean(axis=0), grid_g, seed,
                   lambda jp: (float(jmse_lower_bound(model, n_sensors, jp)),
                               float(jmse_upper_bound(model, n_sensors, jp))))


def _p2p_weights(model, n_sensors, k_intervals, grid_g):
    """Per-phase constants: J_i = a0[phase] + c[phase] * sum_l e_l^2.

    Within a frame of N/K steps the active sensor's offset inside its
    sub-interval cycles through (2j-1)/(2N); by translation symmetry the
    quadrature weights are identical for every sub-interval.
    """
    frame = n_sensors // k_intervals
    per_sub = frame * grid_g
    local = (np.arange(per_sub) + 0.5) / (n_sensors * grid_g)
    a0 = np.empty(frame)
    c = np.empty(frame)
    for j0 in range(frame):
        off = (2 * j0 + 1) / (2 * n_sensors)
        r2 = model(local - off) ** 2
        a0[j0] = float(np.mean(1.0 - r2))
        c[j0] = float(np.sum(r2) / (n_sensors * grid_g))
    return a0, c


def simulate_p2p(model, n_sensors, k_intervals, quantizer=None, m_prime=2000,
                 grid_g=8, seed=0):
    """Monte Carlo run of the TDMA point-to-point scheme.

    Each step activates one sensor per sub-interval following the round-robin
    schedule; active samples pass through the scalar quantizer
    (``quantizer=None`` models the infinite-codebook surrogate that reproduces
    samples exactly) and the field is reconstructed from the active sensor of
    each sub-interval.  The verdict checks the empirical field MSE against the
    additive bound (1 - rho^2(1/K)) + empirical quantizer distortion.

    Step i activates sensor ``i % (N/K) + (N/K) l`` (0-based) of sub-interval
    l.  Those K sensors sit 1/K apart whatever the phase, so a step's data is
    one draw of the field at the K-sensor grid: only m x K samples are drawn.
    """
    schedule = tdma_schedule(n_sensors, k_intervals, m_prime)
    frame = n_sensors // k_intervals
    a0, c = _p2p_weights(model, n_sensors, k_intervals, grid_g)

    # refuses a kernel that is not PSD at the N sensors
    spectrum(model, n_sensors)
    field_ss, _ = np.random.SeedSequence(seed).spawn(2)
    cov = covariance_matrix(model, sensor_positions(k_intervals))
    active = sample_snapshots(cov, schedule.n_steps, field_ss).data
    if quantizer is None:
        err2 = np.zeros_like(active)
    else:
        _, rep = quantize(quantizer, active)
        err2 = (active - rep) ** 2

    j_snap = np.tile(a0, m_prime) + np.tile(c, m_prime) * err2.sum(axis=1)
    per_sensor = err2.reshape(m_prime, frame, k_intervals).mean(axis=0).T.ravel()
    interp = 1.0 - model(1.0 / k_intervals) ** 2
    return _report(P2P_SCHEME, j_snap, err2, per_sensor, grid_g, seed,
                   lambda jp: (0.0, float(interp + jp)))


def report_to_dict(report):
    """Plain-Python form of a report, the body of its JSON form."""
    return {
        "scheme": report.scheme,
        "j_mse": report.j_mse,
        "j_prime_mse": report.j_prime_mse,
        "per_sensor_mse": [float(v) for v in report.per_sensor_mse],
        "n_snapshots": report.n_snapshots,
        "grid_points_per_gap": report.grid_points_per_gap,
        "seed": report.seed,
        "bound_low": report.bound_low,
        "bound_high": report.bound_high,
        "verdict": report.verdict,
        "stderr_jmse": report.stderr_jmse,
        "stderr_jprime": report.stderr_jprime,
    }


def report_to_json(report, config=None):
    """Stable JSON form of a report; optionally embeds the resolved config."""
    obj = report_to_dict(report)
    if config is not None:
        obj["config"] = config
    return json.dumps(obj, indent=2, sort_keys=True)


_CSV_LOG_COLUMNS = ("scheme", "n_snapshots", "grid_points_per_gap", "seed",
                    "j_mse", "j_prime_mse", "bound_low", "bound_high",
                    "stderr_jmse", "stderr_jprime", "verdict")


def append_report_csv(report, path):
    """Append a one-line summary of the report to a CSV log (header if new)."""
    new = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(",".join(_CSV_LOG_COLUMNS) + "\n")
        row = [report.scheme, str(report.n_snapshots),
               str(report.grid_points_per_gap), str(report.seed),
               repr(report.j_mse), repr(report.j_prime_mse),
               repr(report.bound_low), repr(report.bound_high),
               repr(report.stderr_jmse), repr(report.stderr_jprime),
               report.verdict]
        fh.write(",".join(row) + "\n")
