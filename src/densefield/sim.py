"""Seeded Monte Carlo verification of the two coding schemes.

The integrated squared reconstruction error over [0, 1] is estimated with a
hybrid quadrature: conditioning on the sample a grid point is reconstructed
from, the conditional variance 1 - rho^2(s - n(s)) enters analytically and
only the sensor-located error is simulated.  This removes the variance of the
off-sensor field draw; a full "naive" simulation that draws the field at every
quadrature node is available behind a flag as a slower oracle for small N.
Reductions use fixed-order numpy sums, so a seed pins the report bit-for-bit.
Both simulators run in blocks: ``simulate_dsc`` of a fixed number of
snapshot rows, each drawn and estimated in the covariance's eigenbasis and
rotated back once, ``simulate_p2p`` of whole frames (the N/K steps that
visit every sensor once).  A row's J and J' are summed within the row, the
per-sensor error is summed row by row across blocks, and the means and
standard errors are taken over the stored per-snapshot vectors, so no
reduction depends on the block size; only BLAS may round a row of a matrix
product differently with the block height.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfeasibleConfigError
from .field import (DENSE_BUDGET_BYTES, CovariancePack, _generator,
                    check_dense_size, covariance_matrix, nearest_sample_index,
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

# snapshot rows per block: a block array is 0.5 MB at N = 1024, so the few
# alive at once stay under the pack's 4 MB of eigenvector blocks;
# simulate_p2p rounds it down to whole frames, at least two
_BLOCK_ROWS = 64


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


def _dsc_weights(model, positions, grid_g, n_cells=None):
    """Per-snapshot J = a0 + sum_k w_k e_k^2 for the nearest-sample scheme.

    Midpoint rule on [0, 1] split into ``n_cells`` equal cells (default: one
    per sample) of grid_g nodes each; a node in cell k is reconstructed from
    the sample at ``positions[k]``.  Only the first ``positions.size`` cells
    are built, so a0 and w_k are those cells' share of the integral.
    """
    n = positions.size
    n_cells = n if n_cells is None else n_cells
    nodes = (np.arange(n * grid_g) + 0.5) / (n_cells * grid_g)
    idx = nearest_sample_index(nodes, n_cells)
    r2 = model(nodes - positions[idx]) ** 2
    w = 1.0 / (n_cells * grid_g)
    a0 = float(np.sum(1.0 - r2) * w)
    cell_w = (r2 * w).reshape(n, grid_g).sum(axis=1)
    return a0, cell_w, nodes, idx, np.sqrt(r2)


def _check_inputs(n_sensors, n_snapshots, grid_g):
    """Refuse a run whose report would be undefined, or whose N grid_g
    quadrature nodes would not fit the dense budget, before allocating."""
    if grid_g < 2:
        raise ValueError("need at least two quadrature points per gap")
    if 8 * n_sensors * grid_g > DENSE_BUDGET_BYTES:
        raise InfeasibleConfigError(
            f"N = {n_sensors} with grid_g = {grid_g} needs "
            f"{8 * n_sensors * grid_g / 2**30:.1f} GiB of float64 quadrature "
            f"nodes, over the dense budget of {DENSE_BUDGET_BYTES >> 20} MiB")
    if n_snapshots < 2:
        raise InfeasibleConfigError(
            f"{n_snapshots} snapshot(s) give no standard error: need at least two")


def _report(scheme, j_snap, jprime_snap, per_sensor, grid_g, seed, bounds):
    """Means, standard errors and verdict of the per-snapshot field errors
    ``j_snap`` and sensor-sample MSEs ``jprime_snap``; ``bounds(j')`` is the
    (low, high) pair the field MSE is checked against."""
    m = j_snap.size
    j_mse = float(j_snap.mean())
    jprime = float(jprime_snap.mean())
    stderr_j = float(j_snap.std(ddof=1) / np.sqrt(m))
    stderr_jp = float(jprime_snap.std(ddof=1) / np.sqrt(m))
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


def _blocks(m, rows):
    """[lo, hi) ranges of ``rows`` rows (at least two) that cover range(m).

    No block is a single row unless m is 1: a one-row matrix product takes
    the BLAS matrix-vector path, which rounds differently, so a lone last row
    joins the block before it.
    """
    starts = list(range(0, max(m - 1, 1), max(rows, 2)))
    return zip(starts, starts[1:] + [m])


def simulate_dsc(model, n_sensors, p, m=20_000, grid_g=8, seed=0, naive=False):
    """Monte Carlo run of the distributed scheme's test-channel surrogate.

    Per snapshot: draw the sensor vector X, observe U = X + Z with
    Z ~ N(0, pI), estimate X from U with the optimal linear filter,
    reconstruct the field by nearest-sample interpolation and integrate the
    squared error.  The report carries the empirical field MSE, the empirical
    sensor-sample MSE, and a verdict against the distortion sandwich evaluated
    at the empirical sensor-sample MSE.

    Draws and estimate are made in the eigenbasis x' = x V, where X has
    independent N(0, lambda_k) modes, white noise stays white and the
    estimate scales mode k by lambda_k/(lambda_k+p).  A block of rows at a
    time is drawn from field and noise generators kept across blocks, its
    estimation error formed mode by mode, rotated back once by
    ``CovariancePack.to_sensors`` (two half-size products) and scored, so
    memory is O(rows N + N^2) whatever m; only the per-snapshot J and J' are
    kept.
    """
    if p <= 0:
        raise ValueError("test-channel noise must be positive")
    _check_inputs(n_sensors, m, grid_g)
    grid = sensor_positions(n_sensors)
    cov = covariance_matrix(model, grid)
    a0, cell_w, nodes, node_idx, rho_nodes = _dsc_weights(model, grid.positions,
                                                          grid_g)
    if naive:
        joint_pos = np.concatenate([grid.positions, nodes])
        check_dense_size(joint_pos.size, "N (1 + grid_g)")
        law = CovariancePack.from_matrix(
            model(np.abs(joint_pos[:, None] - joint_pos[None, :])))
    gain = cov.eigvals / (cov.eigvals + p)
    # the estimate's error in the eigenbasis, e' = x'(1 - gain) - sqrt(p) gain z
    keep = (1.0 - gain) if naive else np.sqrt(cov.eigvals) * (1.0 - gain)
    noise_gain = np.sqrt(p) * gain

    field_rng, noise_rng = map(_generator, np.random.SeedSequence(seed).spawn(2))
    j_snap, jprime_snap = np.empty(m), np.empty(m)
    err_sum = np.zeros(n_sensors)
    blocks = list(_blocks(m, _BLOCK_ROWS))
    # the draws go into two buffers kept across blocks and the error is
    # squared in place: block arrays freed and made again every block let
    # glibc trim the heap and fault its pages back in (about 100,000 minor
    # faults and 0.2 s of system time for exp at N = 1024, m = 20,000)
    draw_buf, noise_buf = np.empty((2, max(hi - lo for lo, hi in blocks),
                                    n_sensors))
    for lo, hi in blocks:
        rows = hi - lo
        if naive:
            draw = sample_snapshots(law, rows, field_rng).data
            err_eig = draw[:, :n_sensors] @ cov.eigvecs
        else:
            # the Gaussians sample_snapshots(cov, ...) draws, not yet rotated
            err_eig = field_rng.standard_normal(out=draw_buf[:rows])
        err_eig *= keep
        noise = noise_rng.standard_normal(out=noise_buf[:rows])
        noise *= noise_gain
        err_eig -= noise
        err = cov.to_sensors(err_eig)
        if naive:
            x_hat = draw[:, :n_sensors] - err
            recon_nodes = rho_nodes * x_hat[:, node_idx]
            j_snap[lo:hi] = ((draw[:, n_sensors:] - recon_nodes) ** 2).mean(axis=1)
        err2 = np.square(err, out=err)
        if not naive:
            # a row sum (BLAS's err2 @ cell_w rounds a row by its
            # neighbours), its products written over the spent noise
            j_snap[lo:hi] = a0 + np.multiply(err2, cell_w, out=noise).sum(axis=1)
        jprime_snap[lo:hi] = err2.mean(axis=1)
        # row by row: numpy sums down a single column pairwise, so a
        # column sum would round by the block size
        for row in err2:
            err_sum += row
    return _report(DSC_SCHEME, j_snap, jprime_snap, err_sum / m, grid_g, seed,
                   lambda jp: (float(jmse_lower_bound(model, n_sensors, jp)),
                               float(jmse_upper_bound(model, n_sensors, jp))))


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
    Phase j's sensors form the K-sensor grid shifted to
    ``((N/K) l + j + 1/2) / N``, whose cells are the sub-intervals, so its
    quadrature is the distributed scheme's with (N/K) grid_g nodes per cell.
    By translation symmetry its K cells are equal, so only the first is built.
    Steps are drawn, quantized and scored a block of whole frames at a time
    from one generator kept across blocks, so only the per-step J and J' grow
    with m'.
    """
    schedule = tdma_schedule(n_sensors, k_intervals, m_prime)
    _check_inputs(n_sensors, schedule.n_steps, grid_g)
    frame = n_sensors // k_intervals
    cells = [_dsc_weights(model, np.array([(j + 0.5) / n_sensors]),
                          frame * grid_g, n_cells=k_intervals)[:2]
             for j in range(frame)]
    a0 = k_intervals * np.array([a for a, _ in cells])
    c = np.array([w[0] for _, w in cells])

    # refuses a kernel that is not PSD at the N sensors
    spectrum(model, n_sensors)
    field_rng = _generator(np.random.SeedSequence(seed).spawn(2)[0])
    cov = covariance_matrix(model, sensor_positions(k_intervals))
    j_snap, jprime_snap = np.empty(schedule.n_steps), np.empty(schedule.n_steps)
    err_sum = np.zeros((frame, k_intervals))
    for lo, hi in _blocks(m_prime, _BLOCK_ROWS // frame):
        active = sample_snapshots(cov, (hi - lo) * frame, field_rng).data
        if quantizer is None:
            err2 = np.zeros_like(active)
        else:
            _, rep = quantize(quantizer, active)
            err2 = (active - rep) ** 2
        by_phase = err2.reshape(hi - lo, frame, k_intervals)
        j_snap[lo * frame:hi * frame] = (a0 + c * by_phase.sum(axis=2)).ravel()
        jprime_snap[lo * frame:hi * frame] = err2.mean(axis=1)
        for frame_err in by_phase:
            err_sum += frame_err
    per_sensor = (err_sum / m_prime).T.ravel()
    interp = 1.0 - model(1.0 / k_intervals) ** 2
    return _report(P2P_SCHEME, j_snap, jprime_snap, per_sensor, grid_g, seed,
                   lambda jp: (0.0, float(interp + jp)))


def report_to_dict(report):
    """Plain-Python form of a report, the body of its JSON form."""
    obj = asdict(report)
    obj["per_sensor_mse"] = report.per_sensor_mse.tolist()
    return obj


_CSV_LOG_COLUMNS = ("scheme", "n_snapshots", "grid_points_per_gap", "seed",
                    "j_mse", "j_prime_mse", "bound_low", "bound_high",
                    "stderr_jmse", "stderr_jprime", "verdict")


def append_report_csv(report, path):
    """Append a one-line summary of the report to a CSV log (header if new)."""
    new = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(",".join(_CSV_LOG_COLUMNS) + "\n")
        # str of a float is its shortest round-trip form, as repr
        fh.write(",".join(str(getattr(report, c)) for c in _CSV_LOG_COLUMNS) + "\n")
