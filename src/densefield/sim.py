"""Seeded Monte Carlo verification of the two coding schemes.

The integrated squared reconstruction error over [0, 1] is estimated with a
hybrid quadrature: conditioning on the sample a grid point is reconstructed
from, the conditional variance 1 - rho^2(s - n(s)) enters analytically and
only the sensor-located error is simulated.  This removes the variance of the
off-sensor field draw; a full "naive" simulation that draws the field at every
quadrature node is available behind a flag as a slower oracle for small N.
Both simulators score a sample error e as a0 + c e^2 through one quadrature
cell.  ``simulate_dsc`` draws e by one precision recurrence for every kernel,
in fixed chunks of snapshots on worker threads, one spawned stream per chunk;
``naive`` and ``simulate_p2p`` run in blocks of rows, and ``simulate_p2p``
draws exp-markov's K-sensor grid by the recurrence of its own precision, so
only ``naive`` decomposes or multiplies a matrix for exp-markov.  Every reduction runs
in an order that neither the block size nor the thread schedule changes, so
a seed pins the report bit-for-bit; only BLAS may round a row of a matrix
product differently with the block height.  Every array that grows with the
input is checked by ``field.check_dense_size`` before it is built.  A report
is a plain namedtuple; the CLI writes its JSON body and its CSV log row.
"""

import math
import os
import threading
from collections import namedtuple

import numpy as np

from .correlation import EXP_MARKOV, _interp_r2
from .errors import InfeasibleConfigError
from .field import (CovariancePack, _generator, check_dense_size,
                    covariance_matrix, sample_snapshots, sensor_positions)
from .rates import _kms_constants, jmse_lower_bound, jmse_upper_bound, spectrum

DSC_SCHEME = "dsc-test-channel"
P2P_SCHEME = "p2p-lloyd"

WITHIN = "within"
VIOLATED_LOW = "violated-low"
VIOLATED_HIGH = "violated-high"

# statistical margin on bound checks, in standard errors of the mean
SIGMA_MARGIN = 3.0

# snapshot rows per block of simulate_dsc's naive path: its joint draw is
# N (1 + grid_g) <= 8192 columns wide, so a block array (4 MiB at most)
# stays far under the joint law's N (1 + grid_g) square eigenvectors
_BLOCK_ROWS = 64
# snapshots per chunk of simulate_dsc's recurrence (every kernel); a run of
# at most this many is one stream.  exp-markov, N = 1024, m = 20,000, in
# process on 2 vCPUs: one stream 0.34-0.41 s, two chunks 0.22-0.26 s
# (chunks of 2,500 pay more CPU: 0.51-0.54 s against 0.39-0.43 s)
_CHUNK = 10_000
# whole frames per simulate_p2p block.  exp, K = 24, m' = 2000, median time
# at N = 480 / tracemalloc peak at N = 4,800 (2 vCPUs): 3 frames 0.095 s /
# 10.0 MB, 16 0.071 s / 12.2 MB, 64 0.068 s / 23.7 MB (over its 19.2 MB bound)
_P2P_BLOCK_FRAMES = 16


class SimulationReport(namedtuple("SimulationReport", (
        "scheme j_mse j_prime_mse per_sensor_mse n_snapshots grid_points_per_gap "
        "seed bound_low bound_high verdict stderr_jmse stderr_jprime"))):
    __slots__ = ()


def _cell_quadrature(model, position, n_cells, grid_g):
    """(a0, c): the first of ``n_cells`` equal cells of [0, 1], by the
    midpoint rule on grid_g nodes reconstructed from the sample at
    ``position`` with error e, adds a0 + c e^2 to the integrated squared
    error, and so does each translate of it."""
    check_dense_size(grid_g, f"a quadrature cell of {grid_g} nodes")
    nodes = (np.arange(grid_g) + 0.5) / (n_cells * grid_g)
    r2 = model(nodes - position) ** 2
    w = 1.0 / (n_cells * grid_g)
    return float(np.sum(1.0 - r2) * w), float(np.sum(r2 * w))


def _check_inputs(n_snapshots, grid_g):
    """Refuse a run whose report would be undefined, or whose per-snapshot
    sums would not fit the dense budget, before allocating."""
    if grid_g < 2:
        raise ValueError("need at least two quadrature points per gap")
    if n_snapshots < 2:
        raise InfeasibleConfigError(
            f"{n_snapshots} snapshot(s) give no standard error: need at least two")
    check_dense_size(n_snapshots, f"the sums of {n_snapshots} snapshots")


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


def _usable_cpus():
    """CPUs this process may run on; ``os.cpu_count()`` where the affinity
    mask cannot be read (macOS, Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(work, n_chunks):
    """Call work(c) for c in range(n_chunks), chunk c on worker c mod W of
    W = min(n_chunks, usable CPUs) workers, worker 0 the calling thread.

    work(c) writes only chunk c's outputs, so nothing computed depends on W
    or on the scheduling.  Once a worker raises, no worker takes a new chunk,
    and the exception is raised here after every worker has stopped.
    """
    workers = min(n_chunks, _usable_cpus())
    errors = []

    def run(w):
        try:
            for c in range(w, n_chunks, workers):
                if errors:
                    return
                work(c)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _markov_factor(n, p):
    """(u, w), lists of N floats, of U for the exp-markov test channel's MMSE
    error, whose precision Q = Sigma^-1 + I/p is tridiagonal (the N samples
    form an AR(1) chain; Rue and Held 2005): Q = U U^T, U upper bidiagonal
    with diagonal u and w[i] = U[i-1, i], factored from the last sensor up.
    The inverse of a^|i-j| has (1+a^2)/(1-a^2) inside, 1/(1-a^2) at both
    corners and -a/(1-a^2) off the diagonal, with a and 1-a^2 from
    ``rates._kms_constants``; one sensor's covariance is [1], and so is its
    inverse.  p = inf gives the factor of the field's own precision
    Sigma^-1, from which U^-T g draws the field at the N sensors."""
    if n == 1:
        return [math.sqrt(1.0 + 1.0 / p)], [0.0]
    a, _, c2 = _kms_constants(n)
    corner, inner, off = 1.0 / c2 + 1.0 / p, (1.0 + a * a) / c2 + 1.0 / p, -a / c2
    u, w = [0.0] * n, [0.0] * n
    u[-1] = math.sqrt(corner)
    for i in range(n - 2, -1, -1):
        w[i + 1] = off / u[i + 1]
        u[i] = math.sqrt((inner if i else corner) - w[i + 1] ** 2)
    return u, w


def _markov_snapshots(u, w, rows, rng):
    """A fresh (rows, N) array of x = U^-T g, U upper bidiagonal with
    diagonal u and w[i] = U[i-1, i], for (rows, N) standard normals g drawn
    row-major from the Generator ``rng``: the recurrence
    x_i = (g_i - w_i x_(i-1)) / u_i of ``_error_sums``, one sensor column at
    a time."""
    x = rng.standard_normal((rows, len(u)))
    x[:, 0] /= u[0]
    for i in range(1, len(u)):
        x[:, i] -= w[i] * x[:, i - 1]
        x[:, i] /= u[i]
    return x


def _error_sums(u, w, m, field_ss):
    """Per-snapshot sums and per-coordinate means of e_i^2 over m draws of
    e = U^-T g, U upper bidiagonal with diagonal u and w[i] = U[i-1, i]:
    the recurrence e_i = (g_i - w_i e_(i-1)) / u_i.  The snapshots run in
    chunks of ``_CHUNK`` (the last may be short) on worker threads, each
    drawing coordinate-major into a chunk-long vector from its own stream:
    chunk 0 from the field child ``field_ss``, chunk c >= 1 from its (c-1)-th
    spawned child.  A chunk adds e_i^2 into its own slice of the row sum and
    keeps its own per-coordinate sums, added in chunk order.  Memory is O(m)
    plus N floats per chunk.
    """
    n = len(u)
    chunk = _CHUNK
    starts = range(0, m, chunk)
    streams = [field_ss] + field_ss.spawn(len(starts) - 1)
    row_sum, chunk_sums = np.zeros(m), np.empty((len(starts), n))

    def draw(c):
        rng = _generator(streams[c])
        rows = row_sum[starts[c]:starts[c] + chunk]
        g, e = np.empty(rows.size), np.zeros(rows.size)
        for i in range(n):
            rng.standard_normal(out=g)
            e *= -w[i]
            e += g
            e /= u[i]
            e2 = np.square(e, out=g)
            rows += e2
            chunk_sums[c, i] = e2.sum()

    _run_chunks(draw, len(starts))
    err_sum = np.zeros(n)
    for sums in chunk_sums:
        err_sum += sums
    return row_sum, err_sum / m


def simulate_dsc(model, n_sensors, p, m=20_000, grid_g=8, seed=0, naive=False):
    """Monte Carlo run of the distributed scheme's test-channel surrogate.

    Per snapshot: draw the sensor vector X, observe U = X + Z with
    Z ~ N(0, pI), estimate X from U with the optimal linear filter,
    reconstruct the field by nearest-sample interpolation and integrate the
    squared error.  The report carries the empirical field MSE, the empirical
    sensor-sample MSE, and a verdict against the distortion sandwich evaluated
    at the empirical sensor-sample MSE.

    The fast path draws only the estimate's error e, whose precision is
    Q = Sigma^-1 + I/p, as e = U^-T g for Q = U U^T (``_error_sums``).  For
    exp-markov Q is tridiagonal in the sensors (``_markov_factor``); for any
    other kernel it is diagonal in the eigenbasis, 1/lambda_k + 1/p, and the
    per-sensor MSE is (V o V) s for the per-mode means s
    (``CovariancePack.sensor_variances``).  V leaves each row sum
    S = sum_i e_i^2 unchanged, and S scores J = N a0 + c S and J' = S/N.
    This hybrid J leaves out the cross term of the sample error with the
    off-sensor field (twice it is -13% of J for exp at N = 64 at the design
    point, -1.2% at N = 512, under 3e-4 for sinc); only ``naive``, which
    draws the field at every node and the noise from a second generator in
    blocks of rows, measures the scheme's own J.
    """
    if p <= 0:
        raise ValueError("test-channel noise must be positive")
    # the verdict's charge at lag 1/(2N), refused past the radius before any draw
    _interp_r2(model, 1.0 / (2 * n_sensors))
    _check_inputs(m, grid_g)
    field_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)

    def bounds(jp):
        return (jmse_lower_bound(model, n_sensors, jp),
                jmse_upper_bound(model, n_sensors, jp))

    if not naive:
        check_dense_size(-(-m // _CHUNK) * n_sensors,
                         f"the per-chunk sums of N = {n_sensors} sensors")
        a0, c = _cell_quadrature(model, sensor_positions(n_sensors)[0],
                                 n_sensors, grid_g)
        if model.kind == EXP_MARKOV:
            row_sum, per_sensor = _error_sums(*_markov_factor(n_sensors, p),
                                              m, field_ss)
        else:
            cov = covariance_matrix(model, n_sensors)
            row_sum, per_mode = _error_sums(
                np.sqrt(1.0 / cov.eigvals + 1.0 / p), np.zeros(n_sensors), m,
                field_ss)
            per_sensor = cov.sensor_variances(per_mode)
        return _report(DSC_SCHEME, n_sensors * a0 + c * row_sum,
                       row_sum / n_sensors, per_sensor, grid_g, seed, bounds)

    joint = n_sensors * (1 + grid_g)
    check_dense_size(joint**2, f"the joint law of N (1 + grid_g) = {joint} points")
    positions = sensor_positions(n_sensors)
    field_rng, noise_rng = _generator(field_ss), _generator(noise_ss)
    cov = covariance_matrix(model, n_sensors)
    nodes = (np.arange(n_sensors * grid_g) + 0.5) / (n_sensors * grid_g)
    # floor(N s) for s = (i + 1/2)/(N g): (i + 1/2)/g is never near an integer
    node_idx = np.arange(n_sensors * grid_g) // grid_g
    rho_nodes = model(nodes - positions[node_idx])
    joint_pos = np.concatenate([positions, nodes])
    law = CovariancePack.from_matrix(
        model(np.abs(joint_pos[:, None] - joint_pos[None, :])))
    gain = cov.eigvals / (cov.eigvals + p)
    j_snap, jprime_snap = np.empty(m), np.empty(m)
    err_sum = np.zeros(n_sensors)
    for lo, hi in _blocks(m, _BLOCK_ROWS):
        rows = hi - lo
        draw = sample_snapshots(law, rows, field_rng)
        # the estimate's error, e' = x'(1 - gain) - sqrt(p) gain z'
        err_eig = draw[:, :n_sensors] @ cov.eigvecs
        err_eig *= 1.0 - gain
        err_eig -= np.sqrt(p) * gain * noise_rng.standard_normal((rows, n_sensors))
        err = cov.to_sensors(err_eig)
        recon_nodes = rho_nodes * (draw[:, :n_sensors] - err)[:, node_idx]
        j_snap[lo:hi] = ((draw[:, n_sensors:] - recon_nodes) ** 2).mean(axis=1)
        err2 = np.square(err)
        jprime_snap[lo:hi] = err2.sum(axis=1) / n_sensors
        # row by row: numpy sums down a single column pairwise, so a
        # column sum would round by the block size
        for row in err2:
            err_sum += row
    return _report(DSC_SCHEME, j_snap, jprime_snap, err_sum / m, grid_g, seed,
                   bounds)


def simulate_p2p(model, n_sensors, k_intervals, quantizer=None, m_prime=2000,
                 grid_g=8, seed=0):
    """Monte Carlo run of the TDMA point-to-point scheme.

    Each step activates one sensor per sub-interval following the round-robin
    schedule; active samples pass through the scalar quantizer
    (``quantizer=None`` models the infinite-codebook surrogate that reproduces
    samples exactly) and the field is reconstructed from the active sensor of
    each sub-interval.  The verdict checks the empirical field MSE against the
    additive bound (1 - rho_+^2(1/K)) + empirical quantizer distortion, whose
    charge ``correlation._interp_r2`` refuses past the radius before any draw.

    Step i activates sensor ``i % (N/K) + (N/K) l`` (0-based) of sub-interval
    l.  Those K sensors sit 1/K apart whatever the phase, so a step's data is
    one draw of the field at the K-sensor grid: only m x K samples are drawn.
    Phase j's sensors form the K-sensor grid shifted to
    ``((N/K) l + j + 1/2) / N``, whose cells are the sub-intervals, so its
    quadrature is the distributed scheme's with (N/K) grid_g nodes per cell.
    By translation symmetry its K cells are equal, so only the first is built.
    Steps are drawn, quantized and scored a block of whole frames at a time
    from one generator kept across blocks, so only the per-step J and J' grow
    with m'; the largest block, (N/K) K = N floats per frame, is checked
    against the size rule first.  exp-markov draws a block's rows by the
    recurrence of the K-grid's tridiagonal precision (``_markov_factor`` at
    p = inf, ``_markov_snapshots``), so it forms, decomposes and multiplies
    no K x K matrix; any other kernel samples the K-grid's
    ``covariance_matrix`` pack.  Both take the block's Gaussians row-major
    from the same generator.
    """
    from .quantizer import quantize, tdma_schedule
    n_steps = tdma_schedule(n_sensors, k_intervals, m_prime)
    interp = 1.0 - _interp_r2(model, 1.0 / k_intervals)
    _check_inputs(n_steps, grid_g)
    frame = n_sensors // k_intervals
    block_frames = max(hi - lo for lo, hi in _blocks(m_prime, _P2P_BLOCK_FRAMES))
    check_dense_size(block_frames * n_sensors,
                     f"a block of {block_frames} frames of N = {n_sensors} sensors")
    a0, c = np.array([_cell_quadrature(model, (j + 0.5) / n_sensors, k_intervals,
                                       frame * grid_g) for j in range(frame)]).T

    # refuses a kernel that is not PSD at the N sensors
    spectrum(model, n_sensors)
    field_rng = _generator(np.random.SeedSequence(seed).spawn(2)[0])
    if model.kind == EXP_MARKOV:
        factor = _markov_factor(k_intervals, math.inf)
        draw = lambda rows: _markov_snapshots(*factor, rows, field_rng)
    else:
        cov = covariance_matrix(model, k_intervals)
        draw = lambda rows: sample_snapshots(cov, rows, field_rng)
    j_snap, jprime_snap = np.empty(n_steps), np.empty(n_steps)
    err_sum = np.zeros((frame, k_intervals))
    for lo, hi in _blocks(m_prime, _P2P_BLOCK_FRAMES):
        active = draw((hi - lo) * frame)
        if quantizer is None:
            err2 = np.zeros_like(active)
        else:
            _, rep = quantize(quantizer, active)
            err2 = (active - rep) ** 2
        by_phase = err2.reshape(hi - lo, frame, k_intervals)
        j_snap[lo * frame:hi * frame] = (k_intervals * a0
                                         + c * by_phase.sum(axis=2)).ravel()
        jprime_snap[lo * frame:hi * frame] = err2.mean(axis=1)
        for frame_err in by_phase:
            err_sum += frame_err
    per_sensor = (err_sum / m_prime).T.ravel()
    return _report(P2P_SCHEME, j_snap, jprime_snap, per_sensor, grid_g, seed,
                   lambda jp: (0.0, interp + jp))

