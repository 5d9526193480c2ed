import dataclasses
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import densefield as df
from densefield import sim
from densefield.quantizer import min_levels_for_distortion, p2p_distortion_budget
from densefield.rates import jmse_lower_bound, jmse_upper_bound
from densefield.sim import WITHIN

from oracles import (active_sensors_at, brute_force_mmse, chunked_gaussians,
                     dsc_cross_term, dsc_expected_jmse, integrated_mse,
                     interpolate, interpolation_only_jmse, markov_dsc_errors,
                     quantizer_from_json, quantizer_to_json, report_to_json)


def assert_reports_equal(a, b):
    for field_ in dataclasses.fields(a):
        va, vb = getattr(a, field_.name), getattr(b, field_.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), field_.name
        else:
            assert va == vb, field_.name


@pytest.fixture(scope="module")
def exp_model():
    return df.make_correlation("exp-markov")


@pytest.fixture(scope="module")
def sinc_model():
    return df.make_correlation("sinc")


class TestSimulateDsc:
    def test_vanishing_noise_leaves_interpolation_error_only(self, exp_model):
        rep = df.simulate_dsc(exp_model, 16, p=1e-8, m=2000, grid_g=8, seed=3)
        assert rep.j_prime_mse < 1e-6
        floor = interpolation_only_jmse(exp_model, 16, grid_g=8)
        assert rep.j_mse == pytest.approx(floor, abs=1e-5)
        assert rep.verdict == WITHIN

    def test_designed_run_meets_field_target(self, exp_model):
        # p tuned so the sensor-sample MSE sits exactly at the design target
        n = 64
        d_prime = df.target_distortion_dsc(0.1, n, exp_model)
        cov = df.covariance_matrix(exp_model, n)
        p = df.find_pmax(cov, d_prime)
        rep = df.simulate_dsc(exp_model, n, p, m=20_000, seed=101)
        analytic = df.mmse_error(cov, p).mean()
        assert abs(rep.j_prime_mse - analytic) <= 3 * rep.stderr_jprime
        assert rep.j_mse <= 0.1 + 3 * rep.stderr_jmse
        assert rep.verdict == WITHIN

    def test_sandwich_holds_for_randomized_configs(self, exp_model, sinc_model):
        rng = np.random.default_rng(55)
        for trial in range(6):
            model = exp_model if trial % 2 else sinc_model
            n = int(rng.integers(8, 65))
            p = float(10 ** rng.uniform(-1.5, 0.7))
            rep = df.simulate_dsc(model, n, p, m=4000, seed=1000 + trial)
            margin = 3 * rep.stderr_jmse
            assert rep.bound_low - margin <= rep.j_mse <= rep.bound_high + margin
            assert rep.verdict == WITHIN
            assert rep.bound_low == pytest.approx(
                jmse_lower_bound(model, n, rep.j_prime_mse), abs=1e-12)
            assert rep.bound_high == pytest.approx(
                jmse_upper_bound(model, n, rep.j_prime_mse), abs=1e-12)

    def test_reports_are_deterministic(self, exp_model):
        a = df.simulate_dsc(exp_model, 12, 0.5, m=500, seed=9)
        b = df.simulate_dsc(exp_model, 12, 0.5, m=500, seed=9)
        for field_ in dataclasses.fields(a):
            va, vb = getattr(a, field_.name), getattr(b, field_.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb)
            else:
                assert va == vb

    def test_per_sensor_mse_consistent_with_average(self, exp_model):
        rep = df.simulate_dsc(exp_model, 10, 0.8, m=3000, seed=4)
        assert rep.j_prime_mse == pytest.approx(rep.per_sensor_mse.mean(), abs=1e-12)

    def test_naive_mode_handles_rank_deficient_joint_covariance(self, sinc_model):
        # the joint (sensors + nodes) matrix of a band-limited kernel is
        # numerically singular; the clamped factorisation must still sample
        rep = df.simulate_dsc(sinc_model, 8, 0.8, m=3000, seed=4, naive=True)
        assert rep.verdict == WITHIN

    @pytest.mark.parametrize("rows", [7, 64])
    def test_one_sensor_report_does_not_depend_on_block_size(
            self, sinc_model, monkeypatch, rows):
        # numpy sums a one-column array down its rows pairwise, so naive's
        # per-sensor total must be carried row by row here too
        run = lambda: df.simulate_dsc(sinc_model, 1, 0.7, m=301, seed=13,
                                      naive=True)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 301)
        whole = run()
        monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
        assert_reports_equal(run(), whole)

    @pytest.mark.parametrize("rows", [1, 13, 300])
    def test_naive_report_does_not_depend_on_block_size(self, exp_model,
                                                        monkeypatch, rows):
        # the 54-column joint draw's matrix product rounds differently with
        # the block height, so equal to 1e-12, which any boundary slip breaks
        run = lambda: df.simulate_dsc(exp_model, 6, 0.7, m=301, seed=13,
                                      naive=True)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 301)
        whole = run()
        monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
        got = run()
        for name in ("j_mse", "j_prime_mse", "stderr_jmse", "stderr_jprime",
                     "bound_low", "bound_high"):
            assert getattr(got, name) == pytest.approx(getattr(whole, name),
                                                       abs=1e-12), name
        np.testing.assert_allclose(got.per_sensor_mse, whole.per_sensor_mse,
                                   rtol=0, atol=1e-12)
        assert got.verdict == whole.verdict

    def test_peak_memory_does_not_grow_with_m(self, sinc_model):
        # The recurrence keeps the m-long row sum (160 KB at m = 20,000) and
        # two chunk-long vectors per chunk (80 KB each) beside the pack's two
        # half-size blocks and the split's half-size matrices (128 KB each
        # at N = 256), 1.6 MiB in all.  Holding the m x N draws, observations
        # and estimates at once, as a run over all snapshots does, needs five
        # or more 41 MB arrays; one quarter of one is the bound.
        n, m = 256, 20_000
        tracemalloc.start()
        try:
            df.simulate_dsc(sinc_model, n, 0.5, m=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 4

    def test_peak_memory_holds_no_filter_or_factor(self, sinc_model):
        # At N = 1024 an N x N float64 matrix is 8 MiB.  The split's two
        # half-size matrices, their eigh workspace and eigenvectors and the
        # recurrence's snapshot vectors stay under 4.5 of them (8.1 MiB
        # measured); an N x N MMSE filter or field factor held beside the
        # eigenvectors goes over.
        n = 1024
        tracemalloc.start()
        try:
            df.simulate_dsc(sinc_model, n, 0.5, m=600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * n * n * 8

    def test_peak_memory_is_the_eigenvector_blocks(self, sinc_model):
        # the eigenbasis pack's two blocks (N^2 / 2 floats, 4 MiB at
        # N = 1024) and the split's eigh workspace: 8.1 MiB measured.  An
        # unfolded N x N eigvecs (8 MiB) beside them goes over.  exp-markov
        # keeps no blocks; its bound is
        # test_markov_peak_memory_is_a_few_snapshot_vectors
        n = 1024
        tracemalloc.start()
        try:
            df.simulate_dsc(sinc_model, n, 0.5, m=600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("kind, n", [("exp-markov", 7),
                                         ("exp-markov", 1024), ("sinc", 257)])
    def test_field_mse_is_affine_in_sensor_mse(self, kind, n):
        # the grid's cells are translates, so with one cell's (a0, c) every
        # snapshot's J is N a0 + c N J'
        model = df.make_correlation(kind)
        rep = df.simulate_dsc(model, n, 0.5, m=600, seed=5)
        a0, c = sim._cell_quadrature(model, 0.5 / n, n, 8)
        assert rep.j_mse == pytest.approx(n * a0 + c * n * rep.j_prime_mse,
                                          rel=1e-14)

    @pytest.fixture
    def counters(self, monkeypatch):
        # every generator the simulation makes, with the Gaussians drawn
        # from it so far
        made = []

        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0
                made.append(self)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                self.drawn += out.size
                return out

        real = sim._generator
        monkeypatch.setattr(sim, "_generator",
                            lambda seed: CountingGenerator(real(seed)))
        return made

    def test_fast_path_draws_one_gaussian_per_mode(self, exp_model,
                                                   sinc_model, counters):
        # each mode's estimation error is one N(0, lambda p/(lambda + p))
        # draw, and each sensor's step of exp-markov's precision recurrence
        # one N(0, 1) per snapshot: m N Gaussians from a single generator, no
        # noise stream, on both paths
        n, m = 9, 301
        for model in (exp_model, sinc_model):
            counters.clear()
            df.simulate_dsc(model, n, 0.5, m=m, seed=3)
            assert [g.drawn for g in counters] == [m * n], model.kind

    def test_fast_path_never_unfolds_eigvecs(self, sinc_model, monkeypatch):
        packs = []

        def keep_pack(model, n):
            packs.append(df.covariance_matrix(model, n))
            return packs[-1]

        monkeypatch.setattr(sim, "covariance_matrix", keep_pack)
        df.simulate_dsc(sinc_model, 17, 0.5, m=300)
        assert len(packs) == 1 and "eigvecs" not in packs[0].__dict__

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_naive_sensor_mse_agrees_with_fast_path(self, exp_model, seed):
        # J' is the same quantity on both paths; the naive run draws the
        # joint sensor-and-node field and rotates its sensor rows into the
        # eigenbasis itself.  Distinct seeds keep the two runs independent.
        fast = df.simulate_dsc(exp_model, 8, 0.5, m=2000, seed=seed)
        naive = df.simulate_dsc(exp_model, 8, 0.5, m=2000, seed=seed + 100,
                                naive=True)
        se = np.hypot(fast.stderr_jprime, naive.stderr_jprime)
        assert abs(fast.j_prime_mse - naive.j_prime_mse) <= 4 * se

    def test_field_mse_calibrated_to_closed_form(self, exp_model):
        # z = (J - E[J]) / stderr over many seeds: mean near 0, no outlier.
        # The distortion sandwich alone misses a mis-scaled noise stream
        # (noise x 1.05 gives z near 25 with verdict "within").
        n, p, m, seeds = 64, 0.5, 2000, range(24)
        cov = df.covariance_matrix(exp_model, n)
        diag = df.mmse_error(cov, p)
        expected = dsc_expected_jmse(exp_model, n, diag)
        z = np.array([(rep.j_mse - expected) / rep.stderr_jmse
                      for rep in (df.simulate_dsc(exp_model, n, p, m=m, seed=s)
                                  for s in seeds)])
        assert abs(z.mean()) <= 4 / np.sqrt(len(seeds))
        assert np.max(np.abs(z)) <= 5

    @staticmethod
    def assert_calibrated_to_trace(model, n, p, m):
        # every cell adds a0 + c e_i^2, so E[J] = N a0 + c tr(Sigma_e), the
        # trace being sum lambda p/(lambda + p); equal cells let the oracle
        # take the trace spread evenly over the sensors
        lam = df.spectrum(model, n).eigvals
        trace = float(np.sum(lam * p / (lam + p)))
        expected = dsc_expected_jmse(model, n, np.full(n, trace / n))
        seeds = range(24)
        z = np.array([(rep.j_mse - expected) / rep.stderr_jmse
                      for rep in (df.simulate_dsc(model, n, p, m=m, seed=s)
                                  for s in seeds)])
        assert abs(z.mean()) <= 4 / np.sqrt(len(seeds))
        assert np.max(np.abs(z)) <= 5

    def test_markov_chunk_streams_calibrated_to_closed_form(self, exp_model,
                                                            monkeypatch):
        # 20 chunks of 100 snapshots, 19 of them from spawned children
        monkeypatch.setattr(sim, "_CHUNK", 100)
        self.assert_calibrated_to_trace(exp_model, 64, 0.5, 2000)

    def test_eigenbasis_blocks_calibrated_to_closed_form(self, sinc_model,
                                                         monkeypatch):
        # 20 chunks of 100 snapshots, 19 of them from spawned children
        monkeypatch.setattr(sim, "_CHUNK", 100)
        self.assert_calibrated_to_trace(sinc_model, 64, 0.5, 2000)

    @pytest.mark.parametrize("model", [
        df.make_correlation("sinc"),
        # a triangle kernel, positive definite by Polya's criterion
        df.make_correlation("custom-table", [[0.0, 1.0], [0.6, 0.0], [1.0, 0.0]])],
        ids=["sinc", "table"])
    def test_per_sensor_mse_calibrated_to_closed_form(self, model):
        # sensor i's (V o V) s against its MMSE: s_k is the mean of m squared
        # N(0, v_k) draws, v_k = lambda_k p/(lambda_k + p), so the estimate
        # has variance sum_k V_ik^4 2 v_k^2 / m
        n, p, m, seeds = 16, 0.5, 2000, range(24)
        cov = df.covariance_matrix(model, n)
        mmse = df.mmse_error(cov, p)
        v = cov.eigvals * p / (cov.eigvals + p)
        se = np.sqrt((cov.eigvecs ** 4) @ (2 * v ** 2) / m)
        z = np.array([(df.simulate_dsc(model, n, p, m=m, seed=s).per_sensor_mse
                       - mmse) / se for s in seeds])
        assert abs(z.mean()) <= 4 / np.sqrt(len(seeds))
        assert np.max(np.abs(z)) <= 5

    @pytest.mark.parametrize("n", [7, 64])
    def test_field_errors_do_not_depend_on_eigenbasis(self, sinc_model,
                                                      monkeypatch, n):
        # J and J' read only |e'|^2 (every cell weight is equal), so the split
        # pack and one full eigh of the same matrix, whose eigenvectors may
        # differ in sign, give the same errors up to rounding
        split = df.simulate_dsc(sinc_model, n, 0.5, m=2000, seed=17)
        full_pack = lambda model, n: df.CovariancePack.from_matrix(
            df.covariance_matrix(model, n).sigma_x)
        monkeypatch.setattr(sim, "covariance_matrix", full_pack)
        full = df.simulate_dsc(sinc_model, n, 0.5, m=2000, seed=17)
        assert split.j_mse == pytest.approx(full.j_mse, rel=1e-12)
        assert split.j_prime_mse == pytest.approx(full.j_prime_mse, rel=1e-12)

    def test_decomposes_only_half_size_matrices(self, exp_model, sinc_model,
                                                monkeypatch):
        # every pack takes the reflection split, exp-markov's too
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            shapes.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        df.simulate_dsc(sinc_model, 1024, 0.5, m=2)
        assert shapes and max(max(s) for s in shapes) <= 512
        for model in (sinc_model, exp_model):
            shapes.clear()
            df.covariance_matrix(model, 1024)
            assert shapes == [(512, 512), (512, 512)], model.kind
        # p2p's pack is the K-sensor grid's, and exp-markov's N-sensor
        # spectrum is the KMS secular equation's
        shapes.clear()
        df.simulate_p2p(exp_model, 480, 24, m_prime=20, seed=1)
        assert shapes == [(12, 12), (12, 12)]

    @pytest.mark.parametrize("n", [1, 2, 6, 7])
    def test_markov_matches_dense_precision_oracle(self, exp_model, n):
        # exp-markov runs e = U^-T g along the sensors; the dense inverse,
        # Cholesky factor and triangular solve of the same sensor-major draw
        # give the same errors (N = 1 pins the one-sensor precision [1])
        p, m, seed = 0.7, 301, 13
        rep = df.simulate_dsc(exp_model, n, p, m=m, grid_g=8, seed=seed)
        err = markov_dsc_errors(n, p, m, seed)
        got = integrated_mse(err, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=exp_model, positions=df.sensor_positions(n))
        assert rep.j_mse == pytest.approx(got, abs=1e-12)
        assert rep.j_prime_mse == pytest.approx((err ** 2).mean(), abs=1e-12)
        np.testing.assert_allclose(rep.per_sensor_mse, (err ** 2).mean(axis=0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 7])
    def test_markov_per_sensor_mse_follows_law(self, exp_model, n):
        # each sensor's mean e_i^2 against its MMSE from the normal equations,
        # diag(Q^-1), within 4 standard errors sqrt(2/m) diag(Q^-1); at N = 1
        # the corner value 1/(1 - a^2) in place of [1] reads 0.386 for 0.412
        p, m = 0.7, 100_000
        rep = df.simulate_dsc(exp_model, n, p, m=m, seed=29)
        sigma = df.covariance_matrix(exp_model, n).sigma_x
        mmse = brute_force_mmse(np.array(sigma), p)
        assert np.all(np.abs(rep.per_sensor_mse - mmse)
                      <= 4 * np.sqrt(2 / m) * mmse)

    def test_markov_path_builds_no_covariance(self, exp_model, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            calls.append(("eigh", np.shape(a)))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(sim, "covariance_matrix",
                            lambda *args: calls.append("covariance_matrix"))
        df.simulate_dsc(exp_model, 64, 0.5, m=300)
        assert calls == []

    def test_markov_peak_memory_is_a_few_snapshot_vectors(self, exp_model):
        # the draw, the error and the row sum are m-vectors (160 KB each at
        # m = 20,000) beside the per-snapshot J and J'; the eigenbasis path's
        # two eigenvector blocks alone are 4 MiB at N = 1024
        n, m = 1024, 20_000
        tracemalloc.start()
        try:
            df.simulate_dsc(exp_model, n, 0.5, m=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n", [1, 7])
    def test_markov_chunks_match_dense_precision_oracle(self, exp_model,
                                                        monkeypatch, n):
        # three chunks of at most 100 snapshots, the last one short, each
        # drawn sensor-major from its own stream
        monkeypatch.setattr(sim, "_CHUNK", 100)
        p, m, seed = 0.7, 207, 13
        rep = df.simulate_dsc(exp_model, n, p, m=m, grid_g=8, seed=seed)
        err = markov_dsc_errors(n, p, m, seed, chunk=100)
        got = integrated_mse(err, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=exp_model, positions=df.sensor_positions(n))
        assert rep.j_mse == pytest.approx(got, abs=1e-12)
        assert rep.j_prime_mse == pytest.approx((err ** 2).mean(), abs=1e-12)
        np.testing.assert_allclose(rep.per_sensor_mse, (err ** 2).mean(axis=0),
                                   rtol=0, atol=1e-12)

    def test_uncoupled_error_sums_are_the_direct_draw(self, monkeypatch):
        # with every w_i = 0 the recurrence is e_i = g_i / u_i: three chunks
        # of the same streams, scaled and summed in the library's order,
        # give the same bits
        monkeypatch.setattr(sim, "_CHUNK", 100)
        n, m, seed = 5, 207, 11
        u = np.linspace(0.5, 2.5, n)
        field_ss, _ = np.random.SeedSequence(seed).spawn(2)
        row_sum, per_coord = sim._error_sums(u, np.zeros(n), m, field_ss)
        e2 = (chunked_gaussians(n, m, seed, chunk=100) / u[:, None]) ** 2
        rows, sums = np.zeros(m), np.zeros(n)
        for i in range(n):
            rows += e2[i]
        for lo in range(0, m, 100):
            sums += [e2[i, lo:lo + 100].sum() for i in range(n)]
        assert np.array_equal(row_sum, rows)
        assert np.array_equal(per_coord, sums / m)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_markov_draws_one_generator_per_chunk(self, kind, monkeypatch,
                                                  counters):
        # three chunks, each drawing its own rows x N Gaussians
        monkeypatch.setattr(sim, "_CHUNK", 100)
        n = 9
        df.simulate_dsc(df.make_correlation(kind), n, 0.5, m=207, seed=3)
        assert sorted(g.drawn for g in counters) == [7 * n, 100 * n, 100 * n]

    @pytest.fixture
    def worker_threads(self, monkeypatch):
        # a run that asks for more than eight threads fails at the ninth,
        # before it is made
        made = []

        class RecordingThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                assert len(made) < 8, "more worker threads than expected"
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(sim, "threading",
                            types.SimpleNamespace(Thread=RecordingThread))
        return made

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_markov_report_does_not_depend_on_worker_count(
            self, kind, monkeypatch, worker_threads):
        # 11 chunks, the last of three snapshots, on 1, 2 and 5 workers,
        # switching threads every microsecond so that a write lost between
        # chunks would show
        monkeypatch.setattr(sim, "_CHUNK", 100)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 5):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: set(range(cpus)),
                                    raising=False)
                worker_threads.clear()
                reports.append(df.simulate_dsc(df.make_correlation(kind), 16,
                                               0.5, m=1003, seed=8))
                assert len(worker_threads) == cpus - 1
        finally:
            sys.setswitchinterval(interval)
        for rep in reports[1:]:
            assert_reports_equal(reports[0], rep)

    def test_markov_workers_bounded_by_chunks_and_cpus(
            self, exp_model, monkeypatch, worker_threads):
        # a million CPUs and three chunks: three workers, the caller one of
        # them; three CPUs and 1,000 chunks: three workers
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: range(10**6), raising=False)
        monkeypatch.setattr(sim, "_CHUNK", 100)
        df.simulate_dsc(exp_model, 4, 0.5, m=207, seed=1)
        assert len(worker_threads) == 2
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: range(3), raising=False)
        monkeypatch.setattr(sim, "_CHUNK", 10)
        worker_threads.clear()
        df.simulate_dsc(exp_model, 1, 0.5, m=10_000, seed=1)
        assert len(worker_threads) == 2

    def test_usable_cpus_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert sim._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert sim._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sim._usable_cpus() == 1

    def test_markov_worker_exception_reaches_caller(self, exp_model,
                                                    monkeypatch):
        # chunk 1 draws from the field child's first spawned child, on
        # worker 1 of two
        raised_on = []

        def failing_generator(seed):
            if seed.spawn_key == (0, 0):
                raised_on.append(threading.current_thread())
                raise RuntimeError("chunk 1 failed")
            return real(seed)

        real = sim._generator
        monkeypatch.setattr(sim, "_generator", failing_generator)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(sim, "_CHUNK", 100)
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            df.simulate_dsc(exp_model, 5, 0.5, m=207, seed=2)
        assert len(raised_on) == 1
        assert raised_on[0] is not threading.main_thread()

    def test_naive_joint_covariance_over_budget_refused(self, exp_model):
        # N (1 + grid_g) = 512 * 17 = 8704 nodes exceed the 8192 of the budget
        with pytest.raises(df.InfeasibleConfigError, match=r"N \(1 \+ grid_g\)"):
            df.simulate_dsc(exp_model, 512, 0.5, m=2, grid_g=16, naive=True)

    def test_invalid_inputs(self, exp_model):
        with pytest.raises(ValueError):
            df.simulate_dsc(exp_model, 8, p=0.0, m=10)
        with pytest.raises(ValueError):
            df.simulate_dsc(exp_model, 8, p=0.5, m=0)
        with pytest.raises(ValueError):
            df.simulate_dsc(exp_model, 8, p=0.5, m=10, grid_g=1)


@pytest.mark.parametrize("run", [
    lambda model: df.simulate_dsc(model, 1024, 0.5, m=2, grid_g=2**17),
    lambda model: df.simulate_p2p(model, 1024, 32, None, m_prime=2,
                                  grid_g=2**17),
], ids=["dsc", "p2p"])
def test_quadrature_nodes_over_budget_refused(exp_model, run):
    # N grid_g = 2^27 nodes make a 1 GiB float64 vector, over the 512 MiB
    # dense budget: refused before any node is allocated
    tracemalloc.start()
    try:
        with pytest.raises(df.InfeasibleConfigError,
                           match=r"N = 1024 with grid_g = 131072 .* 512 MiB"):
            run(exp_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestCrossTermDecomposition:
    """The nearest-sample split of the error has correlated parts under
    distributed coding but independent parts under per-sensor coding."""

    @pytest.mark.parametrize("n,p", [(8, 0.5), (16, 1.0)])
    def test_dsc_independent_error_formula_fails(self, exp_model, n, p):
        cov = df.covariance_matrix(exp_model, n)
        cross = dsc_cross_term(exp_model, df.sensor_positions(n), cov, p, grid_g=8)
        hybrid = df.simulate_dsc(exp_model, n, p, m=20_000, seed=31)
        naive = df.simulate_dsc(exp_model, n, p, m=20_000, seed=32, naive=True)
        margin = 3 * (hybrid.stderr_jmse + naive.stderr_jmse)
        # the full simulation sees the cross term the hybrid drops ...
        assert abs((naive.j_mse - hybrid.j_mse) - 2 * cross) <= margin
        # ... and that term is a real effect, not noise
        assert abs(2 * cross) > margin

    def test_p2p_additive_decomposition_holds(self, exp_model):
        # direct full-field quadrature of the TDMA scheme agrees with the
        # hybrid that assumes the two error parts are independent
        n, k, m_prime, grid_g, seed = 8, 4, 4000, 8, 77
        quant = df.lloyd_max(4)
        hybrid = df.simulate_p2p(exp_model, n, k, quant, m_prime=m_prime,
                                 grid_g=grid_g, seed=seed)

        positions = df.sensor_positions(n)
        nodes = (np.arange(n * grid_g) + 0.5) / (n * grid_g)
        joint_pos = np.concatenate([positions, nodes])
        joint_cov = df.CovariancePack.from_matrix(
            exp_model(np.abs(joint_pos[:, None] - joint_pos[None, :])))
        m = m_prime * (n // k)
        frame = n // k
        draws = df.sample_snapshots(joint_cov, m, seed=555)
        x_sens, x_nodes = draws[:, :n], draws[:, n:]
        sub_of_node = np.minimum((nodes * k).astype(int), k - 1)
        js = np.empty(m)
        for i in range(m):
            j0 = i % frame
            active = j0 + frame * np.arange(k)
            _, rep = df.quantize(quant, x_sens[i, active])
            r_pos = positions[active][sub_of_node]
            recon = exp_model(nodes - r_pos) * rep[sub_of_node]
            js[i] = np.mean((x_nodes[i] - recon) ** 2)
        direct = js.mean()
        direct_se = js.std(ddof=1) / np.sqrt(m)
        assert abs(direct - hybrid.j_mse) <= 3 * (direct_se + hybrid.stderr_jmse)


class TestSimulateP2p:
    def test_identity_quantizer_leaves_interpolation_error_only(self, exp_model):
        n, k = 16, 4
        rep = df.simulate_p2p(exp_model, n, k, quantizer=None, m_prime=200, seed=5)
        assert rep.j_prime_mse == 0.0
        assert rep.j_mse <= (1 - exp_model(1 / k) ** 2) + 3 * rep.stderr_jmse
        assert rep.verdict == WITHIN

    def test_designed_run_meets_field_target(self, exp_model):
        n, k, d_net = 48, 24, 0.1
        budget = p2p_distortion_budget(exp_model, d_net, k)
        levels = min_levels_for_distortion(budget)
        quant = df.lloyd_max(levels)
        assert quant.distortion <= budget
        rep = df.simulate_p2p(exp_model, n, k, quant, m_prime=2000, seed=202)
        assert rep.j_mse <= d_net + 3 * rep.stderr_jmse
        assert rep.verdict == WITHIN

    def test_empirical_quantizer_mse_matches_design(self, exp_model):
        # active samples are unit Gaussian, so per-sensor error ~ designed D(L)
        quant = df.lloyd_max(8)
        rep = df.simulate_p2p(exp_model, 24, 8, quant, m_prime=4000, seed=11)
        spread = rep.per_sensor_mse.std(ddof=1)
        assert abs(rep.j_prime_mse - quant.distortion) <= 3 * spread / np.sqrt(24)
        assert np.max(np.abs(rep.per_sensor_mse - quant.distortion)) <= 5 * spread

    def test_schedule_preconditions(self, exp_model):
        with pytest.raises(df.InfeasibleConfigError):
            df.simulate_p2p(exp_model, 10, 4, None, m_prime=10)

    @pytest.mark.parametrize("n,k", [(24, 24), (24, 8)])
    def test_invalid_inputs(self, exp_model, n, k):
        # grid_g is checked whatever the frame length, as in simulate_dsc
        with pytest.raises(ValueError, match="quadrature"):
            df.simulate_p2p(exp_model, n, k, None, m_prime=10, grid_g=1)
        # one frame of N/K steps: a single snapshot when K = N
        run = lambda: df.simulate_p2p(exp_model, n, k, None, m_prime=1)
        if n == k:
            with pytest.raises(df.InfeasibleConfigError, match="snapshot"):
                run()
        else:
            assert run().n_snapshots == n // k

    def test_deterministic(self, exp_model):
        q = df.lloyd_max(4)
        a = df.simulate_p2p(exp_model, 8, 4, q, m_prime=100, seed=1)
        b = df.simulate_p2p(exp_model, 8, 4, q, m_prime=100, seed=1)
        assert a.j_mse == b.j_mse
        assert np.array_equal(a.per_sensor_mse, b.per_sensor_mse)

    @pytest.mark.parametrize("steps", [1, 7, 13, 48, 64, 300, 303, 606])
    def test_report_does_not_depend_on_block_size(self, exp_model, monkeypatch,
                                                  steps):
        # frames of N/K = 3 steps, m' = 101: all 303 steps as one block
        # against blocks of steps // 3 frames: 2 (steps 1 and 7), 4 (a lone
        # last frame joins the block before it), 16 and 21 (a short last
        # block), 100 (one block of 101), m' and 2m' frames
        quant = df.lloyd_max(4)
        run = lambda: df.simulate_p2p(exp_model, 12, 4, quant, m_prime=101,
                                      seed=13)
        monkeypatch.setattr(sim, "_P2P_BLOCK_FRAMES", 303 // 3)
        whole = run()
        monkeypatch.setattr(sim, "_P2P_BLOCK_FRAMES", steps // 3)
        assert_reports_equal(run(), whole)

    @pytest.mark.parametrize("frames", [7, 64])
    def test_one_sensor_report_does_not_depend_on_block_size(
            self, exp_model, monkeypatch, frames):
        # N = K = 1: one-step frames of one sample, a one-column error sum
        quant = df.lloyd_max(4)
        run = lambda: df.simulate_p2p(exp_model, 1, 1, quant, m_prime=301,
                                      seed=4)
        monkeypatch.setattr(sim, "_P2P_BLOCK_FRAMES", 301)
        whole = run()
        monkeypatch.setattr(sim, "_P2P_BLOCK_FRAMES", frames)
        assert_reports_equal(run(), whole)

    def test_peak_memory_does_not_hold_every_step(self, exp_model):
        # N = 4800, K = 24, m' = 2000: 400,000 steps of 24 active samples.
        # Blocks of 16 whole frames keep a few 3,200 x 24 arrays, so only the
        # per-step J and J' (3.2 MB each) grow with m'.  Drawing every step
        # at once holds the 76.8 MB m' x N draws, their squared errors and
        # more, a 317 MB peak; a quarter of one such array is the bound.
        n, k, m_prime = 4800, 24, 2000
        quant = df.lloyd_max(11)
        tracemalloc.start()
        try:
            df.simulate_p2p(exp_model, n, k, quant, m_prime=m_prime)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m_prime * n * 8 / 4

    def test_matches_k_grid_draws(self, exp_model):
        # rebuild the K-sensor draws of simulate_p2p and score every step
        # through the schedule's own sensor map
        n, k, m_prime, grid_g, seed = 12, 4, 50, 8, 21
        quant = df.lloyd_max(4)
        rep = df.simulate_p2p(exp_model, n, k, quant, m_prime=m_prime,
                              grid_g=grid_g, seed=seed)
        n_steps = df.tdma_schedule(n, k, m_prime)
        field_ss, _ = np.random.SeedSequence(seed).spawn(2)
        cov = df.covariance_matrix(exp_model, k)
        draws = df.sample_snapshots(cov, n_steps, field_ss)
        positions = df.sensor_positions(n)
        nodes = (np.arange(n * grid_g) + 0.5) / (n * grid_g)
        sub_of_node = np.minimum((nodes * k).astype(int), k - 1)
        js = np.empty(n_steps)
        jps = np.empty(n_steps)
        err_sum = np.zeros(n)
        hits = np.zeros(n)
        for i in range(n_steps):
            active = np.asarray(active_sensors_at(n, k, i + 1)) - 1
            _, rep_i = df.quantize(quant, draws[i])
            e2 = (draws[i] - rep_i) ** 2
            r2 = exp_model(nodes - positions[active][sub_of_node]) ** 2
            js[i] = np.mean(1.0 - r2 + r2 * e2[sub_of_node])
            jps[i] = e2.mean()
            err_sum[active] += e2
            hits[active] += 1
        assert rep.j_mse == pytest.approx(js.mean(), abs=1e-12)
        assert rep.j_prime_mse == pytest.approx(jps.mean(), abs=1e-12)
        np.testing.assert_allclose(rep.per_sensor_mse, err_sum / hits, rtol=0,
                                   atol=1e-12)

    def test_json_round_tripped_codebook_drives_simulation(self, sinc_model):
        q = quantizer_from_json(quantizer_to_json(df.lloyd_max(8)))
        rep = df.simulate_p2p(sinc_model, 24, 8, q, m_prime=500, seed=6)
        assert rep.verdict == WITHIN
        ref = df.simulate_p2p(sinc_model, 24, 8, df.lloyd_max(8), m_prime=500, seed=6)
        assert rep.j_mse == ref.j_mse


def dsc_fast_path_errors(cov, p, m, seed, chunk=None):
    """simulate_dsc's sensor errors and per-mode mean squares: each mode's
    error g / sqrt(1/lambda + 1/p), g the ``chunked_gaussians`` of ``seed``,
    rotated to the sensors with the unfolded V."""
    u = np.sqrt(1.0 / cov.eigvals + 1.0 / p)
    err_eig = chunked_gaussians(cov.n, m, seed, chunk).T / u
    return err_eig @ cov.eigvecs.T, (err_eig ** 2).mean(axis=0)


class TestIntegratedMse:
    def test_perfect_reconstruction_single_sensor_closed_form(self, exp_model):
        # integral of 1 - e^(-2|s - 1/2|) over [0, 1] equals e^-1
        positions = df.sensor_positions(1)
        truth = df.sample_snapshots(df.covariance_matrix(exp_model, 1), 50, seed=6)

        def recon(i, nodes):
            return interpolate(exp_model, truth[i], positions, nodes)

        got = integrated_mse(truth, recon, 4096, model=exp_model,
                             positions=positions)
        assert got == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_zero_field_zero_reconstruction_direct_mode(self, exp_model):
        truth = np.zeros((3, 4))
        grid_truth = np.zeros((3, 4 * 8))
        got = integrated_mse(truth, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=exp_model, positions=df.sensor_positions(4),
                             grid_truth=grid_truth)
        assert got == 0.0

    def test_quadrature_converges_under_grid_doubling(self, exp_model):
        positions = df.sensor_positions(16)
        truth = df.sample_snapshots(df.covariance_matrix(exp_model, 16), 20, seed=8)

        def recon(i, nodes):
            return interpolate(exp_model, 0.9 * truth[i], positions, nodes)

        coarse = integrated_mse(truth, recon, 8, model=exp_model,
                                positions=positions)
        fine = integrated_mse(truth, recon, 16, model=exp_model,
                              positions=positions)
        assert abs(fine - coarse) / coarse < 0.005

    def test_matches_simulate_dsc_fast_path(self, sinc_model):
        # rebuild the exact draws of simulate_dsc, the estimation error of
        # each mode, and feed them through the hybrid quadrature as the
        # truth with a zero reconstruction
        n, p, m, seed = 6, 0.7, 300, 13
        rep = df.simulate_dsc(sinc_model, n, p, m=m, grid_g=8, seed=seed)
        cov = df.covariance_matrix(sinc_model, n)
        err, _ = dsc_fast_path_errors(cov, p, m, seed)
        got = integrated_mse(err, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=sinc_model, positions=df.sensor_positions(n))
        assert got == pytest.approx(rep.j_mse, abs=1e-12)

    def test_matches_simulate_dsc_fast_path_odd_n(self, sinc_model):
        # as above with odd N, so the middle row of the unfold is scored
        n, p, m, seed = 7, 0.7, 300, 13
        rep = df.simulate_dsc(sinc_model, n, p, m=m, grid_g=8, seed=seed)
        cov = df.covariance_matrix(sinc_model, n)
        err, _ = dsc_fast_path_errors(cov, p, m, seed)
        got = integrated_mse(err, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=sinc_model, positions=df.sensor_positions(n))
        assert got == pytest.approx(rep.j_mse, abs=1e-12)

    def test_matches_simulate_dsc_fast_path_across_blocks(self, sinc_model,
                                                          monkeypatch):
        # as above with m spanning several chunks and a short last one, so a
        # slip at a chunk boundary shows; the per-sensor MSE is the per-mode
        # mean squares weighted by V o V
        monkeypatch.setattr(sim, "_CHUNK", 100)
        n, p, seed = 6, 0.7, 13
        m = 3 * sim._CHUNK + 45
        rep = df.simulate_dsc(sinc_model, n, p, m=m, grid_g=8, seed=seed)
        cov = df.covariance_matrix(sinc_model, n)
        err, per_mode = dsc_fast_path_errors(cov, p, m, seed, chunk=100)
        got = integrated_mse(err, lambda i, nodes: np.zeros_like(nodes), 8,
                             model=sinc_model, positions=df.sensor_positions(n))
        assert got == pytest.approx(rep.j_mse, abs=1e-12)
        err2 = err ** 2
        assert rep.j_prime_mse == pytest.approx(err2.mean(), abs=1e-12)
        np.testing.assert_allclose(rep.per_sensor_mse,
                                   (cov.eigvecs ** 2) @ per_mode,
                                   rtol=0, atol=1e-12)


class TestReportSerialization:
    def test_json_is_stable_and_embeds_config(self, exp_model):
        rep = df.simulate_dsc(exp_model, 4, 0.5, m=50, seed=2)
        text1 = report_to_json(rep, config={"n": 4})
        text2 = report_to_json(rep, config={"n": 4})
        assert text1 == text2
        assert '"config"' in text1 and '"verdict"' in text1
