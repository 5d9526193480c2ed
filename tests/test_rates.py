import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densefield as df
from densefield.correlation import _bisect
from densefield.estimation import avg_mmse_from_eigvals
from densefield.field import _clamped, _dense_spectrum
from densefield.quantizer import (p2p_distortion_budget, p2p_min_feasible_k,
                                  p2p_rate_for_K)
from densefield.rates import (Spectrum, jmse_lower_bound, jmse_upper_bound,
                              smallest_feasible_n)

from oracles import (ddprime_root, dense_covariance, dprime_root, feasibility_tables,
                     find_theta_loop, logdet_rate, prop1_sum_rate_bound,
                     smallest_count_scan, smallest_feasible_n_scan, theta_root,
                     waterfill_bisect)


@pytest.fixture(scope="module")
def exp_model():
    return df.make_correlation("exp-markov")


@pytest.fixture(scope="module")
def sinc_model():
    return df.make_correlation("sinc")


def diagonal_spectrum(lam):
    """The dense Spectrum of diag(lam)."""
    raw = np.sort(np.asarray(lam, dtype=float))[::-1]
    return Spectrum(raw.size, *_clamped(raw, raw.size), "dense")


@pytest.fixture(scope="module")
def constant_model():
    # degenerate perfectly correlated field: rho identically 1
    return df.make_correlation("custom-table", [[0.0, 1.0], [1.0, 1.0]])


class TestTargetDistortion:
    def test_constant_field_keeps_full_budget(self, constant_model):
        assert df.target_distortion_dsc(0.1, 4, constant_model) == pytest.approx(
            0.1, abs=1e-15)

    def test_exp_frozen_oracle_value(self, exp_model):
        got = df.target_distortion_dsc(0.1, 200, exp_model)
        assert got == pytest.approx(0.0603893201968878, abs=1e-14)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    @pytest.mark.parametrize("n", [16, 64, 200, 512])
    def test_matches_upper_bound_equality_root(self, kind, n):
        model = df.make_correlation(kind)
        closed = df.target_distortion_dsc(0.1, n, model)
        assert abs(closed - dprime_root(model, n, 0.1)) < 1e-12

    def test_infeasible_small_n_reports_scan_result(self, exp_model):
        with pytest.raises(df.InfeasibleConfigError, match="smallest feasible N is 10"):
            df.target_distortion_dsc(0.1, 9, exp_model)

    @pytest.mark.parametrize("kind, d_net, n_min, cut", [
        ("exp-markov", 1.05e-7, 9_523_810, None),
        ("sinc", 5e-14, 4_051_328, None),
        ("custom-table", 1e-4, 9975, 8192),
    ])
    def test_refusal_names_the_spectrum_size_limit(self, kind, d_net, n_min, cut):
        # a table's spectrum is its N x N covariance, which the budget caps
        # at N = 8192, and the spectrum itself refuses the next N; the
        # built-in kernels build nothing of size N, so their refusal names
        # the smallest feasible N alone and their spectrum at that N builds
        if kind == "custom-table":
            tau = np.linspace(0.0, 1.0, 201)
            model = df.make_correlation(kind, np.column_stack([tau, np.exp(-tau)]))
        else:
            model = df.make_correlation(kind)
        limit = "" if cut is None else (
            f", but the {kind} spectrum fits the dense budget of 512 MiB only up to N = {cut}")
        with pytest.raises(df.InfeasibleConfigError,
                           match=f"smallest feasible N is {n_min}{limit}$"):
            df.target_distortion_dsc(d_net, 64, model)
        if cut is None:
            assert df.spectrum(model, n_min).n == n_min
        else:
            with pytest.raises(df.InfeasibleConfigError, match=f"N = {cut + 1} sensors"):
                df.spectrum(model, cut + 1)

    def test_smallest_feasible_n(self, exp_model, sinc_model):
        assert smallest_feasible_n(exp_model, 0.1) == 10
        assert smallest_feasible_n(sinc_model, 0.1) == 3
        assert smallest_feasible_n(exp_model, 1e-6) == 1_000_000

    def test_smallest_feasible_n_past_two_to_the_23(self, exp_model):
        # a doubling scan stops at 2^23 and never tests N in (2^23, 10^7]
        for d_net, n in [(1.2e-7, 8_333_333), (1.111e-7, 9_000_900),
                         (1.05e-7, 9_523_810)]:
            assert smallest_feasible_n(exp_model, d_net) == n
        with pytest.raises(df.InfeasibleConfigError, match="no feasible N up to 10000000"):
            smallest_feasible_n(exp_model, 9.9e-8)

    @pytest.mark.parametrize("d_net", [0.5, 0.1, 0.02, 1e-3, 1e-4])
    def test_smallest_feasible_n_matches_scan(self, exp_model, sinc_model, d_net):
        for model in (exp_model, sinc_model):
            assert smallest_feasible_n(model, d_net) == smallest_feasible_n_scan(model, d_net)
        # N and K alike; the tables' rho rises or turns negative within the
        # lags of the counts the rule 1 - rho^2 < d_net alone would accept
        tables = [df.make_correlation("custom-table", t)
                  for t in feasibility_tables().values()]
        for model in (exp_model, sinc_model, *tables):
            assert smallest_feasible_n(model, d_net) == smallest_count_scan(model, d_net, 2)
            assert p2p_min_feasible_k(model, d_net) == smallest_count_scan(model, d_net, 1)

    @pytest.mark.parametrize("name", ["psd", "bump"])
    def test_lag_beyond_monotone_radius_refused(self, name):
        # 1/(2N) = 1/6 lies past the radius, where rho^2 is back above 0.9:
        # certifying N = 3 there ignores the cell's larger errors
        model = df.make_correlation("custom-table", feasibility_tables()[name])
        with pytest.raises(df.InfeasibleConfigError,
                           match=f"lag 0.166667 outside monotone radius {model.theta_mono}"):
            df.target_distortion_dsc(0.1, 3, model)

    def test_approaches_target_from_below_monotonically(self, exp_model):
        values = [df.target_distortion_dsc(0.1, n, exp_model)
                  for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
        assert np.all(np.diff(values) > 0)
        assert all(0 < v <= 0.1 for v in values)
        assert 0.1 - values[-1] < 0.01


class TestReverseDistortionBound:
    def test_constant_field_equals_target(self, constant_model):
        assert df.reverse_distortion_bound(0.1, 4, constant_model) == pytest.approx(
            0.1, abs=1e-15)

    def test_exp_frozen_oracle_value(self, exp_model):
        got = df.reverse_distortion_bound(0.1, 200, exp_model)
        assert got == pytest.approx(0.15652151041876186, abs=1e-14)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    @pytest.mark.parametrize("n", [16, 64, 200, 512])
    def test_matches_lower_bound_equality_root(self, kind, n):
        model = df.make_correlation(kind)
        closed = df.reverse_distortion_bound(0.1, n, model)
        assert abs(closed - ddprime_root(model, n, 0.1)) < 1e-12

    def test_decreases_toward_target(self, exp_model):
        values = [df.reverse_distortion_bound(0.1, n, exp_model)
                  for n in (50, 100, 200, 500, 1000, 2000)]
        assert np.all(np.diff(values) < 0)
        assert all(v >= 0.1 for v in values)
        assert values[-1] - 0.1 < 0.02  # gap at N=2000

    def test_precondition_failure_raises(self, exp_model):
        # rho^2(1/2N) < 1/2 for N = 1
        with pytest.raises(df.InfeasibleConfigError):
            df.reverse_distortion_bound(0.1, 1, exp_model)

    def test_lag_beyond_monotone_radius_raises(self):
        # rho rises after lag 0.1, and N = 2 puts 1/(2N) at 0.25
        model = df.make_correlation("custom-table",
                                    [[0.0, 1.0], [0.1, 0.5], [0.2, 0.6], [1.0, 0.0]])
        with pytest.raises(df.InfeasibleConfigError, match="outside monotone radius 0.1"):
            df.reverse_distortion_bound(0.1, 2, model)


class TestFindPmax:
    def test_white_source_scalar_value(self):
        spec = diagonal_spectrum(np.ones(6))
        assert df.find_pmax(spec, 0.5) == pytest.approx(1.0, rel=3e-6)

    def test_bracket_postcondition(self, exp_model):
        spec = _dense_spectrum(exp_model, 32)
        target = 0.07
        p = df.find_pmax(spec, target)
        assert avg_mmse_from_eigvals(spec.top, p) <= target
        assert avg_mmse_from_eigvals(spec.top, p * (1 + 1e-6)) > target

    def test_nondecreasing_in_target(self, exp_model):
        spec = _dense_spectrum(exp_model, 16)
        values = [df.find_pmax(spec, d) for d in (0.05, 0.1, 0.3, 0.6, 0.9)]
        assert np.all(np.diff(values) >= 0)

    def test_unbounded_target_rejected(self, exp_model):
        spec = _dense_spectrum(exp_model, 4)
        with pytest.raises(df.InfeasibleConfigError, match="unbounded"):
            df.find_pmax(spec, 1.0)

    def test_target_below_clamp_epsilon_rejected(self, exp_model):
        spec = _dense_spectrum(exp_model, 4)
        with pytest.raises(df.InfeasibleConfigError):
            df.find_pmax(spec, 1e-11)


class TestDscSumRate:
    def test_white_source(self):
        spec = diagonal_spectrum(np.ones(4))
        assert df.dsc_sum_rate(spec, 1.0) == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_vanishes_for_large_noise(self, exp_model):
        spec = _dense_spectrum(exp_model, 8)
        assert df.dsc_sum_rate(spec, 1e12) < 1e-10

    def test_exp_two_sensor_frozen_oracle_value(self, exp_model):
        spec = _dense_spectrum(exp_model, 2)
        assert df.dsc_sum_rate(spec, 1.0) == pytest.approx(0.64490832684911, abs=1e-12)

    def test_matches_logdet_oracle(self, exp_model, sinc_model):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = exp_model if rng.integers(2) else sinc_model
            n = int(rng.integers(2, 7))
            p = float(10 ** rng.uniform(-1, 1))
            spec = _dense_spectrum(model, n)
            assert df.dsc_sum_rate(spec, p) == pytest.approx(
                logdet_rate(dense_covariance(model, n), p), abs=1e-9)

    def test_strictly_decreasing_in_noise(self, sinc_model):
        spec = _dense_spectrum(sinc_model, 16)
        rates_ = [df.dsc_sum_rate(spec, p) for p in (0.1, 0.5, 1.0, 4.0)]
        assert np.all(np.diff(rates_) < 0)

    def test_nonpositive_noise_rejected(self, exp_model):
        spec = _dense_spectrum(exp_model, 2)
        with pytest.raises(ValueError):
            df.dsc_sum_rate(spec, 0.0)


class TestCentralizedRate:
    def test_budget_covering_variance_gives_zero_rate(self, exp_model):
        # exp-markov's trace is exactly N: the kms spectrum sums it so, the
        # dense one from eigvalsh to 6.000000000000002, and a budget of N
        # codes nothing from either
        for spec in (_dense_spectrum(exp_model, 6), df.spectrum(exp_model, 6)):
            sol = df.centralized_rate(spec, 1.0)
            assert sol.total_rate_nats == 0.0, spec.backend
            assert sol.per_mode_rate == (), spec.backend

    def test_white_source_equal_allocation(self):
        spec = diagonal_spectrum(np.ones(4))
        sol = df.centralized_rate(spec, 0.25)
        assert sol.theta_level == pytest.approx(0.25, abs=1e-12)
        assert sol.total_rate_nats == pytest.approx(2 * np.log(4), abs=1e-12)

    def test_exp_two_sensor_hand_waterfill(self, exp_model):
        spec = _dense_spectrum(exp_model, 2)
        sol = df.centralized_rate(spec, 0.5)
        assert sol.theta_level == pytest.approx(0.6065306597126334, abs=1e-12)
        assert sol.total_rate_nats == pytest.approx(0.4870384920900533, abs=1e-12)

    def test_matches_bisection_oracle(self, exp_model, sinc_model):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = exp_model if rng.integers(2) else sinc_model
            n = int(rng.integers(2, 33))
            d = float(rng.uniform(0.02, 0.9))
            spec = _dense_spectrum(model, n)
            sol = df.centralized_rate(spec, d)
            level, rate = waterfill_bisect(spec.top, d)
            assert sol.total_rate_nats == pytest.approx(rate, abs=1e-8)

    def test_distortion_constraint_met(self, sinc_model):
        spec = _dense_spectrum(sinc_model, 40)
        for d in (0.05, 0.2, 0.5):
            sol = df.centralized_rate(spec, d)
            achieved = np.minimum(spec.top, sol.theta_level).sum() / 40
            assert abs(achieved - d) / d < 1e-9

    def test_complementary_slackness(self, exp_model):
        spec = _dense_spectrum(exp_model, 25)
        sol = df.centralized_rate(spec, 0.15)
        lam = spec.top
        active = np.arange(lam.size) < len(sol.per_mode_rate)
        assert np.all(lam[active] > sol.theta_level - 1e-9)
        assert np.all(lam[~active] <= sol.theta_level + 1e-9)

    def test_nonpositive_budget_rejected(self, exp_model):
        spec = _dense_spectrum(exp_model, 2)
        with pytest.raises(ValueError):
            df.centralized_rate(spec, 0.0)

    @pytest.mark.parametrize("d", [1e-12, df.rates.CLAMP_FLOOR])
    def test_budget_at_or_below_clamp_floor_refused(self, sinc_model, d):
        # a level under the floor would code all N floor modes, one entry each
        spec = df.spectrum(sinc_model, 10 ** 6)
        with pytest.raises(df.InfeasibleConfigError,
                           match="at or below the clamp floor 1e-10"):
            df.centralized_rate(spec, d)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=64),
           st.floats(0.01, 0.99))
    def test_level_solves_waterfilling(self, lam, fraction):
        # D below the mean eigenvalue, so the level lies under the top mode
        lam = np.asarray(lam)
        d = fraction * float(lam.mean())
        sol = df.centralized_rate(diagonal_spectrum(lam), d)
        level, _ = waterfill_bisect(lam, d)
        assert sol.theta_level == pytest.approx(level, rel=1e-9)
        assert np.minimum(lam, sol.theta_level).sum() == pytest.approx(lam.size * d,
                                                                       rel=1e-9)


class TestBisect:
    @pytest.mark.parametrize("good, bad, edge", [
        (0, 100, 37), (100, 0, 37), (0, 1, 0), (0.0, 1.0, 0.3), (1.0, 0.0, 0.3),
        (0.0, 1e-300, 3e-301)])
    def test_stops_at_the_adjacent_point_evaluating_no_end(self, good, bad, edge):
        # ok holds from good up to edge; ints end one apart, floats one ulp
        seen = []

        def ok(x):
            seen.append(x)
            return x <= edge if good < bad else x >= edge

        got = _bisect(ok, good, bad)
        assert good not in seen and bad not in seen
        step = (math.nextafter(got, bad) if isinstance(got, float)
                else got + (1 if good < bad else -1))
        assert got == edge and not ok(step)


class TestFindTheta:
    def test_loose_target_caps_at_monotone_radius(self, exp_model):
        assert df.find_theta(exp_model, 0.99) == 1.0

    def test_exp_frozen_root(self, exp_model):
        got = df.find_theta(exp_model, 0.1)
        assert abs(got - 0.03532335750977474) < 1e-9
        assert abs(got - theta_root(exp_model, 0.1)) < 1e-9

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    @pytest.mark.parametrize("target", [0.05, 0.1, 0.5, 0.9])
    def test_returned_theta_satisfies_both_conditions(self, kind, target):
        model = df.make_correlation(kind)
        theta = df.find_theta(model, target)
        assert 0 < theta <= model.theta_mono
        assert model(theta) > 0
        assert 1 - model(theta) ** 2 / (1 + theta) <= target + 1e-12

    def test_target_domain(self, exp_model):
        with pytest.raises(ValueError):
            df.find_theta(exp_model, 0.0)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc", "table"])
    def test_theta_is_the_largest_double_meeting_the_condition(self, kind):
        # at 1e-4 theta lies below 1/4096, the first point of the oracle's grid
        if kind == "table":
            tau = np.linspace(0.0, 1.0, 11)
            model = df.make_correlation("custom-table",
                                        np.column_stack([tau, 1 - 1.5 * tau]))
        else:
            model = df.make_correlation(kind)

        def ok(t):
            r = model(t)
            return r > 0 and 1.0 - r * r / (1.0 + t) <= target

        for target in (1e-4, 1e-3, 0.02, 0.1, 0.5):
            theta = df.find_theta(model, target)
            assert 0 < theta < model.theta_mono
            assert ok(theta)
            assert not ok(math.nextafter(theta, math.inf))

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc", "table"])
    def test_matches_scalar_grid_walk(self, kind):
        # same grid, same first failure, same bisection: equal to the last bit;
        # 1e-4 fails at the first grid point, the table turns negative at 2/3
        if kind == "table":
            tau = np.linspace(0.0, 1.0, 11)
            model = df.make_correlation("custom-table",
                                        np.column_stack([tau, 1 - 1.5 * tau]))
        else:
            model = df.make_correlation(kind)
        for target in (1e-4, 1e-3, 0.02, 0.1, 0.5, 0.9, 0.99):
            assert df.find_theta(model, target) == find_theta_loop(model, target)


class TestConstantBounds:
    def test_prop1_value(self):
        assert prop1_sum_rate_bound(1.0) == 0.5

    def test_prop1_from_theta_root(self, exp_model):
        theta = df.find_theta(exp_model, 0.1)
        assert prop1_sum_rate_bound(theta) == pytest.approx(400.72464295, rel=1e-6)

    def test_prop1_dominates_rate_at_window_noise(self, exp_model, sinc_model):
        # ln(1+x) <= x makes (N/2) ln(1 + 1/(theta^2 N)) <= 1/(2 theta^2)
        for model in (exp_model, sinc_model):
            theta = df.find_theta(model, 0.1)
            for n in (32, 128):
                spec = _dense_spectrum(model, n)
                rate = df.dsc_sum_rate(spec, theta ** 2 * n)
                assert rate <= prop1_sum_rate_bound(theta) + 1e-9

    def test_prop1_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prop1_sum_rate_bound(0.0)

    def test_rate_loss_bound_value(self):
        assert df.rate_loss_bound(0.1, 0.01, 1.0) == pytest.approx(0.055, abs=1e-15)

    def test_rate_loss_bound_monotone(self):
        assert df.rate_loss_bound(0.2, 0.01, 0.5) > df.rate_loss_bound(0.1, 0.01, 0.5)
        assert df.rate_loss_bound(0.1, 0.05, 0.5) > df.rate_loss_bound(0.1, 0.01, 0.5)

    def test_rate_loss_bound_rejects_bad_params(self):
        with pytest.raises(ValueError):
            df.rate_loss_bound(0.1, 0.0, 1.0)

    def test_end_to_end_gap_within_loss_bound(self, exp_model, sinc_model):
        # distributed at p = theta^2 N versus centralized at D''(N)
        d_net, n = 0.1, 128
        for model in (exp_model, sinc_model):
            eps = 0.05 * d_net
            theta = df.find_theta(model, d_net - eps)
            spec = _dense_spectrum(model, n)
            gap = (df.dsc_sum_rate(spec, theta ** 2 * n)
                   - df.centralized_rate(
                       spec, df.reverse_distortion_bound(d_net, n, model)).total_rate_nats)
            assert gap <= df.rate_loss_bound(d_net, eps, theta)


class TestRateCurve:
    def test_infeasible_row_flagged_not_dropped(self, exp_model):
        reports = df.rate_curve(exp_model, 0.1, [8, 64])
        assert len(reports) == 2
        assert not reports[0].feasible
        assert reports[1].feasible

    def test_spectrum_over_budget_row_flagged(self):
        # a table's spectrum at N = 8193 needs its 537 MB covariance, over
        # the dense budget
        tau = np.linspace(0.0, 1.0, 201)
        table = df.make_correlation("custom-table", np.column_stack([tau, np.exp(-tau)]))
        reports = df.rate_curve(table, 0.1, [8193, 64])
        assert [r.feasible for r in reports] == [False, True]

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_built_in_rate_curve_peak_is_under_a_mebibyte(self, kind):
        # the built-in kernels have no size cut: their spectra build nothing
        # of size N, so N = 10^7 gives a feasible row within 1 MiB
        model = df.make_correlation(kind)
        df.rate_curve(model, 0.1, [64])
        tracemalloc.start()
        try:
            reports = df.rate_curve(model, 0.1, [2**20, 10**7])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.feasible for r in reports] == [True, True]
        assert peak < 2**20

    def test_sinc_distributed_rate_flat(self, sinc_model):
        reports = df.rate_curve(sinc_model, 0.1, [50, 100, 200, 300, 400, 500])
        rates_ = [r.dsc_sum_rate_nats for r in reports]
        assert max(rates_) / min(rates_) < 1.25

    def test_centralized_never_exceeds_distributed(self, exp_model):
        d_net = 0.1
        reports = df.rate_curve(exp_model, d_net, [16, 32, 64, 128])
        for r in reports:
            assert r.feasible
            assert r.centralized_rate_nats <= r.dsc_sum_rate_nats
            assert 0 < r.d_prime <= d_net <= r.d_double_prime

    def test_pmax_over_n_liminf_proxy(self, exp_model, sinc_model):
        for model in (exp_model, sinc_model):
            reports = df.rate_curve(model, 0.1, [128, 256, 512])
            slopes = [r.p_max / r.N for r in reports]
            assert min(slopes) >= 0.5 * slopes[0]

    def test_exp_markov_bands_hold_at_large_n(self, exp_model):
        # the acceptance criteria 2 and 3 with their sweeps moved up (README):
        # the doubling band holds from N = 1024 on, the flatness band from 512
        reports = df.rate_curve(exp_model, 0.1, [256, 512, 1024, 2048, 4096])
        p_max = {r.N: r.p_max for r in reports}
        rate = {r.N: r.dsc_sum_rate_nats for r in reports}

        def doubling_ok(n):
            return all(1.7 <= p_max[2 * m] / p_max[m] <= 2.3 for m in (n, 2 * n))

        def spread(n):
            sweep = [rate[n * 2 ** i] for i in range(4)]
            return max(sweep) / min(sweep)

        assert doubling_ok(1024) and not doubling_ok(512)
        assert spread(512) <= 1.25 < spread(256)

    def test_empty_n_list_rejected(self, exp_model):
        with pytest.raises(ValueError):
            df.rate_curve(exp_model, 0.1, [])


def test_bound_helpers_are_inverse_of_targets(exp_model):
    n, d_net = 150, 0.1
    dp = df.target_distortion_dsc(d_net, n, exp_model)
    assert jmse_upper_bound(exp_model, n, dp) == pytest.approx(d_net, abs=1e-12)
    dpp = df.reverse_distortion_bound(d_net, n, exp_model)
    assert jmse_lower_bound(exp_model, n, dpp) == pytest.approx(d_net, abs=1e-12)


@pytest.mark.parametrize("charge", [
    lambda m: jmse_upper_bound(m, 3, 0.01),
    lambda m: jmse_lower_bound(m, 3, 0.01),
    lambda m: p2p_distortion_budget(m, 0.1, 6),
    lambda m: p2p_rate_for_K(m, 0.1, 6),
], ids=["jmse_upper_bound", "jmse_lower_bound", "p2p_distortion_budget",
        "p2p_rate_for_K"])
def test_interpolation_charge_refused_past_the_radius(charge):
    # lags 1/(2N) and 1/K = 1/6 lie past the radius 0.157 of e^(-t/10) cos 20t,
    # where rho is negative: 1 - rho^2 there is no bound on the cell's error
    model = df.make_correlation("custom-table", feasibility_tables()["psd"])
    with pytest.raises(df.InfeasibleConfigError,
                       match=f"lag 0.166667 outside monotone radius {model.theta_mono}"):
        charge(model)
