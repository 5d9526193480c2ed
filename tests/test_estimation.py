import numpy as np
import pytest

import densefield as df
from densefield.estimation import avg_mmse_from_eigvals
from densefield.field import CovariancePack

from oracles import (averaging_estimator_mse_bound, brute_force_mmse,
                     dense_covariance, mmse_error)


@pytest.fixture(scope="module")
def exp_model():
    return df.make_correlation("exp-markov")


@pytest.fixture(scope="module")
def sinc_model():
    return df.make_correlation("sinc")


def diagonal_pack(n):
    return CovariancePack.from_matrix(np.eye(n))


class TestMmseEstimate:
    def test_noiseless_channel_returns_observation(self, exp_model):
        cov = df.covariance_matrix(exp_model, 4)
        u = np.array([0.3, -1.2, 0.7, 2.0])
        assert np.allclose(df.mmse_estimate(cov, 0.0, u), u, atol=1e-12)

    def test_noiseless_with_clamped_spectrum_is_conditioning_error(self, sinc_model):
        cov = df.covariance_matrix(sinc_model, 64)
        assert cov.n_clamped > 0
        with pytest.raises(df.ConditioningError):
            df.mmse_estimate(cov, 0.0, np.zeros(64))

    def test_white_source_halves_observation(self):
        cov = diagonal_pack(4)
        u = np.array([2.0, -4.0, 0.5, 1.0])
        assert np.allclose(df.mmse_estimate(cov, 1.0, u), u / 2, atol=1e-14)

    def test_zero_observation_maps_to_zero(self, exp_model):
        cov = df.covariance_matrix(exp_model, 5)
        got = df.mmse_estimate(cov, 0.7, np.zeros(5))
        assert np.all(got == 0.0)

    def test_linear_in_observation(self, exp_model):
        cov = df.covariance_matrix(exp_model, 6)
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        lhs = df.mmse_estimate(cov, 0.4, 2.0 * u - 3.0 * v)
        rhs = 2.0 * df.mmse_estimate(cov, 0.4, u) - 3.0 * df.mmse_estimate(cov, 0.4, v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_batch_shape(self, exp_model):
        cov = df.covariance_matrix(exp_model, 3)
        batch = np.random.default_rng(0).standard_normal((10, 3))
        out = df.mmse_estimate(cov, 0.5, batch)
        assert out.shape == (10, 3)
        assert np.allclose(out[2], df.mmse_estimate(cov, 0.5, batch[2]), atol=1e-14)

    def test_observation_length_mismatch_rejected(self, exp_model):
        cov = df.covariance_matrix(exp_model, 4)
        with pytest.raises(ValueError, match="observation length 3 != 4"):
            df.mmse_estimate(cov, 0.5, np.zeros(3))

    def test_negative_noise_rejected(self, exp_model):
        cov = df.covariance_matrix(exp_model, 2)
        with pytest.raises(ValueError):
            df.mmse_estimate(cov, -1.0, np.zeros(2))
        with pytest.raises(ValueError):
            mmse_error(cov, -1.0)


class TestMmseError:
    def test_perfect_observation(self, exp_model):
        cov = df.covariance_matrix(exp_model, 4)
        res = mmse_error(cov, 0.0)
        assert res.mean() <= 1e-8

    def test_white_source_closed_form(self):
        res = mmse_error(diagonal_pack(5), 3.0)
        assert np.allclose(res, 0.75, atol=1e-14)

    def test_exp_two_sensor_frozen_oracle_value(self, exp_model):
        # brute-force normal equations on the 2x2 with off-diagonal e^-0.5
        cov = df.covariance_matrix(exp_model, 2)
        res = mmse_error(cov, 1.0)
        assert res.mean() == pytest.approx(0.4493574848063286, abs=1e-12)
        oracle = brute_force_mmse(dense_covariance(exp_model, 2), 1.0)
        assert np.allclose(res, oracle, atol=1e-12)

    def test_monotone_in_noise(self, exp_model, sinc_model):
        for model in (exp_model, sinc_model):
            cov = df.covariance_matrix(model, 24)
            values = [mmse_error(cov, p).mean()
                      for p in (0.01, 0.1, 0.5, 1.0, 5.0, 50.0)]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)

    def test_saturates_at_unit_variance(self, exp_model):
        cov = df.covariance_matrix(exp_model, 8)
        res = mmse_error(cov, 1e12)
        assert res.mean() <= 1.0 + 1e-9
        assert res.mean() > 0.999

    def test_entries_in_unit_interval_and_mean_consistent(self, sinc_model):
        cov = df.covariance_matrix(sinc_model, 32)
        res = mmse_error(cov, 0.8)
        assert np.all(res >= 0.0)
        assert np.all(res <= 1.0 + 1e-9)
        assert res.mean() == pytest.approx(avg_mmse_from_eigvals(cov.eigvals, 0.8),
                                           abs=1e-15)

    def test_matches_brute_force_for_small_n(self, exp_model, sinc_model):
        rng = np.random.default_rng(17)
        for _ in range(12):
            model = exp_model if rng.integers(2) else sinc_model
            n = int(rng.integers(1, 7))
            p = float(10 ** rng.uniform(-2, 1))
            cov = df.covariance_matrix(model, n)
            res = mmse_error(cov, p)
            oracle = brute_force_mmse(dense_covariance(model, n), p)
            assert np.max(np.abs(res - oracle)) < 1e-10


@pytest.mark.parametrize("p", [1e-3, 0.5, 10.0])
@pytest.mark.parametrize("n", [7, 64])
@pytest.mark.parametrize("kind", ["exp-markov", "sinc", "table"])
def test_mean_error_is_the_eigenvalue_average(kind, n, p):
    # sum_i (V o V)_ik = 1 for every mode k, so the sensors' mean MSE is the
    # modes' mean: the O(N) average needs no eigenvectors
    if kind == "table":
        tau = np.linspace(0.0, 1.0, 101)
        model = df.make_correlation("custom-table",
                                    np.column_stack([tau, np.maximum(0.0, 1.0 - tau / 0.6)]))
    else:
        model = df.make_correlation(kind)
    cov = df.covariance_matrix(model, n)
    per_sensor = mmse_error(cov, p)
    assert per_sensor.shape == (n,)
    assert per_sensor.mean() == pytest.approx(avg_mmse_from_eigvals(cov.eigvals, p),
                                              rel=1e-13)


class TestAveragingEstimatorBound:
    def test_zero_noise_large_window_limit(self, exp_model):
        theta = 0.3
        val = averaging_estimator_mse_bound(exp_model, 10 ** 9, theta, 0.0)
        assert val == pytest.approx(1 - np.exp(-2 * theta), rel=1e-6)

    def test_frozen_arithmetic_example(self, exp_model):
        # theta=0.2, N=100, p = N theta^2 = 4
        val = averaging_estimator_mse_bound(exp_model, 100, 0.2, 4.0)
        assert val == pytest.approx(0.4972599654732706, abs=1e-12)

    def test_bounds_optimal_estimator(self, exp_model, sinc_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = exp_model if rng.integers(2) else sinc_model
            n = int(rng.integers(8, 65))
            theta = float(rng.uniform(3.0 / n, model.theta_mono))
            if model(theta) <= 0:
                continue
            p = float(10 ** rng.uniform(-2, 1))
            cov = df.covariance_matrix(model, n)
            res = mmse_error(cov, p)
            bound = averaging_estimator_mse_bound(model, n, theta, p)
            assert bound >= np.max(res) - 1e-12

    def test_small_window_rejected(self, exp_model):
        with pytest.raises(ValueError):
            averaging_estimator_mse_bound(exp_model, 4, 0.25, 1.0)

    def test_theta_beyond_monotone_radius_rejected(self, exp_model):
        with pytest.raises(ValueError):
            averaging_estimator_mse_bound(exp_model, 100, 1.5, 1.0)
