import itertools
import math
import re
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import densefield as df
from densefield import quantizer
from densefield.field import _dense_spectrum
from densefield.quantizer import (_norm_cdf, _norm_pdf, _norm_ppf,
                                  min_levels_for_distortion,
                                  p2p_distortion_budget, p2p_min_feasible_k)
from oracles import (active_sensors_at, active_times, feasibility_tables,
                     lloyd_fixed_point, min_levels_scan, optimize_k_scan,
                     p2p_per_sensor_rate, quantizer_from_json, quantizer_to_json)

PANTER_DITE = math.pi * math.sqrt(3) / 2


@pytest.fixture(scope="module")
def exp_model():
    return df.make_correlation("exp-markov")


@pytest.fixture(scope="module")
def sinc_model():
    return df.make_correlation("sinc")


def _normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def independent_lloyd_residual(q):
    """Recompute midpoint and centroid conditions with scipy quadrature.

    The quadrature has no absolute tolerance, so the tail cells of large
    codebooks, whose mass is far below quad's default one, are measured to
    the same relative accuracy as the central cells.
    """
    res = 0.0
    if q.levels > 1:
        mids = 0.5 * (np.asarray(q.points[:-1]) + np.asarray(q.points[1:]))
        res = float(np.max(np.abs(q.boundaries - mids)))
    edges = np.concatenate(([-np.inf], q.boundaries, [np.inf]))
    with warnings.catch_warnings():
        # the mean of the cell centred on 0 (odd L) is 0 up to rounding, which
        # no relative tolerance can certify
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi, point in zip(edges[:-1], edges[1:], q.points):
            mass, _ = quad(_normal_pdf, lo, hi, epsabs=0.0, epsrel=1e-10)
            mean, _ = quad(lambda x: x * _normal_pdf(x), lo, hi,
                           epsabs=0.0, epsrel=1e-10)
            res = max(res, abs(mean / mass - point))
    return res


class TestLloydMax:
    def test_single_level(self):
        q = df.lloyd_max(1)
        assert q.points.tolist() == [0.0]
        assert q.boundaries.size == 0
        assert q.distortion == 1.0

    def test_two_levels_closed_form(self):
        q = df.lloyd_max(2)
        assert np.allclose(q.points, [-math.sqrt(2 / math.pi),
                                      math.sqrt(2 / math.pi)], atol=1e-12)
        assert q.distortion == pytest.approx(1 - 2 / math.pi, abs=1e-12)
        assert q.boundaries.tolist() == [0.0]

    def test_four_levels_matches_grid_iteration_oracle(self):
        # frozen from a 2e6-point Riemann-grid Lloyd run
        q = df.lloyd_max(4)
        assert q.distortion == pytest.approx(0.11748184783655224, abs=1e-6)
        assert np.allclose(q.points, -q.points[::-1], atol=1e-9)
        assert np.allclose(sorted(np.abs(q.points)),
                           [0.4528, 0.4528, 1.5104, 1.5104], atol=2e-4)

    @pytest.mark.parametrize("levels", [2, 4, 8, 16, 32, 64])
    def test_fixed_point_residual(self, levels):
        q = df.lloyd_max(levels)
        assert independent_lloyd_residual(q) < 1e-9

    def test_distortion_strictly_decreasing_in_levels(self):
        values = [df.lloyd_max(lv).distortion for lv in (1, 2, 4, 8, 16, 32, 64)]
        assert np.all(np.diff(values) < 0)

    def test_distortion_identity_at_fixed_point(self):
        # D = 1 - sum p_j c_j^2 holds at the centroid condition
        q = df.lloyd_max(8)
        edges = np.concatenate(([-np.inf], q.boundaries, [np.inf]))
        prob = np.diff(norm.cdf(edges))
        assert q.distortion == pytest.approx(1 - np.sum(prob * q.points ** 2),
                                             abs=1e-10)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_LLOYD_TOL", 1e-14)
        monkeypatch.setattr(quantizer, "_LLOYD_MAX_ITER", 3)
        # a design cached under the real constants would return at once, and
        # one made under these must not outlive the test
        df.lloyd_max.cache_clear()
        try:
            with pytest.raises(df.ConvergenceError):
                df.lloyd_max(32)
        finally:
            df.lloyd_max.cache_clear()

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            df.lloyd_max(0)
        with pytest.raises(df.InfeasibleConfigError,
                           match="L=32769 exceeds the largest codebook of 32768"):
            df.lloyd_max(quantizer._MAX_LEVELS + 1)

    @pytest.mark.parametrize("levels", range(2, 65))
    def test_newton_matches_fixed_point_oracle(self, levels):
        points, boundaries, distortion = lloyd_fixed_point(levels)
        q = df.lloyd_max(levels)
        assert abs(q.distortion - distortion) <= 1e-12
        assert np.max(np.abs(q.points - points)) <= 1e-8
        oracle = df.ScalarQuantizer(levels=levels, boundaries=boundaries,
                                    points=points, distortion=distortion)
        assert independent_lloyd_residual(q) <= independent_lloyd_residual(oracle)

    def test_construction_leaves_callers_arrays_writeable(self):
        boundaries, points = np.array([0.0]), np.array([-0.8, 0.8])
        q = df.ScalarQuantizer(levels=2, boundaries=boundaries, points=points,
                               distortion=0.36)
        boundaries[0], points[0] = 1.0, 0.0
        assert q.boundaries.tolist() == [0.0] and q.points.tolist() == [-0.8, 0.8]
        with pytest.raises(ValueError):
            q.points[0] = 0.0

    @pytest.mark.parametrize("levels", [512, 1024])
    def test_large_codebooks_converge(self, levels):
        # upper-tail cell probabilities taken as CDF differences floor the
        # residual above tol=1e-11 at these sizes
        assert df.lloyd_max(levels).levels == levels

    def test_large_codebook_residual(self):
        assert independent_lloyd_residual(df.lloyd_max(512)) < 1e-9

    def test_32768_levels_converge(self):
        # with scipy's ndtr the residual floored at 1.26e-11, above tol
        assert df.lloyd_max(32768).levels == 32768


def _mapped(fn, x):
    """The scalar helper ``fn`` at each value of the array x, as an array."""
    return np.array([fn(v) for v in x.tolist()])


class TestNormalFunctions:
    @pytest.mark.parametrize("limit,bound", [(8.0, 5e-14), (37.0, 1e-12)])
    def test_cdf_and_survival_match_scipy(self, limit, bound):
        # the survival function, cdf(-x), gives the probability of cells above 0
        x = np.linspace(-limit, limit, 100_001)
        assert np.max(np.abs(_mapped(_norm_cdf, x) / ndtr(x) - 1.0)) <= bound
        assert np.max(np.abs(_mapped(_norm_cdf, -x) / norm.sf(x) - 1.0)) <= bound

    def test_infinite_edges_exact(self):
        assert [_norm_cdf(-math.inf), _norm_cdf(math.inf)] == [0.0, 1.0]
        assert [_norm_cdf(math.inf), _norm_cdf(-math.inf)] == [1.0, 0.0]
        assert [_norm_pdf(-math.inf), _norm_pdf(math.inf)] == [0.0, 0.0]

    @pytest.mark.parametrize("levels", [2, 3, 64, 1000, 32768])
    def test_quantile_matches_scipy_on_design_grid(self, levels):
        p = (2.0 * np.arange(levels) + 1.0) / (2.0 * levels)
        assert np.max(np.abs(_mapped(_norm_ppf, p) - ndtri(p))) <= 4e-15

    def test_quantile_is_statistics_normaldist_bit_for_bit(self):
        # every starting probability (2i+1)/(2L) of a design up to L = 1,024
        # and at the largest L, and both tails of the open unit interval
        inv_cdf = statistics.NormalDist().inv_cdf
        probs = {(2.0 * i + 1.0) / (2.0 * levels)
                 for levels in (*range(1, 1025), 1 << 16) for i in range(levels)}
        probs |= {1e-300, 1.0 - 2.0 ** -53}
        assert [p for p in probs if _norm_ppf(p) != inv_cdf(p)] == []


class TestLloydMaxProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 256))
    def test_points_antisymmetric_and_increasing(self, levels):
        q = df.lloyd_max(levels)
        assert np.all(np.diff(q.points) > 0)
        assert np.max(np.abs(q.points + q.points[::-1])) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 256))
    def test_boundaries_are_exact_midpoints(self, levels):
        q = df.lloyd_max(levels)
        assert np.array_equal(q.boundaries, 0.5 * (q.points[:-1] + q.points[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 255))
    def test_distortion_strictly_decreasing(self, levels):
        assert df.lloyd_max(levels + 1).distortion < df.lloyd_max(levels).distortion

    @settings(max_examples=40, deadline=None)
    @given(st.integers(65, 256))
    def test_panter_dite_asymptote(self, levels):
        # L^2 D(L) rises toward pi sqrt(3)/2; at L = 64 it is still 3.01% short
        scaled = levels ** 2 * df.lloyd_max(levels).distortion
        assert abs(scaled - PANTER_DITE) <= 0.03 * PANTER_DITE


class TestQuantize:
    def test_single_level_everything_to_zero(self):
        q = df.lloyd_max(1)
        assert df.quantize(q, 3.7) == (0, 0.0)
        assert df.quantize(q, -100.0) == (0, 0.0)

    def test_two_level_sign_rule(self):
        q = df.lloyd_max(2)
        idx, rep = df.quantize(q, -0.3)
        assert idx == 0
        assert rep == pytest.approx(-math.sqrt(2 / math.pi), abs=1e-12)

    def test_boundary_tie_goes_to_upper_cell(self):
        q = df.lloyd_max(2)
        idx, rep = df.quantize(q, 0.0)
        assert idx == 1 and rep > 0
        q4 = df.lloyd_max(4)
        for b in q4.boundaries:
            idx, _ = df.quantize(q4, float(b))
            assert q4.boundaries[idx - 1] == b  # landed in the cell above b

    def test_vectorized(self):
        q = df.lloyd_max(8)
        x = np.linspace(-3, 3, 101)
        idx, rep = df.quantize(q, x)
        assert idx.shape == x.shape
        assert np.all(rep == q.points[idx])

    def test_json_round_trip(self):
        q = df.lloyd_max(16)
        q2 = quantizer_from_json(quantizer_to_json(q))
        assert q2.levels == q.levels
        assert np.allclose(q2.boundaries, q.boundaries, atol=0)
        assert np.allclose(q2.points, q.points, atol=0)
        assert q2.distortion == q.distortion


class TestP2pRate:
    def test_sinc_headline_number(self, sinc_model):
        rate = df.p2p_rate_for_K(sinc_model, 0.1, 7)
        assert rate == pytest.approx(11.77, abs=0.02)
        assert rate == pytest.approx(11.769890182781225, abs=1e-10)

    def test_exp_headline_number(self, exp_model):
        rate = df.p2p_rate_for_K(exp_model, 0.1, 24)
        assert rate == pytest.approx(46.92, abs=0.02)
        assert rate == pytest.approx(46.91765683369868, abs=1e-10)

    def test_unit_budget_gives_zero_rate(self, exp_model):
        d_net = 2.0 - exp_model(1.0) ** 2
        assert df.p2p_rate_for_K(exp_model, d_net, 1) == pytest.approx(0.0, abs=1e-9)

    def test_budget_above_one_rejected(self, exp_model):
        with pytest.raises(df.InfeasibleConfigError):
            df.p2p_rate_for_K(exp_model, 1.9, 24)

    def test_infeasible_k_rejected(self, sinc_model):
        with pytest.raises(df.InfeasibleConfigError):
            df.p2p_rate_for_K(sinc_model, 0.1, 5)

    def test_sum_rate_constant_in_n(self, exp_model):
        k = 24
        total = df.p2p_rate_for_K(exp_model, 0.1, k)
        for n in (k, 2 * k, 8 * k):
            assert p2p_per_sensor_rate(exp_model, 0.1, k, n) * n == pytest.approx(
                total, rel=1e-12)

    def test_min_feasible_k(self, exp_model, sinc_model):
        assert p2p_min_feasible_k(sinc_model, 0.1) == 6
        assert p2p_min_feasible_k(exp_model, 0.1) == 19
        assert p2p_min_feasible_k(exp_model, 0.9) == 1  # 1 - e^-2 < 0.9

    @pytest.mark.parametrize("name, k_min", [("psd", 64), ("bump", 16), ("dip", 98)])
    def test_min_feasible_k_inside_monotone_radius(self, name, k_min):
        # rho^2(1/K) alone passed at K = 6, 6 and 2, lags where rho had
        # turned negative (psd) or risen back (bump, dip) within the cell
        model = df.make_correlation("custom-table", feasibility_tables()[name])
        assert p2p_min_feasible_k(model, 0.1) == k_min


class TestOptimizeK:
    def test_sinc_optimum(self, sinc_model):
        k, rate = df.optimize_K(sinc_model, 0.1, 100)
        assert k == 7
        assert rate == pytest.approx(11.77, abs=0.02)

    def test_exp_optimum(self, exp_model):
        k, rate = df.optimize_K(exp_model, 0.1, 200)
        assert k == 24
        assert rate == pytest.approx(46.92, abs=0.02)

    def test_default_window_brackets_minimizer(self, sinc_model, exp_model):
        assert df.optimize_K(sinc_model, 0.1)[0] == 7
        assert df.optimize_K(exp_model, 0.1)[0] == 24

    def test_window_below_feasibility_rejected(self, exp_model):
        with pytest.raises(df.InfeasibleConfigError):
            df.optimize_K(exp_model, 0.1, k_max=10)

    @pytest.mark.parametrize("d_net", [-0.1, 0.0, 1.0, 1.05, 1.9])
    def test_dnet_outside_unit_interval_rejected(self, exp_model, d_net):
        # 1.9 once raised a divisor-filter error with no n_sensors given, and
        # 1.0 and 1.05 returned a K* for a target a zero rate already meets
        with pytest.raises(ValueError, match=r"d_net must lie in \(0, 1\)"):
            df.optimize_K(exp_model, d_net)

    def test_no_divisor_of_n_in_window_rejected(self, exp_model):
        # K_min = 19 and none of 19..22 divides 23
        with pytest.raises(df.InfeasibleConfigError, match="divides N=23"):
            df.optimize_K(exp_model, 0.1, k_max=22, n_sensors=23)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc", "table"])
    def test_matches_scalar_scan(self, kind):
        # the scan picks the oracle's K* and returns its rate bits; the
        # appended d_net puts exp-markov's K* at 2, where a log of D_2 taken
        # by numpy over an array was one ulp off math.log's (AVX-512 build)
        model = (df.make_correlation("custom-table", [[0.0, 1.0], [1.0, 0.0]])
                 if kind == "table" else df.make_correlation(kind))
        checked = 0
        for d_net in np.append(np.geomspace(0.005, 0.95, 40), 0.9376135423518246):
            k_min = p2p_min_feasible_k(model, d_net)
            for k_max, n in itertools.product((None, k_min, 3 * k_min),
                                              (None, 23, 360, 480)):
                window = k_max or n or 10 * k_min
                want = (optimize_k_scan(model, d_net, k_min, window, n)
                        if window >= k_min else None)
                if want is None:
                    match = "divides N" if window >= k_min else "need at least"
                    with pytest.raises(df.InfeasibleConfigError, match=match):
                        df.optimize_K(model, d_net, k_max, n)
                    continue
                got = df.optimize_K(model, d_net, k_max, n)
                assert got == want, (d_net, k_max, n)
                checked += 1
        assert checked > 100


class TestTdmaSchedule:
    def test_four_sensor_example(self):
        assert df.tdma_schedule(4, 2, 2) == 4
        assert active_times(4, 2, 2) == {1: (1, 3), 2: (2, 4), 3: (1, 3), 4: (2, 4)}

    def test_all_active_when_k_equals_n(self):
        assert df.tdma_schedule(3, 3, 4) == 4
        for sensor, times in active_times(3, 3, 4).items():
            assert times == (1, 2, 3, 4)

    def test_exactly_k_active_per_step(self):
        n_steps = df.tdma_schedule(12, 4, 3)
        assert n_steps == 9
        for t in range(1, n_steps + 1):
            active = [s for s, times in active_times(12, 4, 3).items() if t in times]
            assert len(active) == 4
            assert sorted(active) == sorted(active_sensors_at(12, 4, t))
            # one per sub-interval
            subs = {(s - 1) // (12 // 4) for s in active}
            assert len(subs) == 4

    def test_total_active_slots(self):
        # K active sensors in each of the m' N / K steps
        slots = sum(len(t) for t in active_times(8, 2, 5).values())
        assert slots == 2 * df.tdma_schedule(8, 2, 5) == 8 * 5

    def test_k_must_divide_n(self):
        with pytest.raises(df.InfeasibleConfigError):
            df.tdma_schedule(10, 4, 1)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_refused(self, k):
        with pytest.raises(df.InfeasibleConfigError):
            df.tdma_schedule(12, k, 1)

    @pytest.mark.parametrize("m_prime", [0, -1])
    def test_needs_a_frame(self, m_prime):
        with pytest.raises(ValueError):
            df.tdma_schedule(12, 4, m_prime)


class TestScalarDelta:
    def test_two_levels(self):
        assert df.scalar_delta(2) == pytest.approx(0.2697759132054156, abs=1e-9)

    def test_four_levels(self):
        d4 = df.lloyd_max(4).distortion
        assert df.scalar_delta(4) == pytest.approx(2 - 0.5 * math.log2(1 / d4),
                                                   abs=1e-12)
        assert df.scalar_delta(4) == pytest.approx(0.455, abs=2e-3)

    def test_positive_and_below_one_bit(self):
        for lv in (2, 4, 8, 16, 32, 64):
            delta = df.scalar_delta(lv)
            assert 0 < delta < 1

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            df.scalar_delta(1)


def test_min_levels_for_distortion(exp_model):
    budget = p2p_distortion_budget(exp_model, 0.1, 24)
    levels = min_levels_for_distortion(budget)
    assert df.lloyd_max(levels).distortion <= budget
    assert df.lloyd_max(levels - 1).distortion > budget


def test_min_levels_for_distortion_1e4():
    assert min_levels_for_distortion(1e-4) == 164
    assert df.lloyd_max(164).distortion <= 1e-4 < df.lloyd_max(163).distortion


@pytest.mark.parametrize("max_levels", [50, 64])
def test_min_levels_matches_linear_scan(max_levels, monkeypatch):
    # targets at, just above and just below each D(L); below D(max_levels)
    # no codebook qualifies and both refuse
    # designed before the cap is lowered: lloyd_max refuses L over it
    dists = [df.lloyd_max(levels).distortion for levels in range(1, 65)]
    monkeypatch.setattr(quantizer, "_MAX_LEVELS", max_levels)
    for d in dists:
        for target in (d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf)):
            want = min_levels_scan(target, max_levels)
            if want is None:
                with pytest.raises(df.InfeasibleConfigError):
                    min_levels_for_distortion(target)
            else:
                assert min_levels_for_distortion(target) == want


def test_min_levels_refuses_beyond_the_largest_codebook(monkeypatch):
    monkeypatch.setattr(quantizer, "_MAX_LEVELS", 8)
    target = df.lloyd_max(8).distortion
    assert min_levels_for_distortion(target) == 8
    below = float(np.nextafter(target, -np.inf))
    with pytest.raises(df.InfeasibleConfigError,
                       match=re.escape(f"no codebook up to 8 levels reaches {below}")):
        min_levels_for_distortion(below)


def test_min_levels_designs_logarithmically_many():
    levels = 2000
    target = df.lloyd_max(levels).distortion
    df.lloyd_max.cache_clear()
    assert min_levels_for_distortion(target) == levels
    assert df.lloyd_max.cache_info().misses <= 2 * math.ceil(math.log2(levels)) + 2


@pytest.mark.parametrize("kind", ["sinc", "exp-markov"])
def test_p2p_costs_more_than_distributed_coding(kind):
    # simplicity is paid for in rate: the optimized TDMA sum rate sits well
    # above the distributed scheme's at the same field target
    model = df.make_correlation(kind)
    _, p2p_rate = df.optimize_K(model, 0.1)
    n = 256
    spec = _dense_spectrum(model, n)
    p_max = df.find_pmax(spec, df.target_distortion_dsc(0.1, n, model))
    assert p2p_rate > df.dsc_sum_rate(spec, p_max)
