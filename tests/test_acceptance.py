"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 3 are asserted exactly as stated for both correlation models.
Their exp-markov halves fail by substantial, reproducible margins: with the
test-channel budget tied to the sensor-sample target D'(N), the exponential
kernel is still deep in its transient at N <= 512 (D'(N) grows 0.037 -> 0.074
across the sweep), which makes p_max(2N)/p_max(N) ~ 2 (D'(2N)/D'(N))^2 ~ 3-4
and lets the sum rate track 1/(2 D'(N)) rather than a constant.  Both ratios
approach the stated bands only far beyond this N range.  The tests are kept
faithful instead of being loosened; the sinc halves pass.
"""

import time

import numpy as np
import pytest

import densefield as df
import densefield.cli as cli
from densefield.field import _dense_spectrum
from densefield.quantizer import min_levels_for_distortion, p2p_distortion_budget
from densefield.rates import smallest_feasible_n

from oracles import (brute_force_mmse, ddprime_root, dense_covariance, dprime_root,
                     mmse_error, prop1_sum_rate_bound)
from test_quantizer import independent_lloyd_residual

D_NET = 0.1
SWEEP = (64, 128, 256, 512)

_model_cache = {}
_pipeline_cache = {}


def model_of(kind):
    if kind not in _model_cache:
        _model_cache[kind] = df.make_correlation(kind)
    return _model_cache[kind]


def pipeline(kind, n):
    """(cov, d_prime, p_max, dsc_rate) with caching across criteria."""
    key = (kind, n)
    if key not in _pipeline_cache:
        d_prime, cov, p_max = df.dsc_operating_point(model_of(kind), D_NET, n)
        _pipeline_cache[key] = (cov, d_prime, p_max, df.dsc_sum_rate(cov, p_max))
    return _pipeline_cache[key]


def check(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1PointToPointHeadline:
    def test_optimal_k_and_rates(self):
        start = time.monotonic()
        k_sinc, r_sinc = df.optimize_K(model_of("sinc"), D_NET, 100)
        k_exp, r_exp = df.optimize_K(model_of("exp-markov"), D_NET, 200)
        elapsed = time.monotonic() - start
        ok = (k_sinc == 7 and abs(r_sinc - 11.77) <= 0.02
              and k_exp == 24 and abs(r_exp - 46.92) <= 0.02
              and elapsed < 1.0)
        check("1 p2p headline", ok,
              f"sinc K={k_sinc} rate={r_sinc:.4f}, exp K={k_exp} rate={r_exp:.4f}, "
              f"elapsed={elapsed:.2f}s")


class TestCriterion2PmaxDoubling:
    @pytest.mark.parametrize("kind", ["sinc", "exp-markov"])
    def test_doubling_ratio_band(self, kind):
        start = time.monotonic()
        ratios = [pipeline(kind, 2 * n)[2] / pipeline(kind, n)[2] for n in (64, 128)]
        elapsed = time.monotonic() - start
        ok = all(1.7 <= r <= 2.3 for r in ratios) and elapsed < 30.0
        check(f"2 p_max doubling [{kind}]", ok,
              f"p_max(128)/p_max(64)={ratios[0]:.3f}, "
              f"p_max(256)/p_max(128)={ratios[1]:.3f}, elapsed={elapsed:.1f}s")


class TestCriterion3BoundedSumRate:
    @pytest.mark.parametrize("kind", ["sinc", "exp-markov"])
    def test_flat_and_bounded(self, kind):
        start = time.monotonic()
        rates = [pipeline(kind, n)[3] for n in SWEEP]
        theta = df.find_theta(model_of(kind), D_NET - 0.01)
        bound = prop1_sum_rate_bound(theta)
        elapsed = time.monotonic() - start
        spread = max(rates) / min(rates)
        ok = spread <= 1.25 and max(rates) <= bound and elapsed < 120.0
        check(f"3 bounded sum rate [{kind}]", ok,
              f"rates={[round(r, 3) for r in rates]} max/min={spread:.3f} "
              f"bound={bound:.1f} elapsed={elapsed:.1f}s")


class TestCriterion4RateOrderingAndLoss:
    @pytest.mark.parametrize("kind", ["sinc", "exp-markov"])
    def test_ordering_and_loss_bound(self, kind):
        model = model_of(kind)
        eps = 0.05 * D_NET
        theta = df.find_theta(model, D_NET - eps)
        loss_bound = df.rate_loss_bound(D_NET, eps, theta)
        ordering_ok, gaps_ok, details = True, True, []
        for n in SWEEP:
            cov, _, p_max, dsc_rate = pipeline(kind, n)
            cen = df.centralized_rate(
                cov, df.reverse_distortion_bound(D_NET, n, model)).total_rate_nats
            ordering_ok &= cen <= dsc_rate
            if n >= 128:
                gap = df.dsc_sum_rate(cov, theta ** 2 * n) - cen
                gaps_ok &= gap <= loss_bound
                details.append(f"N={n} gap={gap:.2f}")
        ok = ordering_ok and gaps_ok
        check(f"4 rate ordering/loss [{kind}]", ok,
              f"ordering={ordering_ok}, {'; '.join(details)} <= bound={loss_bound:.2f}")


class TestCriterion5OracleEquivalence:
    def test_mmse_against_normal_equations(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(50):
            kind = "exp-markov" if rng.integers(2) else "sinc"
            n = int(rng.integers(1, 7))
            p = float(10 ** rng.uniform(-2, 1))
            cov = df.covariance_matrix(model_of(kind), n)
            res = mmse_error(cov, p)
            sigma = dense_covariance(model_of(kind), n)
            worst = max(worst, float(np.max(np.abs(res - brute_force_mmse(sigma, p)))))
        check("5a mmse oracle", worst < 1e-10, f"max |diff| = {worst:.2e} over 50 configs")

    def test_waterfilling_complementary_slackness(self):
        rng = np.random.default_rng(314)
        worst = 0.0
        for _ in range(20):
            kind = "exp-markov" if rng.integers(2) else "sinc"
            n = int(rng.integers(2, 49))
            d = float(rng.uniform(0.02, 0.95))
            spec = _dense_spectrum(model_of(kind), n)
            sol = df.centralized_rate(spec, d)
            lam = spec.top
            active = np.arange(n) < len(sol.per_mode_rate)
            resid = 0.0
            if np.any(active):
                resid = max(resid, float(np.max(sol.theta_level - lam[active])))
            if np.any(~active):
                resid = max(resid, float(np.max(lam[~active] - sol.theta_level)))
            resid = max(resid, 0.0)
            worst = max(worst, resid)
            worst = max(worst, abs(np.minimum(lam, sol.theta_level).sum() / n - d) / d)
        check("5b waterfill slackness", worst < 1e-9, f"max residual = {worst:.2e}")

    def test_distortion_targets_against_equality_roots(self):
        worst = 0.0
        for kind in ("exp-markov", "sinc"):
            model = model_of(kind)
            for n in (16, 50, 128, 400):
                worst = max(worst, abs(df.target_distortion_dsc(D_NET, n, model)
                                       - dprime_root(model, n, D_NET)))
                worst = max(worst, abs(df.reverse_distortion_bound(D_NET, n, model)
                                       - ddprime_root(model, n, D_NET)))
        check("5c target roots", worst < 1e-12, f"max |closed - root| = {worst:.2e}")


class TestCriterion6LloydMax:
    def test_design_family(self):
        q2 = df.lloyd_max(2)
        two_level_ok = abs(q2.distortion - (1 - 2 / np.pi)) < 1e-6
        resid = {lv: independent_lloyd_residual(df.lloyd_max(lv))
                 for lv in (2, 4, 8, 16, 32, 64)}
        resid_ok = all(r < 1e-9 for r in resid.values())
        deltas = {lv: df.scalar_delta(lv) for lv in (2, 4, 8, 16, 32, 64)}
        delta_ok = all(0 < d < 1 for d in deltas.values())
        ok = two_level_ok and resid_ok and delta_ok
        check("6 lloyd-max", ok,
              f"D(2)-(1-2/pi)={q2.distortion - (1 - 2 / np.pi):.2e}, "
              f"max resid={max(resid.values()):.2e}, "
              f"max delta={max(deltas.values()):.3f} bits")


class TestCriterion7MonteCarloBounds:
    def test_randomized_and_designed_runs(self):
        start = time.monotonic()
        verdicts = []
        rng = np.random.default_rng(424242)
        for trial in range(20):
            kind = "exp-markov" if trial % 2 else "sinc"
            n = int(rng.integers(8, 65))
            p = float(10 ** rng.uniform(-1.5, 0.7))
            rep = df.simulate_dsc(model_of(kind), n, p, seed=9000 + trial)
            verdicts.append(rep.verdict)

        p2p_configs = []
        rng2 = np.random.default_rng(777)
        for trial in range(10):
            kind = "exp-markov" if trial % 2 else "sinc"
            n = int(rng2.choice([16, 24, 32, 40, 48, 60, 64]))
            divisors = [k for k in range(2, n + 1) if n % k == 0]
            k = int(rng2.choice(divisors))
            levels = int(rng2.choice([2, 4, 8, 16, 32, 64]))
            p2p_configs.append((kind, n, k, levels))
        for trial, (kind, n, k, levels) in enumerate(p2p_configs):
            rep = df.simulate_p2p(model_of(kind), n, k, df.lloyd_max(levels),
                                  seed=5000 + trial)
            verdicts.append(rep.verdict)
        all_within = all(v == "within" for v in verdicts)

        exp = model_of("exp-markov")
        cov, d_prime, p_max, _ = pipeline("exp-markov", 64)
        designed_dsc = df.simulate_dsc(exp, 64, p_max, seed=31337)
        dsc_ok = designed_dsc.j_mse <= D_NET + 3 * designed_dsc.stderr_jmse

        budget = p2p_distortion_budget(exp, D_NET, 24)
        quant = df.lloyd_max(min_levels_for_distortion(budget))
        designed_p2p = df.simulate_p2p(exp, 48, 24, quant, seed=271828)
        p2p_ok = designed_p2p.j_mse <= D_NET + 3 * designed_p2p.stderr_jmse

        elapsed = time.monotonic() - start
        ok = all_within and dsc_ok and p2p_ok and elapsed < 300.0
        check("7 monte carlo bounds", ok,
              f"{verdicts.count('within')}/30 within, designed dsc "
              f"j={designed_dsc.j_mse:.4f}, designed p2p j={designed_p2p.j_mse:.4f}, "
              f"elapsed={elapsed:.0f}s")


class TestCriterion8Determinism:
    @pytest.mark.parametrize("name,args", [
        ("rates", ["rates", "--model", "exp", "--n", "16,64", "--seed", "3"]),
        ("pmax", ["pmax-curve", "--model", "sinc", "--n", "32,64", "--seed", "3"]),
        ("p2p", ["p2p", "--model", "exp", "--seed", "3"]),
        ("sim-dsc", ["simulate", "--scheme", "dsc", "--model", "exp", "--n", "16",
                     "--m", "2000", "--seed", "3"]),
        ("sim-p2p", ["simulate", "--scheme", "p2p", "--model", "sinc", "--n", "24",
                     "--m-prime", "200", "--seed", "3"]),
    ])
    def test_rerun_byte_identical(self, name, args, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        code1 = cli.main(args + ["--out", str(a)])
        code2 = cli.main(args + ["--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        check(f"8 determinism [{name}]", code1 == code2 and same,
              f"exit={code1}, byte-identical={same}")


def test_feasibility_scan_values():
    # N1-style thresholds exposed empirically rather than existentially
    assert smallest_feasible_n(model_of("exp-markov"), D_NET) == 10
    assert smallest_feasible_n(model_of("sinc"), D_NET) == 3
