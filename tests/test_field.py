import math
import tracemalloc

import numpy as np
import pytest

import densefield as df
import densefield.field as field_mod
import densefield.rates as rates_mod
import densefield.sim as sim_mod
from densefield.field import DENSE_BUDGET_BYTES, _clamped, check_dense_size
from densefield.rates import CLAMP_FLOOR, Spectrum

from oracles import (dense_covariance, descending_eigvals, dpss_sinc_eigpairs,
                     interpolate, kms_eigvals, nearest_sample_index,
                     nearest_sample_location, seeded_generator, sinc_factor,
                     slepian_tridiagonal_eigvals)

D_NET = 0.1
STRUCTURED_N = (*range(1, 257), 1000, 2047, 2048)


def split_eigvals(model, n):
    """The unclamped eigenvalues of the reflection split, descending, in the
    order of the pack's modes (the pack keeps only the clamped ones)."""
    return field_mod._split_eigpairs(field_mod._first_row(model, n))[0]


@pytest.fixture(scope="module")
def exp_model():
    return df.make_correlation("exp-markov")


@pytest.fixture(scope="module")
def sinc_model():
    return df.make_correlation("sinc")


class TestMakeCorrelation:
    def test_rho_at_zero_is_one(self, sinc_model, exp_model):
        assert sinc_model(0.0) == 1.0
        assert exp_model(0.0) == 1.0

    def test_exp_markov_value(self, exp_model):
        assert exp_model(1 / 24) == pytest.approx(0.9591894571091382, abs=1e-15)

    def test_sinc_value(self, sinc_model):
        assert sinc_model(0.5) == pytest.approx(2 / np.pi, abs=1e-15)

    def test_theta_mono(self, sinc_model, exp_model):
        # sinc has no stationary point on (0, 1]; both radii cap at 1
        assert sinc_model.theta_mono == 1.0
        assert exp_model.theta_mono == 1.0

    def test_model_is_immutable(self, exp_model):
        with pytest.raises(AttributeError):
            exp_model.theta_mono = 0.5
        assert exp_model.theta_mono == 1.0

    def test_models_compare_by_value(self):
        assert df.make_correlation("exp-markov") == df.make_correlation("exp-markov")
        assert df.make_correlation("exp-markov") != df.make_correlation("sinc")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            df.make_correlation("gauss")

    def test_builtin_kinds_take_no_params(self):
        with pytest.raises(ValueError):
            df.make_correlation("sinc", [0.3])

    def test_table_validation(self):
        with pytest.raises(ValueError):  # rho(0) != 1
            df.make_correlation("custom-table", [[0.0, 0.9], [1.0, 0.5]])
        with pytest.raises(ValueError):  # |rho| > 1
            df.make_correlation("custom-table", [[0.0, 1.0], [1.0, 1.2]])
        with pytest.raises(ValueError):  # non-increasing lags
            df.make_correlation("custom-table", [[0.0, 1.0], [0.0, 0.5], [1.0, 0.1]])
        with pytest.raises(ValueError):  # does not cover lag 1
            df.make_correlation("custom-table", [[0.0, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("table, err", [
        ([[0.0, 1.0]], "needs at least two rows"),
        ([[0.1, 1.0], [1.0, 0.5]], "must start at tau = 0"),
    ], ids=["one-row", "no-zero-lag"])
    def test_table_shape_refused(self, table, err):
        with pytest.raises(ValueError, match=f"correlation table {err}"):
            df.make_correlation("custom-table", table)

    @pytest.mark.parametrize("table", [
        [[0.0, 1.0], [np.nan, 0.5], [1.0, 0.2]],
        [[0.0, 1.0], [0.5, np.nan], [1.0, 0.2]],
        [[0.0, 1.0], [0.5, 0.5], [np.inf, 0.2]],
    ], ids=["nan-lag", "nan-value", "inf-lag"])
    def test_table_needs_finite_entries(self, table):
        with pytest.raises(ValueError, match="correlation table values must be finite"):
            df.make_correlation("custom-table", table)

    def test_table_interpolation_and_mono_radius(self):
        model = df.make_correlation(
            "custom-table", [[0.0, 1.0], [0.5, 0.6], [0.75, 0.7], [1.0, 0.1]])
        assert model(0.25) == pytest.approx(0.8)
        assert model(-0.25) == pytest.approx(0.8)
        assert model.theta_mono == pytest.approx(0.5)
        with pytest.raises(ValueError):
            model(1.5)

    def test_flat_param_list(self):
        model = df.make_correlation("custom-table", [[0.0, 1.0], [1.0, 0.2]])
        assert model(0.5) == pytest.approx(0.6)

    @pytest.mark.parametrize("table", [
        [0.0, 1.0, 1.0, 0.2],                     # flat, not (tau, rho) rows
        [[0.0, 1.0, 7.0], [1.0, 0.2, 7.0]],       # a third column
    ], ids=["flat", "three-columns"])
    def test_table_needs_two_columns(self, table):
        with pytest.raises(ValueError, match="exactly two columns"):
            df.make_correlation("custom-table", table)

    def test_csv_loader(self, tmp_path):
        tau = np.linspace(0.0, 1.0, 201)
        table = np.column_stack([tau, np.exp(-tau)])
        path = tmp_path / "rho.csv"
        np.savetxt(path, table, delimiter=",")
        model = df.load_correlation_table(path)
        assert model.kind == "custom-table"
        assert model(0.1) == pytest.approx(np.exp(-0.1), abs=1e-5)

    def test_rho_bounded_on_unit_interval(self, sinc_model, exp_model):
        tau = np.linspace(0.0, 1.0, 10_000)
        for model in (sinc_model, exp_model):
            vals = model(tau)
            assert np.all(np.abs(vals) <= 1 + 1e-12)
            assert model(0.0) == 1.0


# every lag the p2p scan and the regular grids evaluate: 1/K for K up to the
# scan's limit, the half-spacings 1/(2N) and 0
BRANCH_LAGS = np.concatenate([1.0 / np.arange(1, 100_001),
                              1.0 / (2.0 * np.arange(1, 4097)), [0.0]])


class TestRhoBranches:
    """A float lag of a built-in kind takes ``math``, an array numpy."""

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_scalar_branch_matches_array_branch(self, kind):
        model = df.make_correlation(kind)
        array = model(BRANCH_LAGS)
        scalar = np.array([model(t) for t in BRANCH_LAGS.tolist()])
        if kind == "sinc":   # the same operations: identical bits
            assert np.array_equal(scalar.view(np.int64), array.view(np.int64))
        else:                # math.exp against numpy's: within one ulp
            assert np.all(np.abs(scalar - array) <= np.spacing(array))

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_rho_is_one_at_zero_and_even(self, kind):
        model = df.make_correlation(kind)
        assert [model(0.0), model(-0.0), model(0)] == [1.0, 1.0, 1.0]
        assert model(np.zeros(2)).tolist() == [1.0, 1.0]
        lags = BRANCH_LAGS.tolist()
        assert [model(-t) for t in lags] == [model(t) for t in lags]
        assert np.array_equal(model(-BRANCH_LAGS), model(BRANCH_LAGS))


class TestSensorGrid:
    def test_single_sensor_midpoint(self):
        assert df.sensor_positions(1).tolist() == [0.5]

    def test_two_sensors(self):
        assert df.sensor_positions(2).tolist() == [0.25, 0.75]

    def test_four_sensors(self):
        assert df.sensor_positions(4).tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_zero_rejected(self, exp_model):
        for build in (df.sensor_positions,
                      lambda n: df.covariance_matrix(exp_model, n),
                      lambda n: df.spectrum(exp_model, n)):
            with pytest.raises(ValueError, match="need at least one sensor"):
                build(0)


class TestCovariance:
    # the pack decomposes the symmetric Toeplitz matrix of rho at the lags
    # of _first_row, which holds the first row of the covariance

    def test_exp_two_sensor_entries(self, exp_model):
        row = field_mod._first_row(exp_model, 2)
        assert row[1] == pytest.approx(0.6065306597126334, abs=1e-15)
        assert row[0] == 1.0

    def test_single_sensor_unit(self, exp_model):
        assert field_mod._first_row(exp_model, 1).tolist() == [1.0]

    def test_sinc_three_sensor_far_entry(self, sinc_model):
        row = field_mod._first_row(sinc_model, 3)
        assert row[2] == pytest.approx(0.4134966715663441, abs=1e-15)

    def test_exact_symmetry_and_bounded_offdiag(self, sinc_model):
        # the two halves eigh solves, and rho off the diagonal
        row = field_mod._first_row(sinc_model, 17)
        for half in field_mod._reflection_split(row):
            assert np.max(np.abs(half - half.T)) == 0.0
        assert np.max(np.abs(row[1:])) <= 1.0

    def test_non_psd_table_refused(self):
        # box kernel: rho = 1 below lag 0.3, else 0; not a valid covariance
        tau = np.linspace(0.0, 1.0, 1001)
        box = df.make_correlation("custom-table",
                                  np.column_stack([tau, (tau < 0.3).astype(float)]))
        with pytest.raises(df.ConditioningError, match="positive semidefinite"):
            df.covariance_matrix(box, 64)
        with pytest.raises(df.ConditioningError, match="positive semidefinite"):
            df.spectrum(box, 64)

    def test_dense_budget_refused_before_allocation(self, exp_model):
        n_max = math.isqrt(DENSE_BUDGET_BYTES // 8)
        check_dense_size(n_max * n_max, "N")
        tau = np.linspace(0.0, 1.0, 101)
        table = df.make_correlation("custom-table",
                                    np.column_stack([tau, np.exp(-tau)]))
        builds = (lambda: df.covariance_matrix(exp_model, n_max + 1),
                  lambda: df.spectrum(table, n_max + 1))
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(df.InfeasibleConfigError,
                                   match=f"N = {n_max + 1} .* 512 MiB"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_eigendecomposition_reconstructs(self, sinc_model):
        cov = df.covariance_matrix(sinc_model, 64)
        raw = split_eigvals(sinc_model, 64)
        recon = (cov.eigvecs * raw) @ cov.eigvecs.T
        assert np.max(np.abs(recon - dense_covariance(sinc_model, 64))) <= 1e-8
        assert cov.n_clamped > 0  # band-limited kernel is rank deficient
        assert np.all(cov.eigvals >= CLAMP_FLOOR)

    def test_eigvals_descending(self, exp_model):
        cov = df.covariance_matrix(exp_model, 12)
        assert np.all(np.diff(cov.eigvals) <= 0)


def _split_models():
    # a triangle kernel is convex and decreasing on [0, inf), so positive
    # definite by Polya's criterion, and its linear interpolant is itself
    tau = np.linspace(0.0, 1.0, 101)
    triangle = np.column_stack([tau, np.maximum(0.0, 1.0 - tau / 0.6)])
    return {"exp": df.make_correlation("exp-markov"),
            "sinc": df.make_correlation("sinc"),
            "table": df.make_correlation("custom-table", triangle)}


class TestReflectionSplit:
    """covariance_matrix and the dense spectrum backend solve two half-size
    problems; each is checked against one full-size decomposition."""

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 1024, 1025])
    @pytest.mark.parametrize("name", ["exp", "sinc", "table"])
    def test_matches_full_eigendecomposition(self, name, n):
        model = _split_models()[name]
        cov = df.covariance_matrix(model, n)
        sigma = dense_covariance(model, n)
        raw = split_eigvals(model, n)
        full = np.linalg.eigvalsh(sigma)[::-1]
        np.testing.assert_allclose(raw, full, rtol=0, atol=1e-12 * n)
        vecs = cov.eigvecs
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), rtol=0, atol=1e-12)
        np.testing.assert_allclose((vecs * raw) @ vecs.T, sigma,
                                   rtol=0, atol=1e-12 * n)
        assert set(np.unique(cov.parity)) <= {-1.0, 1.0}
        assert np.array_equal(vecs[::-1], vecs * cov.parity)
        coef = np.random.default_rng(n).standard_normal((3, n))
        np.testing.assert_allclose(cov.to_sensors(coef), coef @ vecs.T,
                                   rtol=0, atol=1e-12 * n)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("name", ["exp", "sinc", "table"])
    def test_sensor_variances_match_dense(self, name, n):
        # (V o V) s from the two half-size blocks, and from a from_matrix
        # pack's one V, against the unfolded V of each
        split = df.covariance_matrix(_split_models()[name], n)
        s = np.random.default_rng(n).random(n)
        sigma = dense_covariance(_split_models()[name], n)
        for cov in (split, df.CovariancePack.from_matrix(sigma)):
            np.testing.assert_allclose(cov.sensor_variances(s),
                                       (cov.eigvecs ** 2) @ s,
                                       rtol=0, atol=1e-12)

    def test_pack_retains_less_than_one_matrix(self, exp_model):
        # the two blocks hold ceil(N/2)^2 + floor(N/2)^2 = N^2 / 2 floats;
        # an unfolded N x N eigvecs, a cached V sqrt(Lambda) or a kept N x N
        # covariance each fill one N x N matrix more
        n = 1024
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cov = df.covariance_matrix(exp_model, n)
            cov.to_sensors(np.ones((2, n)))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < n * n * 8

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 1024, 1025])
    def test_table_spectrum_matches_full_eigvalsh(self, n):
        model = _split_models()["table"]
        spec, dense = df.spectrum(model, n), _dense_spectrum(model, n)
        assert spec.backend == "dense" and spec.n_clamped == dense.n_clamped
        np.testing.assert_allclose(descending_eigvals(spec), dense.top, rtol=0,
                                   atol=1e-12 * n)


class TestKmsPrecision:
    """The tridiagonal inverse of the exp-markov covariance, from which
    simulate_dsc draws its test-channel error, and simulate_p2p (at p = inf)
    the field, without eigenvectors."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024])
    def test_is_the_inverse(self, exp_model, n):
        # U U^T of the bidiagonal factor is inv(Sigma) + I/p, against the
        # dense inverse up to N = 64 and as U U^T Sigma = I + Sigma/p at every
        # N (at N = 1024 the dense inverse is itself off by 3.6e-12 of its
        # largest entry); one sensor's inverse is [1], not the corner value
        # 1/(1 - a^2); p = inf gives inv(Sigma) itself
        sigma = dense_covariance(exp_model, n)
        for p in (1e-3, 1.0, 11.97, 1e6, math.inf):
            u, w = sim_mod._markov_factor(n, p)
            factor = np.diag(u) + np.diag(w[1:], k=1)
            precision = factor @ factor.T
            rhs = np.eye(n) + sigma / p
            np.testing.assert_allclose(precision @ sigma, rhs, rtol=0,
                                       atol=1e-12 * np.max(rhs))
            if n <= 64:
                want = np.linalg.inv(sigma) + np.eye(n) / p
                np.testing.assert_allclose(precision, want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [1, 2, 7, 1024, 8192])
    def test_clamp_never_engages(self, exp_model, n):
        # every KMS eigenvalue exceeds (1 - a)/(1 + a) = tanh(1/(2N)), 6e-5 at
        # N = 8192, far above the floor: the precision's law is the clamped
        # spectrum's
        spec = df.spectrum(exp_model, n)
        assert spec.n_clamped == 0
        assert spec.raw_min >= math.tanh(0.5 / n) > 1e5 * CLAMP_FLOOR

    def test_spectrum_below_the_floor_refused(self, exp_model):
        # the closed-form sums cover the raw spectrum, so an N whose smallest
        # eigenvalue, about 1/(2N), falls below the floor is refused
        assert df.spectrum(exp_model, 4 * 10**9).raw_min >= CLAMP_FLOOR
        with pytest.raises(df.InfeasibleConfigError,
                           match="N = 6000000000 sensors reaches below the clamp floor"):
            df.spectrum(exp_model, 6 * 10**9)


def _dense_spectrum(model, n):
    lags = np.arange(n)
    sigma = model(np.abs(lags[:, None] - lags[None, :]) / n)
    return Spectrum(n, *_clamped(np.linalg.eigvalsh(sigma)[::-1], n), "dense")


class TestSpectrumBackends:
    @pytest.mark.parametrize("kind", ["custom-table"])
    def test_spectrum_cut_is_the_size_rule(self, kind, monkeypatch):
        # the largest N whose one size check passes; the probe raises in
        # place of the check, so neither N builds an array.  Only a table's
        # spectrum has a size limit: the built-in kernels build nothing of
        # size N (test_rates.py::test_built_in_rate_curve_peak_is_under_a_mebibyte)
        tau = np.linspace(0.0, 1.0, 201)
        model = df.make_correlation(kind, np.column_stack([tau, np.exp(-tau)]))
        counts = []

        def probe(count, what):
            counts.append(count)
            raise LookupError(what)

        monkeypatch.setattr(field_mod, "check_dense_size", probe)
        cut = field_mod._TABLE_N_MAX
        for n in (cut, cut + 1):
            with pytest.raises(LookupError, match=f"N = {n} sensors"):
                df.spectrum(model, n)
        assert 8 * counts[0] <= DENSE_BUDGET_BYTES < 8 * counts[1]

    @pytest.mark.parametrize("kind,backend", [("exp-markov", "kms"), ("sinc", "slepian")])
    def test_matches_dense_eigvalsh(self, kind, backend):
        model = df.make_correlation(kind)
        for n in STRUCTURED_N:
            fast, dense = df.spectrum(model, n), _dense_spectrum(model, n)
            assert fast.backend == backend and fast.n == n
            # the absolute term covers the dense path's own rounding near the
            # floor (sinc eigenvalues near 1e-10 move by 2e-6 relative there)
            gap = np.abs(descending_eigvals(fast) - dense.top)
            assert np.all(gap <= np.maximum(1e-9 * dense.top, 1e-12 * n)), n
            try:
                d_prime = df.target_distortion_dsc(D_NET, n, model)
                d_dprime = df.reverse_distortion_bound(D_NET, n, model)
            except df.InfeasibleConfigError:
                continue
            p_fast, p_dense = df.find_pmax(fast, d_prime), df.find_pmax(dense, d_prime)
            assert p_fast == pytest.approx(p_dense, rel=1e-9), n
            assert df.dsc_sum_rate(fast, p_fast) == pytest.approx(
                df.dsc_sum_rate(dense, p_dense), rel=1e-9), n
            assert df.centralized_rate(fast, d_dprime).total_rate_nats == pytest.approx(
                df.centralized_rate(dense, d_dprime).total_rate_nats, rel=1e-9), n

    def test_exp_trace_at_65536(self, exp_model):
        spec = df.spectrum(exp_model, 65536)
        assert spec.n_clamped == 0
        assert descending_eigvals(spec).sum() == pytest.approx(65536, rel=1e-9)

    @pytest.mark.parametrize("n", [8, 64, 300, 2048])
    def test_slepian_matches_dpss(self, sinc_model, n):
        lam, resid = dpss_sinc_eigpairs(n, 8)
        assert np.all(resid <= 1e-10 * lam[0])
        spec = df.spectrum(sinc_model, n)
        np.testing.assert_allclose(descending_eigvals(spec)[:8],
                                   np.maximum(lam, 1e-10), rtol=1e-9, atol=1e-12 * n)
        assert spec.n_clamped == n - np.count_nonzero(lam >= 1e-10)

    @pytest.mark.parametrize("n", [1, 23, 24, 25, 2048, 8192, 65536])
    def test_slepian_matches_tridiagonal_oracle(self, sinc_model, n):
        spec = df.spectrum(sinc_model, n)
        ref = Spectrum(n, *_clamped(slepian_tridiagonal_eigvals(n), n), "oracle")
        # both routes are exact up to roundoff on lambda_max ~ 0.6 N, whose ulp
        # is about 1e-16 N: 1e-12 N allows some 10,000 ulps (the largest gap
        # seen over N = 1..399 and 12 larger N up to 65,536 is 2.3e-15 N)
        np.testing.assert_allclose(descending_eigvals(spec), ref.top, rtol=0,
                                   atol=1e-12 * n)
        assert spec.n_clamped == ref.n_clamped

    def test_gauss_legendre_rule(self):
        # the 16-point rule: exact for t^(2j), j <= 15, on [-1, 1], and
        # numpy's own nodes and weights to rounding
        t, w = np.array(rates_mod._GL_NODES), np.array(rates_mod._GL_WEIGHTS)
        for j in range(16):
            assert 2 * np.sum(w * t ** (2 * j)) == pytest.approx(2 / (2 * j + 1),
                                                               rel=1e-15, abs=0)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(t, nodes[8:], rtol=1e-15)
        np.testing.assert_allclose(w, weights[8:], rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_sinc_factor_reproduces_the_covariance(self, n):
        b = sinc_factor(n)
        assert b.shape == (n, 16)
        lags = np.arange(n)
        np.testing.assert_allclose(b @ b.T, np.sinc(np.subtract.outer(lags, lags) / n),
                                   rtol=0, atol=1e-14)

    def test_table_takes_dense_eigvalsh(self):
        tau = np.linspace(0.0, 1.0, 201)
        model = df.make_correlation("custom-table", np.column_stack([tau, np.exp(-tau)]))
        spec = df.spectrum(model, 50)
        cov = df.covariance_matrix(model, 50)
        raw = split_eigvals(model, 50)
        assert spec.backend == "dense" and spec.n_clamped == cov.n_clamped == 0
        np.testing.assert_allclose(descending_eigvals(spec), cov.eigvals, rtol=1e-12)
        assert (spec.raw_min, spec.raw_max) == pytest.approx((raw[-1], raw[0]),
                                                             rel=1e-12)
        with pytest.raises(ValueError):
            spec.top[0] = 2.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 1024, 65536])
    def test_kms_sums_match_the_oracle_eigenvalues(self, n):
        # the closed-form S1 and S2 against an fsum over every root of the
        # secular equation, from 1e-3 to 1e9 in p
        lam = kms_eigvals(n).tolist()
        for p in (1e-3, 0.05, 1.1, 12, 1e3, 1e6, 1e9):
            s1, s2 = rates_mod._kms_sums(n, p)
            assert s1 == pytest.approx(math.fsum(x * p / (x + p) for x in lam),
                                       rel=1e-13, abs=0), p
            assert s2 == pytest.approx(0.5 * math.fsum(math.log1p(x / p) for x in lam),
                                       rel=1e-13, abs=0), p

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 1000, 65536])
    def test_slepian_gram_is_the_factors(self, n):
        # the Dirichlet-kernel blocks against B^T B of the centred factor,
        # and their Jacobi eigenvalues against LAPACK's
        cos_block, sin_block = (np.array(b) for b in rates_mod._slepian_gram(n))
        b = sinc_factor(n)
        gram = np.zeros((16, 16))
        gram[:8, :8], gram[8:, 8:] = cos_block, sin_block
        np.testing.assert_allclose(gram, b.T @ b, rtol=0, atol=1e-13 * n)
        for block in (cos_block, sin_block):
            jacobi = sorted(rates_mod._jacobi_eigvals(block.tolist()))
            np.testing.assert_allclose(jacobi, np.linalg.eigvalsh(block), rtol=0,
                                       atol=1e-13 * n)


class TestSampling:
    def test_zero_snapshots_rejected(self, exp_model):
        cov = df.covariance_matrix(exp_model, 2)
        with pytest.raises(ValueError):
            df.sample_snapshots(cov, 0, seeded_generator(1))

    def test_unit_variance_band(self, exp_model):
        cov = df.covariance_matrix(exp_model, 1)
        snaps = df.sample_snapshots(cov, 100_000, seeded_generator(2024))
        var = snaps[:, 0].var()
        assert 0.985 <= var <= 1.015  # 3 sigma band for 1e5 draws

    def test_bit_identical_for_same_seed(self, exp_model):
        cov = df.covariance_matrix(exp_model, 5)
        a = df.sample_snapshots(cov, 64, seeded_generator(7))
        b = df.sample_snapshots(cov, 64, seeded_generator(7))
        assert np.array_equal(a, b)
        c = df.sample_snapshots(cov, 64, seeded_generator(8))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("m1, m2", [(1, 1), (37, 263), (300, 5)])
    def test_successive_draws_continue_one_stream(self, sinc_model, m1, m2):
        # simulate_p2p draws its blocks of frames from one generator: m1 then
        # m2 rows from it are the rows of one (m1 + m2)-row draw
        cov = df.covariance_matrix(sinc_model, 33)
        rng = seeded_generator(12)
        parts = [df.sample_snapshots(cov, m, rng) for m in (m1, m2)]
        whole = df.sample_snapshots(cov, m1 + m2, seeded_generator(12))
        np.testing.assert_allclose(np.vstack(parts), whole, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("pack, n", [("split", 64), ("split", 65),
                                         ("matrix", 65)])
    def test_matches_unfolded_eigenvector_draw(self, sinc_model, pack, n):
        # g sqrt(Lambda) V^T through to_sensors against g (V sqrt(Lambda))^T
        # with the unfolded V: the same draw up to rounding (entries are
        # O(1) sums of N products, so 1e-13 is a few hundred ulps)
        cov = df.covariance_matrix(sinc_model, n)
        if pack == "matrix":
            cov = df.CovariancePack.from_matrix(dense_covariance(sinc_model, n))
        rng = field_mod._generator(np.random.SeedSequence(5))
        want = rng.standard_normal((300, n)) @ (cov.eigvecs * np.sqrt(cov.eigvals)).T
        got = df.sample_snapshots(cov, 300, seeded_generator(5))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["exp-markov", "sinc"])
    def test_empirical_covariance_matches(self, kind):
        model = df.make_correlation(kind)
        cov = df.covariance_matrix(model, 8)
        snaps = df.sample_snapshots(cov, 100_000, seeded_generator(99))
        emp = snaps.T @ snaps / snaps.shape[0]
        assert np.max(np.abs(emp - dense_covariance(model, 8))) < 0.05


class TestNearestSample:
    def test_lower_half_maps_to_first_sensor(self):
        assert nearest_sample_location(0.4, 2) == 0.25

    def test_sensor_maps_to_itself(self):
        assert nearest_sample_location(0.75, 2) == 0.75

    def test_half_open_boundary_goes_up(self):
        assert nearest_sample_location(0.5, 2) == 0.75

    def test_right_endpoint_total(self):
        assert nearest_sample_location(1.0, 4) == 0.875

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            nearest_sample_location(-0.1, 3)
        with pytest.raises(ValueError):
            nearest_sample_location(1.1, 3)

    def test_within_half_gap(self):
        s = np.linspace(0, 1, 2001)
        for n in (1, 3, 8):
            loc = nearest_sample_location(s, n)
            assert np.max(np.abs(s - loc)) <= 1 / (2 * n) + 1e-12

    def test_piecewise_constant_with_n_pieces(self):
        n = 5
        s = np.linspace(0, 1, 100_001)
        loc = nearest_sample_location(s, n)
        assert np.unique(loc).size == n
        # jump points at k/N, up to the scan resolution
        jumps = s[np.nonzero(np.diff(loc))[0] + 1]
        expected = np.arange(1, n) / n
        assert jumps.size == n - 1
        assert np.allclose(np.sort(jumps), expected, atol=2e-5)


class TestInterpolate:
    def test_identity_at_sensor_positions(self, exp_model):
        positions = df.sensor_positions(6)
        recon = np.arange(6, dtype=float)
        for k, pos in enumerate(positions):
            assert interpolate(exp_model, recon, positions, pos) == recon[k]

    def test_exp_single_sensor_value(self, exp_model):
        got = interpolate(exp_model, [2.0], df.sensor_positions(1), 0.6)
        assert got == pytest.approx(2 * np.exp(-0.1), abs=1e-14)

    def test_zero_reconstruction_stays_zero(self, sinc_model):
        s = np.linspace(0, 1, 101)
        out = interpolate(sinc_model, np.zeros(4), df.sensor_positions(4), s)
        assert np.all(out == 0.0)

    def test_length_mismatch_rejected(self, exp_model):
        with pytest.raises(ValueError):
            interpolate(exp_model, [1.0, 2.0], df.sensor_positions(3), 0.5)


def test_snapshots_are_read_only(exp_model):
    cov = df.covariance_matrix(exp_model, 3)
    snaps = df.sample_snapshots(cov, 4, seeded_generator(1))
    positions = df.sensor_positions(3)
    assert snaps.dtype == positions.dtype == float and snaps.shape == (4, 3)
    with pytest.raises(ValueError):
        snaps[0, 0] = 5.0
    with pytest.raises(ValueError):
        positions[0] = 0.0
    with pytest.raises(ValueError):
        cov.eigvals[0] = 2.0


@pytest.mark.parametrize("name", ["exp", "sinc", "table"])
def test_spectrum_and_pack_arrays_are_read_only(name):
    model = _split_models()[name]
    cov = df.covariance_matrix(model, 25)
    top = df.spectrum(model, 25).top    # a tuple for the built-in kernels
    arrays = (cov.eigvals, cov.parity, *cov.blocks)
    assert isinstance(top, tuple) or not top.flags.writeable
    assert not any(a.flags.writeable for a in arrays)


def test_freezing_copies_the_callers_array_only_if_writeable():
    s = np.eye(3)
    frozen = field_mod._freeze(s)
    s[0, 0] = 2.0
    assert frozen[0, 0] == 1.0
    fixed = np.arange(3.0)
    fixed.flags.writeable = False
    assert field_mod._freeze(fixed) is fixed


@pytest.mark.parametrize("name", ["exp", "sinc", "table"])
def test_covariance_blocks_reach_the_pack_uncopied(name, monkeypatch):
    # the pack keeps no 2-D array but the blocks, so a 2-D array that
    # _freeze copies can only be an eigenvector block
    copied = []
    freeze = field_mod._freeze

    def recording_freeze(arr):
        out = freeze(arr)
        if out is not arr and np.ndim(arr) == 2:
            copied.append(np.shape(arr))
        return out

    monkeypatch.setattr(field_mod, "_freeze", recording_freeze)
    cov = df.covariance_matrix(_split_models()[name], 25)
    assert copied == []
    assert all(b.flags.c_contiguous and not b.flags.writeable
               for b in cov.blocks)


def test_nearest_index_vectorized_matches_scalar():
    s = np.linspace(0, 1, 997)
    vec = nearest_sample_index(s, 7)
    scalars = np.array([nearest_sample_index(float(v), 7) for v in s])
    assert np.array_equal(vec, scalars)
