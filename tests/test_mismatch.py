"""Exact error moments of a mismatched Kalman filter on a fixed-mode system."""

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    average_filter_modes,
    initial_moments,
    kf_schedule,
    mismatch_step,
    random_mode,
    random_model,
    spd_matrix,
)
from slds_mse import (
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
    filter_bank,
    gain_schedule,
    mismatch_series,
    run_monte_carlo,
)
from slds_mse.enumeration import _run_enumeration
from slds_mse.kalman import filter_groups


def scalar_pair(a_true=0.9, a_filt=0.46, q_true=0.01, q_filt=0.01,
                r_noise=0.01):
    truth = ModeModel(np.array([[a_true]]), np.array([[q_true]]))
    filt = ModeModel(np.array([[a_filt]]), np.array([[q_filt]]))
    meas = MeasurementModel(np.array([[1.0]]), np.array([[r_noise]]))
    init = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    return truth, filt, meas, init


def locked_mode_model(truth, filt, meas, init):
    """r=2 model whose chain is locked to mode 1, with mode 2 as the
    mismatched filter: lets the Monte Carlo driver exercise a fixed
    truth/filter pair."""
    chain = MarkovChain(np.array([[1.0, 0.0], [1.0, 0.0]]),
                        np.array([1.0, 0.0]))
    return SldsModel((truth, filt), meas, chain, init)


class TestInit:
    def test_initial_moments(self, rng):
        init = GaussianBelief(rng.standard_normal(3), spd_matrix(rng, 3, 1.0))
        truth, filt = random_mode(rng, 3), random_mode(rng, 3)
        meas = MeasurementModel(np.eye(3), spd_matrix(rng, 3, 0.1))
        m = mismatch_series(truth, filt, meas, init, 1)[0][0]
        assert_allclose(m.e_mean, np.zeros(3), rtol=0, atol=0)
        assert_allclose(m.e_cov, init.cov, rtol=0, atol=0)
        assert_allclose(m.x_mean, init.mean, rtol=0, atol=0)
        # C(x) and u subtract E[x] E[x].T from raw moments: round-off only
        raw = np.abs(init.cov + np.outer(init.mean, init.mean)).max()
        assert_allclose(m.x_cov, init.cov, rtol=0, atol=1e-15 * raw)
        assert_allclose(m.u, np.zeros((3, 3)), rtol=0, atol=1e-15 * raw)
        assert m.step == 0
        assert_allclose(m.mse, np.trace(init.cov), atol=1e-15)

    def test_benchmark_initial_mse_is_4(self, bench):
        _, series = mismatch_series(bench.modes[0], bench.modes[0], bench.meas,
                                    bench.init, 1)
        assert_allclose(series.mse[0], 4.0, atol=1e-15)


class TestRecursion:
    def test_one_step_hand_computed(self):
        truth, filt, meas, init = scalar_pair()
        moments, series = mismatch_series(truth, filt, meas, init, 1)
        m1 = moments[1]
        assert_allclose(m1.x_mean, [0.9], atol=1e-15)
        assert_allclose(m1.x_cov, [[0.82]], atol=1e-15)
        assert_allclose(m1.e_mean, [0.01899827288428325], atol=1e-15)
        assert_allclose(m1.e_cov, [[0.010683836404258431]], atol=1e-15)
        assert_allclose(m1.u, [[0.7845941278065631]], atol=1e-15)
        assert_allclose(series.mse[1], 0.011044770776844123, atol=1e-15)

    def test_matched_filter_is_exact(self, rng):
        for z in (1, 2, 3):
            truth = random_mode(rng, z)
            meas = MeasurementModel(np.eye(z) + 0.1 * rng.standard_normal((z, z)),
                                    spd_matrix(rng, z, 0.1))
            init = GaussianBelief(rng.standard_normal(z),
                                  spd_matrix(rng, z, 1.0))
            _, covs = gain_schedule(truth, meas, init, 30)
            moments, _ = mismatch_series(truth, truth, meas, init, 30)
            for n in range(1, 31):
                assert np.linalg.norm(moments[n].e_mean) <= 1e-12
                gap = np.linalg.norm(moments[n].e_cov - covs[n - 1])
                assert gap <= 1e-10

    def test_equal_dynamics_means_zero_bias(self):
        # Filter with the right A but the wrong Q: suboptimal, never biased.
        truth, _, meas, init = scalar_pair()
        filt = ModeModel(truth.A, np.array([[0.5]]))
        moments, _ = mismatch_series(truth, filt, meas, init, 10)
        _, covs = gain_schedule(truth, meas, init, 10)
        for n in range(11):
            assert moments[n].e_mean[0] == 0.0
        # ...but its error covariance is worse than the matched filter's
        assert moments[10].e_cov[0, 0] > covs[9][0, 0]

    def test_error_mean_linear_in_initial_mean(self):
        truth, filt, meas, init = scalar_pair()
        double = GaussianBelief(2.0 * init.mean, init.cov)
        base, _ = mismatch_series(truth, filt, meas, init, 8)
        scaled, _ = mismatch_series(truth, filt, meas, double, 8)
        for n in range(9):
            assert_allclose(scaled[n].e_mean, 2.0 * base[n].e_mean, atol=1e-14)
            assert_allclose(scaled[n].e_cov, base[n].e_cov, atol=1e-14)

    def test_large_initial_mean_keeps_mse_and_means_exact(self):
        # ErrorMoments' covariances subtract E[x] E[x].T from raw moments
        # and lose precision at a mean of 1e6; the MSE, a raw trace, and
        # the means do not
        truth, filt, meas, _ = scalar_pair()
        init = GaussianBelief(np.array([1e6]), np.array([[1.0]]))
        n_steps = 10
        moments, series = mismatch_series(truth, filt, meas, init, n_steps)
        gains, _ = gain_schedule(filt, meas, init, n_steps)
        want = [initial_moments(init)]
        for gain in gains:
            want.append(mismatch_step(want[-1], truth, filt, meas, gain))
        assert_allclose(series.mse, [ref.mse for ref in want], rtol=1e-12,
                        atol=0)
        for got, ref in zip(moments, want):
            assert_allclose(got.e_mean, ref.e_mean, rtol=1e-12, atol=0)
            assert_allclose(got.x_mean, ref.x_mean, rtol=1e-12, atol=0)

    def test_cross_covariance_is_cauchy_schwarz_feasible(self, rng):
        for z in (1, 3):
            truth = random_mode(rng, z)
            filt = random_mode(rng, z)
            meas = MeasurementModel(np.eye(z), spd_matrix(rng, z, 0.1))
            init = GaussianBelief(rng.standard_normal(z),
                                  spd_matrix(rng, z, 1.0))
            moments, _ = mismatch_series(truth, filt, meas, init, 20)
            for m in moments:
                cov_ex = m.u - m.x_cov  # Cov(e, x)
                bound = np.sqrt(np.trace(m.e_cov) * np.trace(m.x_cov))
                assert np.linalg.norm(cov_ex, 2) <= bound + 1e-9

    def test_series_metadata(self):
        truth, filt, meas, init = scalar_pair()
        moments, series = mismatch_series(truth, filt, meas, init, 5)
        assert series.method == "exact"
        assert len(series) == 6 and len(moments) == 6
        # the one-mode tree keeps all its mass, and the series says so
        assert_array_equal(series.kept_mass, np.ones(6))
        assert_allclose(series.mse[0], 1.0, atol=0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(z=st.integers(1, 3), n_steps=st.integers(1, 12),
           filt_index=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_function_matches_series(self, z, n_steps, filt_index,
                                          seed):
        # the lifted-moment series against the independent one-step
        # recursion, for a fixed filter (modes 1 and 2) or the average
        # filter's per-step dynamics (3), on the truth of mode 1
        model = random_model(np.random.default_rng(seed), 3, z,
                             uniform_rows=False, uniform_prior=False)
        truth = model.modes[0]
        if filt_index == 3:
            # the bank's average row on the one-mode system of the truth
            steps = average_filter_modes(model, n_steps)
            A_f, K = filter_bank(model, n_steps)
            [((row,), _)], _ = filter_groups(3, None, [FilterSpec("average")])
            fixed = SldsModel([truth], model.meas, MarkovChain([[1.0]], [1.0]),
                              model.init)
            series, moments = _run_enumeration(
                fixed, n_steps, A_f[row], K[row],
                np.zeros((1, 1), dtype=int), np.ones((1, 1)))[0]
        else:
            steps = [model.modes[filt_index - 1]] * n_steps
            moments, series = mismatch_series(truth, steps[0], model.meas,
                                              model.init, n_steps)
        gains, _ = kf_schedule(steps, model.meas, model.init)
        state = initial_moments(model.init)
        fields = ("e_mean", "e_cov", "x_mean", "x_cov", "u")
        for n, mode in enumerate(steps, start=1):
            state = mismatch_step(state, truth, mode, model.meas,
                                  gains[n - 1])
            got = moments[n]
            assert got.step == state.step == n
            # within 1e-12 of the step's RMS moment size
            rms = np.sqrt(np.mean(np.concatenate(
                [np.ravel(getattr(state, f)) for f in fields]) ** 2))
            for f in fields:
                assert_allclose(getattr(got, f), getattr(state, f), rtol=0,
                                atol=1e-12 * rms, err_msg=f"{f} at step {n}")
            assert_allclose(series.mse[n], state.mse, rtol=1e-12)


class TestMonteCarloAgreement:
    def test_scalar_mismatch_against_simulation(self):
        truth, filt, meas, init = scalar_pair()
        model = locked_mode_model(truth, filt, meas, init)
        moments, _ = mismatch_series(truth, filt, meas, init, 6)
        runs = run_monte_carlo(model, [FilterSpec("single-mode", 2)], None,
                               6, 200_000, seed=7)
        run = runs[0]
        mean, mean_se = run.mean(), run.mean_stderr()
        var, var_se = run.var(), run.var_stderr()
        for n in range(1, 7):
            z_mean = abs(mean[n, 0] - moments[n].e_mean[0]) / mean_se[n, 0]
            z_var = abs(var[n] - moments[n].e_cov[0, 0]) / var_se[n]
            assert z_mean < 4.0
            assert z_var < 4.0

    def test_vector_state_scalar_measurement_against_simulation(self, rng):
        # z = 2 state observed through a 1-by-2 H: exercises the
        # rectangular-measurement path of the recursion.
        truth = ModeModel(np.array([[0.9, 0.1], [0.0, 0.8]]),
                          0.02 * np.eye(2))
        filt = ModeModel(np.array([[0.6, 0.0], [0.1, 0.5]]),
                         0.02 * np.eye(2))
        meas = MeasurementModel(np.array([[1.0, 0.5]]), np.array([[0.05]]))
        init = GaussianBelief(np.array([1.0, -1.0]), 0.5 * np.eye(2))
        model = locked_mode_model(truth, filt, meas, init)
        _, series = mismatch_series(truth, filt, meas, init, 6)
        runs = run_monte_carlo(model, [FilterSpec("single-mode", 2)], None,
                               6, 100_000, seed=11)
        mse, stderr = runs[0].mse(), runs[0].mse_stderr()
        for n in range(7):
            assert abs(mse[n] - series.mse[n]) < 4.0 * stderr[n]
