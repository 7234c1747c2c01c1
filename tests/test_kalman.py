"""Gain schedules, the filter bank and the average filter, checked
against the step-by-step Kalman filter of ``helpers``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    average_filter_modes,
    bimodal_model,
    kf_predict,
    kf_schedule,
    kf_update,
    random_mode,
    random_model,
    spd_matrix,
)
from slds_mse import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    InnovationSolveError,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
    bank_series,
    enumerate_filters,
    filter_bank,
    gain_schedule,
    merge_recommendation,
    mismatch_series,
    mode_marginal_series,
    run_monte_carlo,
    single_mode_slds_moments,
    skf_slds_moments,
)
from slds_mse.kalman import (
    _average_dynamics,
    _mode_dynamics,
    _riccati,
    filter_groups,
)


THREE_D = ModeModel(0.5 * np.eye(3), 0.1 * np.eye(3))
THREE_D_BELIEF = GaussianBelief(np.zeros(3), np.eye(3))


def scalar_mode(a, q):
    return ModeModel(np.array([[a]]), np.array([[q]]))


def scalar_meas(h=1.0, r=1.0):
    return MeasurementModel(np.array([[h]]), np.array([[r]]))


def scalar_belief(mean, cov):
    return GaussianBelief(np.array([mean]), np.array([[cov]]))


class TestSteps:
    def test_predict_scalar(self):
        pred = kf_predict(scalar_belief(1.0, 1.0), scalar_mode(0.9, 0.01))
        assert_allclose(pred.mean, [0.9], atol=1e-15)
        assert_allclose(pred.cov, [[0.82]], atol=1e-15)

    def test_update_textbook_scalar(self):
        out = kf_update(scalar_belief(0.0, 1.0), scalar_meas(1.0, 1.0),
                        np.array([2.0]))
        assert_allclose(out.gain, [[0.5]], atol=1e-15)
        assert_allclose(out.innovation_cov, [[2.0]], atol=1e-15)
        assert_allclose(out.posterior.mean, [1.0], atol=1e-15)
        assert_allclose(out.posterior.cov, [[0.5]], atol=1e-15)
        assert_allclose(out.predicted.cov, [[1.0]], atol=0)

    def test_update_huge_noise_ignores_data(self):
        out = kf_update(scalar_belief(0.3, 1.0), scalar_meas(1.0, 1e12),
                        np.array([100.0]))
        assert abs(out.gain[0, 0]) < 1e-10
        assert_allclose(out.posterior.mean, [0.3], atol=1e-8)
        assert_allclose(out.posterior.cov, [[1.0]], atol=1e-8)

    def test_update_tiny_noise_trusts_data(self, rng):
        z = 3
        pred = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 1.0))
        meas = MeasurementModel(np.eye(z), 1e-12 * np.eye(z))
        y = rng.standard_normal(z)
        out = kf_update(pred, meas, y)
        assert_allclose(out.posterior.mean, y, atol=1e-6)

    def test_first_step_on_benchmark(self, bench):
        pred = kf_predict(bench.init, bench.modes[0])
        assert_allclose(pred.cov, 0.82 * np.eye(4), atol=1e-15)
        out = kf_update(pred, bench.meas, np.zeros(4))
        assert_allclose(out.gain, (0.82 / 0.83) * np.eye(4), atol=1e-12)
        assert_allclose(out.posterior.cov, (0.82 * 0.01 / 0.83) * np.eye(4),
                        atol=1e-12)

    def test_gain_does_not_depend_on_data(self, rng):
        z = 2
        pred = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 1.0))
        meas = MeasurementModel(rng.standard_normal((z, z)) + np.eye(z),
                                spd_matrix(rng, z, 0.2))
        a = kf_update(pred, meas, rng.standard_normal(z))
        b = kf_update(pred, meas, rng.standard_normal(z))
        assert_allclose(a.gain, b.gain, atol=0)
        assert_allclose(a.posterior.cov, b.posterior.cov, atol=0)

    def test_update_never_increases_trace(self, rng):
        for _ in range(20):
            z = int(rng.integers(1, 4))
            pred = GaussianBelief(rng.standard_normal(z),
                                  spd_matrix(rng, z, 1.0))
            meas = MeasurementModel(rng.standard_normal((z, z)),
                                    spd_matrix(rng, z, 0.3))
            out = kf_update(pred, meas, rng.standard_normal(z))
            assert np.trace(out.posterior.cov) <= np.trace(pred.cov) + 1e-9

    def test_exact_prediction_gives_zero_gain(self):
        # A = 0, Q = 0 collapses the predicted covariance to zero, so the
        # update has nothing to learn from the measurement.
        mode = scalar_mode(0.0, 0.0)
        pred = kf_predict(scalar_belief(1.0, 1.0), mode)
        out = kf_update(pred, scalar_meas(1.0, 0.5), np.array([3.0]))
        assert_allclose(out.gain, [[0.0]], atol=1e-15)
        assert_allclose(out.posterior.cov, [[0.0]], atol=1e-15)

    def test_joseph_form_matches_standard(self, rng):
        z = 3
        pred = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 1.0))
        meas = MeasurementModel(rng.standard_normal((z, z)) + np.eye(z),
                                spd_matrix(rng, z, 0.2))
        y = rng.standard_normal(z)
        plain = kf_update(pred, meas, y)
        joseph = kf_update(pred, meas, y, joseph=True)
        assert_allclose(joseph.posterior.cov, plain.posterior.cov, atol=1e-12)
        assert_allclose(joseph.posterior.cov, joseph.posterior.cov.T, atol=0)

    @pytest.mark.parametrize("cov", [np.nan, np.inf])
    def test_non_finite_innovation_raises(self, cov):
        pred = scalar_belief(0.0, cov)
        with pytest.raises(InnovationSolveError, match="not finite") as err:
            kf_update(pred, scalar_meas(1.0, 0.5), np.array([1.0]))
        assert err.value.condition == np.inf

    def test_singular_innovation_raises(self):
        pred = scalar_belief(0.0, 0.0)
        meas = MeasurementModel(np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(InnovationSolveError) as err:
            kf_update(pred, meas, np.array([1.0]))
        assert err.value.condition > 1e12


class TestSchedules:
    def test_schedule_length_and_first_entries(self, bench):
        gains, covs = gain_schedule(bench.modes[0], bench.meas, bench.init, 7)
        assert gains.shape == covs.shape == (7, 4, 4)
        assert_allclose(gains[0], (0.82 / 0.83) * np.eye(4), atol=1e-12)
        assert_allclose(covs[0], (0.82 * 0.01 / 0.83) * np.eye(4),
                        atol=1e-12)

    def test_riccati_converges_for_stable_models(self, rng):
        for _ in range(5):
            mode = random_mode(rng, 2)
            meas = MeasurementModel(np.eye(2), spd_matrix(rng, 2, 0.1))
            init = GaussianBelief(np.zeros(2), spd_matrix(rng, 2, 1.0))
            _, covs = gain_schedule(mode, meas, init, 60)
            traces = np.trace(covs, axis1=1, axis2=2)
            deltas = np.abs(np.diff(traces))
            assert deltas[-1] < 1e-8
            # geometric settling after burn-in
            assert np.all(deltas[40:] <= deltas[39])

    def test_mode_schedules_match_individual(self, bench):
        # The switching filter runs one row per mode; row j is mode j's KF.
        _, bank_gains = filter_bank(bench, 5)
        [((rows,), _)], _ = filter_groups(2, DetectionModel(0.9),
                                          [FilterSpec("skf")])
        K = bank_gains[rows]
        assert K.shape == (2, 5, 4, 4)
        for j in (0, 1):
            gains, _ = gain_schedule(bench.modes[j], bench.meas, bench.init, 5)
            for k in range(5):
                assert_array_equal(K[j, k], gains[k])

    def test_mode_schedule_rows_are_single_schedules_bitwise(self, rng):
        # The mode rows that merge analysis runs, the bank's first r rows
        # and each mode's own schedule come from batched Riccati loops of
        # different sizes; a row of a batch must not depend on the others.
        model = random_model(rng, 3, 3)
        A, Q = _mode_dynamics(model, 30)
        gains, covs = _riccati(A, Q, model.meas, model.init.cov)
        bank_A, bank_gains = filter_bank(model, 30)
        assert_array_equal(gains, bank_gains[:3])
        assert_array_equal(A, bank_A[:3])
        for j, mode in enumerate(model.modes):
            single = gain_schedule(mode, model.meas, model.init, 30)
            assert_array_equal(gains[j], single[0])
            assert_array_equal(covs[j], single[1])

    def test_filter_bank_rows_are_single_schedules_bitwise(self, rng):
        model = random_model(rng, 3, 3, uniform_rows=False,
                             uniform_prior=False)
        bank_A, bank_gains = filter_bank(model, 30)
        assert bank_A.shape == (4, 30, 3, 3)
        assert bank_gains.shape == (4, 30, 3, model.m)
        for j, mode in enumerate(model.modes):
            gains, _ = gain_schedule(mode, model.meas, model.init, 30)
            assert_array_equal(bank_gains[j], gains)
            assert_array_equal(bank_A[j], np.broadcast_to(mode.A, (30, 3, 3)))
        average = average_filter_modes(model, 30)
        assert_array_equal(bank_gains[3],
                           kf_schedule(average, model.meas, model.init)[0])
        assert_array_equal(bank_A[3], [mode.A for mode in average])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r=st.integers(1, 4), z=st.integers(1, 4),
           n_steps=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_kf_steps_reproduce_gain_schedule_bitwise(self, r, z, n_steps,
                                                      seed):
        # kf_update and the Riccati kernel share one gain step, so the
        # step-by-step filter and the schedule agree bit for bit.
        rng = np.random.default_rng(seed)
        model = random_model(rng, r, z, uniform_rows=False,
                             uniform_prior=False)
        # the average filter's one-row pass on its per-step dynamics
        A, Q = _average_dynamics(model, n_steps)
        gains, covs = _riccati(A[None], Q[None], model.meas, model.init.cov)
        schedules = [(gains[0], covs[0],
                      average_filter_modes(model, n_steps))]
        schedules += [(*gain_schedule(mode, model.meas, model.init, n_steps),
                       [mode] * n_steps) for mode in model.modes]
        for gains, covs, steps in schedules:
            belief = model.init
            for n, mode in enumerate(steps):
                out = kf_update(kf_predict(belief, mode), model.meas,
                                rng.standard_normal(z))
                assert_array_equal(out.gain, gains[n])
                assert_array_equal(out.posterior.cov, covs[n])
                belief = out.posterior

    UNKNOWN_MODES = [
        pytest.param(lambda model, j=j: filter_groups(
            model.r, None, [FilterSpec("single-mode", mode=j)]),
                     "outside 1..2", id=str(j))
        for j in (0, -1, 4)]
    # a filter mode of another state dimension than the model's 4
    OTHER_DIMENSION = "dimension 3 does not match state dimension 4"

    @pytest.mark.parametrize("reject, reason", UNKNOWN_MODES + [
        pytest.param(lambda model: single_mode_slds_moments(model, THREE_D, 3),
                     OTHER_DIMENSION, id="3-d-single-mode"),
        pytest.param(lambda model: mismatch_series(
            model.modes[0], THREE_D, model.meas, model.init, 3),
                     OTHER_DIMENSION, id="3-d-mismatch"),
        pytest.param(lambda model: gain_schedule(
            model.modes[0], model.meas, THREE_D_BELIEF, 3),
                     "^initial belief " + OTHER_DIMENSION, id="3-d-init"),
        pytest.param(lambda model: mismatch_series(
            THREE_D, model.modes[0], model.meas, model.init, 3),
                     r"^meas\.H shape \(4, 4\) does not fit \(m, z\): z is 3 "
                     r"in modes\[0\]\.A$", id="3-d-truth")])
    def test_filter_bank_rejects_an_unknown_mode(self, bench, reject, reason):
        with pytest.raises(ValueError, match=reason):
            reject(bench)

    def test_singular_innovation_raises_in_schedules(self):
        # R = 0, P0 = 0 and Q = 0 leave a zero innovation covariance.
        mode = scalar_mode(0.9, 0.0)
        meas = scalar_meas(1.0, 0.0)
        init = scalar_belief(0.0, 0.0)
        model = SldsModel((mode, mode), meas,
                          MarkovChain(np.full((2, 2), 0.5), [0.5, 0.5]), init)
        for run in (lambda: gain_schedule(mode, meas, init, 3),
                    lambda: merge_recommendation(model, DetectionModel(0.9),
                                                 3, 0.1),
                    lambda: filter_bank(model, 3)):
            with pytest.raises(InnovationSolveError) as err:
                run()
            assert err.value.condition > 1e12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_innovation_raises_in_schedules(self):
        # A = 1e200 overflows P, and so B, at the first step of mode 2
        huge = scalar_mode(1e200, 0.01)
        meas, init = scalar_meas(1.0, 0.01), scalar_belief(0.0, 1.0)
        model = SldsModel((scalar_mode(0.9, 0.01), huge), meas,
                          MarkovChain(np.full((2, 2), 0.5), [0.5, 0.5]), init)
        for run, where in ((lambda: gain_schedule(huge, meas, init, 3),
                            "at step 1 of row 0"),
                           (lambda: merge_recommendation(
                               model, DetectionModel(0.9), 3, 0.1),
                            "at step 1 of row 1"),
                           (lambda: filter_bank(model, 3),
                            "at step 1 of row 1")):
            with pytest.raises(InnovationSolveError,
                               match=f"not finite {where}") as err:
                run()
            assert err.value.condition == np.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_bad_step_is_named(self):
        # A tiny P0 keeps step 1 finite, and its update leaves P = 0 after
        # rounding, so step 2 sees only Q; A^2 P overflows at step 3.
        mode = scalar_mode(1e160, 0.01)
        meas, init = scalar_meas(1.0, 0.01), scalar_belief(0.0, 1e-100)
        with pytest.raises(InnovationSolveError,
                           match="not finite at step 3 of row 0"):
            gain_schedule(mode, meas, init, 4)

    def test_first_bad_step_is_named_when_a_later_solve_fails(self):
        # R = -1: step 1 has B = -0.5, which solves and leaves P = 1, so
        # step 2 has B = 0 and its solve fails; step 1 is the first bad.
        mode, meas = scalar_mode(1.0, 0.0), scalar_meas(1.0, -1.0)
        with pytest.raises(InnovationSolveError,
                           match="not positive definite at step 1 of row 0"):
            gain_schedule(mode, meas, scalar_belief(0.0, 0.5), 3)

    def test_failed_solve_is_named_by_the_check(self):
        # P0 = 1 and R = 0: step 1 is good and leaves P = 0, so step 2 has
        # B = 0, whose solve fails and leaves NaN gains for the check
        mode, meas = scalar_mode(0.9, 0.0), scalar_meas(1.0, 0.0)
        with pytest.raises(InnovationSolveError,
                           match="not positive definite at step 2 of row 0"):
            gain_schedule(mode, meas, scalar_belief(0.0, 1.0), 3)

    def test_indefinite_innovation_caught_after_the_loop(self):
        # R = -1 and P = 0 give B = -1: the solve succeeds, Cholesky not.
        mode, meas = scalar_mode(0.9, 0.0), scalar_meas(1.0, -1.0)
        with pytest.raises(InnovationSolveError,
                           match="not positive definite at step 1 of row 0"):
            gain_schedule(mode, meas, scalar_belief(0.0, 0.0), 3)


DET = DetectionModel(0.9)
SPECS = (FilterSpec("skf"), FilterSpec("single-mode", mode=2),
         FilterSpec("average"))
# each engine's per-filter outputs, on a bank or, given None, its own
ENGINES = {
    "bank_series": lambda model, n, bank: [
        series.mse for series in bank_series(model, DET, SPECS, n, bank)],
    "enumerate_filters": lambda model, n, bank: [
        series.mse for series, _ in enumerate_filters(model, DET, SPECS, n,
                                                       bank)],
    "run_monte_carlo": lambda model, n, bank: [
        run.gram for run in run_monte_carlo(model, SPECS, DET, n, 64, 7,
                                            bank=bank)],
}
OTHER_BANKS = {
    "longer": lambda model, n: filter_bank(model, 2 * n),
    "shorter": lambda model, n: filter_bank(model, n - 2),
    "more-modes": lambda model, n: filter_bank(
        bimodal_model(a_values=(0.9, 0.46, 0.7), prior=[1 / 3] * 3), n),
}


class TestCallersBank:
    """Every engine takes ``filter_bank(model, n)`` for its own bank, and
    rejects a bank of any other shape with both arrays' shapes named."""

    N = 5

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
    def test_own_bank_is_taken_bit_for_bit(self, bench, engine):
        given = engine(bench, self.N, filter_bank(bench, self.N))
        built = engine(bench, self.N, None)
        assert len(given) == len(built) == len(SPECS)
        for got, want in zip(given, built):
            assert_array_equal(got, want)

    @pytest.mark.parametrize("other", OTHER_BANKS.values(), ids=OTHER_BANKS)
    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
    def test_other_bank_is_rejected(self, bench, engine, other):
        bank = other(bench, self.N)
        with pytest.raises(ValueError,
                           match=r"r \+ 1 = 3 rows over 5 steps") as err:
            engine(bench, self.N, bank)
        for X in bank:
            assert str(X.shape) in str(err.value)


# Every entry path of a horizon, each giving the number of steps past
# step 0 that it reports: a schedule holds steps 1..N, a series 0..N.
HORIZON_PATHS = {
    "gain_schedule": lambda model, n: len(gain_schedule(
        model.modes[0], model.meas, model.init, n)[0]),
    "filter_bank": lambda model, n: filter_bank(model, n)[1].shape[1],
    "bank_series": lambda model, n: len(
        bank_series(model, DET, SPECS, n)[0].mse) - 1,
    "bank_series_given_bank": lambda model, n: len(bank_series(
        model, DET, SPECS, n, filter_bank(model, max(n, 0)))[0].mse) - 1,
    "run_monte_carlo": lambda model, n: len(
        run_monte_carlo(model, SPECS, DET, n, 8, 7)[0].gram) - 1,
    "enumerate_filters": lambda model, n: len(
        enumerate_filters(model, DET, SPECS, n)[0][0].mse) - 1,
    "enumerate_filters_detected_path": lambda model, n: len(
        enumerate_filters(model, DET, [FilterSpec("skf")], n,
                          gains="detected-path")[0][0].mse) - 1,
    "skf_slds_moments": lambda model, n: len(
        skf_slds_moments(model, DET, n)[0].mse) - 1,
    "single_mode_slds_moments": lambda model, n: len(
        single_mode_slds_moments(model, model.modes[1], n)[0].mse) - 1,
    "mismatch_series": lambda model, n: len(mismatch_series(
        model.modes[0], model.modes[1], model.meas, model.init, n)[1].mse) - 1,
}


@pytest.mark.parametrize("path", HORIZON_PATHS.values(), ids=HORIZON_PATHS)
def test_negative_horizon_is_refused_by_name(bench, path):
    assert path(bench, 0) == 0 and path(bench, 2) == 2
    with pytest.raises(ValueError, match=r"^n_steps must be >= 0, got -1$"):
        path(bench, -1)


# The five entries that take a horizon straight from a caller
NOT_AN_INTEGER_PATHS = {
    "filter_bank": lambda model, n: filter_bank(model, n),
    "bank_series": lambda model, n: bank_series(model, DET, SPECS, n),
    "enumerate_filters": lambda model, n: enumerate_filters(
        model, DET, SPECS, n),
    "run_monte_carlo": lambda model, n: run_monte_carlo(
        model, SPECS, DET, n, 8, 7),
    "merge_recommendation": lambda model, n: merge_recommendation(
        model, DET, n, 0.1),
}


@pytest.mark.parametrize("path", NOT_AN_INTEGER_PATHS.values(),
                         ids=NOT_AN_INTEGER_PATHS)
def test_non_integer_horizon_is_refused_by_name(bench, path):
    path(bench, np.int64(2))          # a NumPy integer is an integer
    for bad, shown in ((2.5, "2.5"), (True, "True"), ("3", "'3'")):
        with pytest.raises(TypeError) as err:
            path(bench, bad)
        assert str(err.value) == f"n_steps must be an integer, got {shown}"


# Every engine of the switching filter, run on a detection model
DETECTION_PATHS = {
    "bank_series": lambda model, det: bank_series(
        model, det, [FilterSpec("skf")], 5),
    "enumerate_filters": lambda model, det: enumerate_filters(
        model, det, [FilterSpec("skf")], 5),
    "run_monte_carlo": lambda model, det: run_monte_carlo(
        model, [FilterSpec("skf")], det, 5, 100, 0),
    "merge_recommendation": lambda model, det: merge_recommendation(
        model, det, 5, 0.1),
}


@pytest.mark.parametrize("p_d", [-0.2, 1.5, np.nan])
@pytest.mark.parametrize("path", DETECTION_PATHS.values(),
                         ids=DETECTION_PATHS)
def test_detection_rate_outside_the_unit_interval_is_refused(bench, path,
                                                             p_d):
    # the engines once disagreed here: NaN from one, numbers from another
    with pytest.raises(ValueError,
                       match=rf"^p_d must lie in \[0, 1\], got {p_d}$"):
        path(bench, DetectionModel(p_d))


@pytest.mark.parametrize("p_d", [-0.2, 1.5, np.nan])
def test_detection_rate_is_checked_on_one_mode_too(lgss, p_d):
    for name, path in DETECTION_PATHS.items():
        if name != "merge_recommendation":        # which needs two modes
            with pytest.raises(ValueError, match="^p_d must lie in"):
                path(lgss, DetectionModel(p_d))


def test_empty_filter_list_gives_no_result(bench):
    assert filter_groups(bench.r, DET, [])[0] == []
    assert bank_series(bench, DET, [], 3) == []
    assert enumerate_filters(bench, DET, [], 3) == []
    assert run_monte_carlo(bench, [], DET, 3, 8, 7) == []


class TestAverageFilter:
    def test_benchmark_average_is_0p68(self, bench):
        avg = average_filter_modes(bench, 1)[0]
        assert_allclose(avg.A, 0.68 * np.eye(4), atol=1e-15)
        assert_allclose(avg.Q, 0.01 * np.eye(4), atol=1e-15)

    def test_average_tracks_marginals(self):
        model = bimodal_model(prior=(1.0, 0.0))
        first, second = average_filter_modes(model, 2)
        assert_allclose(first.A, 0.9 * np.eye(4), atol=1e-15)
        assert_allclose(second.A, 0.68 * np.eye(4), atol=1e-15)

    def test_identical_modes_average_to_themselves(self):
        model = bimodal_model(a_values=(0.7, 0.7))
        assert_allclose(average_filter_modes(model, 3)[2].A, 0.7 * np.eye(4),
                        atol=1e-15)

    def test_average_filter_modes_equal_average_mode(self, rng):
        # the average mode of step n: each mode's A and Q weighted by its
        # marginal probability at step n, summed in mode order
        model = random_model(rng, 3, 2, uniform_rows=False,
                             uniform_prior=False)
        seq = average_filter_modes(model, 50)
        marginals = mode_marginal_series(model.chain, 50)
        assert len(seq) == 50
        for mode, w in zip(seq, marginals):
            assert_array_equal(mode.A, sum(wj * m.A for wj, m in
                                           zip(w, model.modes)))
            assert_array_equal(mode.Q, sum(wj * m.Q for wj, m in
                                           zip(w, model.modes)))

    def test_average_filter_modes_series(self, bench):
        seq = average_filter_modes(bench, 6)
        assert len(seq) == 6
        for mode in seq:
            assert_allclose(mode.A, 0.68 * np.eye(4), atol=1e-15)
