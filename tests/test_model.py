"""Model types, validation, and mode-marginal arithmetic."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import bimodal_model, detection, random_chain
from slds_mse import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    MseSeries,
    Scenario,
    SldsModel,
    Tolerances,
    mode_marginal_series,
    run_monte_carlo,
    validate_model,
    validate_scenario,
)


def codes(violations):
    return {v.code for v in violations}


class TestValidation:
    def test_benchmark_model_is_valid(self, bench):
        assert validate_model(bench) == []

    def test_row_stochastic_violation(self, bench):
        chain = MarkovChain(np.array([[0.7, 0.7], [0.5, 0.5]]),
                            np.array([0.5, 0.5]))
        bad = bimodal_model()
        bad = type(bad)(bad.modes, bad.meas, chain, bad.init)
        assert "row-stochastic" in codes(validate_model(bad))

    def test_prior_normalized_violation(self):
        bad = bimodal_model(prior=(0.6, 0.6))
        assert "prior-normalized" in codes(validate_model(bad))

    def test_probability_range_violation(self):
        bad = bimodal_model(prior=(1.5, -0.5))
        got = codes(validate_model(bad))
        assert "probability-range" in got

    def test_q_psd_violation(self, bench):
        from slds_mse import ModeModel
        q = np.diag([0.01, 0.01, 0.01, -0.02])
        modes = (ModeModel(bench.modes[0].A, q), bench.modes[1])
        bad = type(bench)(modes, bench.meas, bench.chain, bench.init)
        found = [v for v in validate_model(bad) if v.code == "Q-psd"]
        assert found and "modes[1]" in found[0].where

    def test_r_positive_definite_violation(self, bench):
        from slds_mse import MeasurementModel
        meas = MeasurementModel(bench.meas.H, np.zeros((4, 4)))
        bad = type(bench)(bench.modes, meas, bench.chain, bench.init)
        assert "R-positive-definite" in codes(validate_model(bad))

    def test_state_dim_mismatch(self, bench):
        from slds_mse import GaussianBelief
        bad = type(bench)(bench.modes, bench.meas, bench.chain,
                          GaussianBelief(np.ones(3), np.eye(3)))
        assert "state-dim-mismatch" in codes(validate_model(bad))

    def test_mode_count_mismatch(self, bench):
        chain = random_chain(np.random.default_rng(0), 3)
        bad = type(bench)(bench.modes, bench.meas, chain, bench.init)
        assert "mode-count-mismatch" in codes(validate_model(bad))

    def test_non_finite_entries_named_before_other_checks(self, bench):
        nan_q = bench.modes[0].Q.copy()
        nan_q[0, 1] = np.nan
        inf_h = bench.meas.H.copy()
        inf_h[1, 1] = np.inf
        model = SldsModel((ModeModel(bench.modes[0].A, nan_q),
                           bench.modes[1]),
                          MeasurementModel(inf_h, bench.meas.R),
                          bench.chain, bench.init)
        violations = validate_model(model)
        assert [(v.code, v.where) for v in violations] == [
            ("finite", "modes[1].Q"), ("finite", "meas.H")]

    @pytest.mark.parametrize("field", ["modes[2].A", "init.mean", "init.cov",
                                       "meas.R", "chain.Z", "chain.prior"])
    def test_every_field_is_checked_for_finiteness(self, bench, field):
        eye = np.eye(bench.z)
        modes = list(bench.modes)
        meas, chain, init = bench.meas, bench.chain, bench.init
        bad = np.nan
        if field == "modes[2].A":
            modes[1] = ModeModel(np.where(eye > 0, bad, modes[1].A),
                                 modes[1].Q)
        elif field == "init.mean":
            init = GaussianBelief(np.full(bench.z, bad), init.cov)
        elif field == "init.cov":
            init = GaussianBelief(init.mean, np.full_like(eye, np.inf))
        elif field == "meas.R":
            meas = MeasurementModel(meas.H, np.full_like(meas.R, bad))
        elif field == "chain.Z":
            chain = MarkovChain(np.full((2, 2), bad), chain.prior)
        else:
            chain = MarkovChain(chain.Z, np.array([bad, 0.5]))
        model = SldsModel(modes, meas, chain, init)
        assert ("finite", field) in {(v.code, v.where)
                                     for v in validate_model(model)}

    def test_non_finite_detection_rate(self, bench):
        scenario = Scenario(bench, 5, DetectionModel(np.nan),
                            [FilterSpec("skf")])
        violations = validate_scenario(scenario)
        assert [(v.code, v.where) for v in violations] == [
            ("finite", "detection.p_d")]

    def test_scenario_violations(self, bench):
        sc = Scenario(model=bench, horizon=0, detection=DetectionModel(1.5),
                      filters=(FilterSpec("single-mode", 3),), mc_samples=0,
                      seed=-1)
        got = codes(validate_scenario(sc))
        assert {"horizon-positive", "mc-samples-positive", "seed-range",
                "detection-rate-range", "filter-mode-range"} <= got

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_range_words_the_monte_carlo_rule(self, bench, seed):
        sc = Scenario(model=bench, horizon=3, detection=detection(0.9),
                      filters=(FilterSpec("skf"),), seed=seed)
        [violation] = validate_scenario(sc)
        with pytest.raises(ValueError) as err:
            run_monte_carlo(bench, [FilterSpec("skf")], detection(0.9), 3,
                            8, seed)
        assert violation.message == str(err.value) == (
            f"seed must be an unsigned 64-bit integer, got {seed}")

    def test_valid_scenario_passes(self, bench):
        sc = Scenario(model=bench, horizon=10, detection=detection(0.9),
                      filters=(FilterSpec("skf"),))
        assert validate_scenario(sc) == []

    @pytest.mark.parametrize("filters, clash", [
        ([FilterSpec("single-mode", 1, "x"), FilterSpec("skf"),
          FilterSpec("average", label="x")], "filters[2]: label 'x'"),
        ([FilterSpec("skf"), FilterSpec("single-mode", 1, "skf")],
         "filters[1]: label 'skf'"),
        ([FilterSpec("single-mode", 2), FilterSpec("skf", label="skf"),
          FilterSpec("single-mode", 2, "kf-mode-2"),
          FilterSpec("single-mode", 2, "twin"), FilterSpec("skf"),
          FilterSpec("single-mode", 2, "twin")], None),
    ], ids=["user-label-on-two-filters", "user-label-on-a-default-name",
            "labelled-twins"])
    def test_one_display_name_per_filter(self, bench, filters, clash):
        # every CSV keys its rows by display name, so two different
        # filters may not share one; twins of one filter may
        sc = Scenario(model=bench, horizon=3, detection=detection(0.9),
                      filters=filters)
        want = [] if clash is None else [
            f"[filter-label-clash] {clash} already names filters[0], a "
            f"different filter"]
        assert [str(v) for v in validate_scenario(sc)] == want


def mode_marginals(chain, n):
    """The marginals at step n (1-based): row n - 1 of the series."""
    return mode_marginal_series(chain, n)[n - 1]


class TestMarginals:
    def test_two_step_example(self):
        chain = MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]),
                            np.array([1.0, 0.0]))
        assert_array_equal(mode_marginals(chain, 1), [1.0, 0.0])
        assert_allclose(mode_marginals(chain, 2), [0.9, 0.1], rtol=0, atol=1e-15)
        assert_allclose(mode_marginals(chain, 3), [0.83, 0.17], rtol=0,
                        atol=1e-15)

    def test_marginals_compose(self, rng):
        chain = random_chain(rng, 3, uniform_rows=False, uniform_prior=False)
        for n in range(1, 8):
            assert_allclose(mode_marginals(chain, n + 1),
                            mode_marginals(chain, n) @ chain.Z, atol=1e-14)

    def test_series_stacks_marginals(self, rng):
        # a shorter series is a prefix of a longer one
        chain = random_chain(rng, 2, uniform_rows=False)
        series = mode_marginal_series(chain, 5)
        assert series.shape == (5, 2)
        for k in range(1, 5):
            assert_array_equal(series[:k], mode_marginal_series(chain, k))

    def test_identity_chain_is_absorbing(self):
        chain = MarkovChain(np.eye(2), np.array([0.0, 1.0]))
        for n in (1, 2, 10):
            assert_array_equal(mode_marginals(chain, n), [0.0, 1.0])

    def test_uniform_chain_marginals_settle(self):
        chain = bimodal_model(prior=(0.9, 0.1)).chain
        assert_allclose(mode_marginals(chain, 2), [0.5, 0.5], atol=1e-15)

    def test_step_zero_rejected(self):
        chain = MarkovChain(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            mode_marginal_series(chain, 0)


class TestTypes:
    def test_filter_spec_display(self):
        assert FilterSpec("single-mode", 2).display == "kf-mode-2"
        assert FilterSpec("average").display == "average-kf"
        assert FilterSpec("skf").display == "skf"
        assert FilterSpec("skf", label="mine").display == "mine"

    def test_mse_series_len_and_freeze(self):
        s = MseSeries(mse=np.array([1.0, 2.0, 3.0]), method="exact")
        assert len(s) == 3
        with pytest.raises(ValueError):
            s.mse[0] = 5.0

    def test_model_arrays_are_frozen(self, bench):
        with pytest.raises(ValueError):
            bench.modes[0].A[0, 0] = 2.0
        with pytest.raises(ValueError):
            bench.chain.Z[0, 0] = 0.9

    def test_detection_model_defaults(self):
        det = DetectionModel(0.9)
        assert det.p_d == 0.9

    @pytest.mark.parametrize("make, message", [
        (lambda: DetectionModel("0.9"), "p_d must be a real number"),
        (lambda: DetectionModel(True), "p_d must be a real number"),
        (lambda: Tolerances(psd_tol=None), "psd_tol must be a real number"),
        (lambda: FilterSpec("single-mode", 1.0), "mode must be an integer"),
        (lambda: FilterSpec("average", np.bool_(True)),
         "mode must be an integer"),
        (lambda: FilterSpec("skf", label=None), "label must be a string"),
        (lambda: ModeModel(np.eye(2) > 0, np.eye(2)),
         "A must be a .* got entry True"),
        (lambda: GaussianBelief([1.0, "2"], np.eye(2)),
         "mean must be a .* got entry '2'"),
        (lambda: MarkovChain([[1.0], [0.5, 0.5]], [1.0]),
         "Z must be a rectangular array of real numbers, got entry"),
        (lambda: Scenario(bimodal_model(), 5, None, ["skf"]),
         "detection must be of type DetectionModel, got None"),
        (lambda: Scenario(bimodal_model().modes, 5, DetectionModel(0.9),
                          [FilterSpec("skf")]),
         "model must be of type SldsModel, got"),
        (lambda: Scenario(bimodal_model(), 5, DetectionModel(0.9),
                          [FilterSpec("skf"), "skf"]),
         r"filters\[1\] must be of type FilterSpec, got 'skf'"),
    ])
    def test_types_are_checked(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    @pytest.mark.parametrize("kind", ["average", "skf"])
    def test_only_single_mode_filters_take_a_mode(self, kind):
        with pytest.raises(ValueError,
                           match=f"^{kind} filter spec takes no mode index"):
            FilterSpec(kind, 2)

    @pytest.mark.parametrize("name", ["horizon", "mc_samples", "seed"])
    @pytest.mark.parametrize("value", [3.7, 3.0, True, "3", None])
    def test_scenario_integers_are_checked(self, bench, name, value):
        sc = Scenario(bench, 5, DetectionModel(0.9), [FilterSpec("skf")])
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            dataclasses.replace(sc, **{name: value})

    def test_numpy_scalars_become_python_scalars(self, bench):
        sc = Scenario(bench, np.int64(5), DetectionModel(np.float32(0.5)),
                      [FilterSpec("single-mode", np.int32(2))],
                      mc_samples=np.uint16(9),
                      tolerances=Tolerances(np.float64(1e-8), 0))
        assert (sc.horizon, sc.mc_samples, sc.filters[0].mode) == (5, 9, 2)
        assert type(sc.horizon) is type(sc.filters[0].mode) is int
        assert sc.detection.p_d == 0.5 and type(sc.detection.p_d) is float
        assert type(sc.tolerances.psd_tol) is float

    def test_dimensions(self, bench):
        assert bench.r == 2
        assert bench.z == 4
        assert bench.m == 4
        assert bench.chain.r == 2
