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


class TestShapeRule:
    """Constructors own every shape, across parts too: a model whose parts
    disagree on r or z, or a scenario naming a mode outside 1..r, cannot
    be built.  The message names the field, its shape and the symbol it
    clashes on."""

    @pytest.mark.parametrize("part, message", [
        ("mode", "modes[1].A shape (3, 3) does not fit (z, z): z is 4 in "
                 "modes[0].A"),
        ("H", "meas.H shape (4, 3) does not fit (m, z): z is 4 in "
              "modes[0].A"),
        ("init", "init.mean shape (2,) does not fit (z,): z is 4 in "
                 "modes[0].A"),
        ("chain", "chain.Z shape (1, 1) does not fit (r, r): r is 2 in "
                  "modes"),
        ("filter-3", "filters[1]: filter mode 3 is outside 1..2"),
        ("filter-0", "filters[1]: filter mode 0 is outside 1..2"),
    ])
    def test_parts_that_disagree_are_refused(self, bench, part, message):
        modes, meas, chain, init = (bench.modes, bench.meas, bench.chain,
                                    bench.init)
        filters = [FilterSpec("skf"), FilterSpec("single-mode", 2)]
        if part == "mode":
            modes = (modes[0], ModeModel(np.eye(3), np.eye(3)))
        elif part == "H":
            meas = MeasurementModel(np.ones((4, 3)), meas.R)
        elif part == "init":
            init = GaussianBelief(np.zeros(2), np.eye(2))
        elif part == "chain":
            chain = MarkovChain([[1.0]], [1.0])
        else:
            filters[1] = FilterSpec("single-mode", int(part[-1]))
        with pytest.raises(ValueError) as err:
            Scenario(SldsModel(modes, meas, chain, init), 5, detection(0.9),
                     filters)
        assert str(err.value) == message


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
        assert found and "modes[0]" in found[0].where

    def test_r_positive_definite_violation(self, bench):
        from slds_mse import MeasurementModel
        meas = MeasurementModel(bench.meas.H, np.zeros((4, 4)))
        bad = type(bench)(bench.modes, meas, bench.chain, bench.init)
        assert "R-positive-definite" in codes(validate_model(bad))

    def test_state_dim_mismatch(self, bench):
        with pytest.raises(ValueError) as err:
            type(bench)(bench.modes, bench.meas, bench.chain,
                        GaussianBelief(np.ones(3), np.eye(3)))
        assert str(err.value) == ("init.mean shape (3,) does not fit (z,): "
                                  "z is 4 in modes[0].A")

    def test_measurement_columns_mismatch(self, bench):
        meas = MeasurementModel(np.ones((4, 3)), bench.meas.R)
        with pytest.raises(ValueError) as err:
            type(bench)(bench.modes, meas, bench.chain, bench.init)
        assert str(err.value) == ("meas.H shape (4, 3) does not fit (m, z): "
                                  "z is 4 in modes[0].A")

    def test_mode_count_mismatch(self, bench):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError) as err:
            type(bench)(bench.modes, bench.meas, chain, bench.init)
        assert str(err.value) == ("chain.Z shape (3, 3) does not fit (r, r): "
                                  "r is 2 in modes")

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
            ("finite", "modes[0].Q"), ("finite", "meas.H")]

    @pytest.mark.parametrize("field", ["modes[1].A", "init.mean", "init.cov",
                                       "meas.R", "chain.Z", "chain.prior"])
    def test_every_field_is_checked_for_finiteness(self, bench, field):
        eye = np.eye(bench.z)
        modes = list(bench.modes)
        meas, chain, init = bench.meas, bench.chain, bench.init
        bad = np.nan
        if field == "modes[1].A":
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
        # a filter mode outside 1..r is the constructor's to refuse
        with pytest.raises(ValueError) as err:
            Scenario(model=bench, horizon=5, detection=DetectionModel(0.9),
                     filters=(FilterSpec("single-mode", 3),))
        assert str(err.value) == "filters[0]: filter mode 3 is outside 1..2"
        sc = Scenario(model=bench, horizon=0, detection=DetectionModel(1.5),
                      filters=(FilterSpec("single-mode", 2),), mc_samples=0,
                      seed=-1)
        got = codes(validate_scenario(sc))
        assert {"horizon-positive", "mc-samples-positive", "seed-range",
                "detection-rate-range"} <= got

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", ["sym_tol", "psd_tol"])
    def test_tolerances_are_finite_and_not_negative(self, bench, name,
                                                    value):
        # a bad tolerance is reported, and the matrix checks run at its
        # default: Q's eigenvalue -1 is still found, and the healthy
        # modes pass
        q = np.diag([0.01, 0.01, 0.01, -1.0])
        modes = (bench.modes[0], ModeModel(bench.modes[1].A, q))
        model = SldsModel(modes, bench.meas, bench.chain, bench.init)
        sc = Scenario(model, 3, detection(0.9), [FilterSpec("skf")],
                      tolerances=Tolerances(**{name: value}))
        violations = validate_scenario(sc)
        assert [(v.code, v.where) for v in violations] == [
            ("tolerance-range", f"tolerances.{name}"), ("Q-psd", "modes[1].Q")]
        assert violations[0].message == (
            f"{name} must be finite and >= 0, got {value}")

    def test_model_check_vets_its_own_tolerances(self, bench):
        # called directly, validate_model applies the same rule: a NaN
        # psd_tol neither passes unreported nor switches the Q check off
        q = np.diag([0.01, 0.01, 0.01, -1.0])
        modes = (bench.modes[0], ModeModel(bench.modes[1].A, q))
        model = SldsModel(modes, bench.meas, bench.chain, bench.init)
        violations = validate_model(model, Tolerances(psd_tol=np.nan))
        assert [(v.code, v.where) for v in violations] == [
            ("tolerance-range", "tolerances.psd_tol"), ("Q-psd", "modes[1].Q")]

    def test_a_good_tolerance_stays_beside_a_bad_one(self, bench):
        # sym_tol = 1e-3 forgives Q's 1e-6 asymmetry though psd_tol is NaN
        q = bench.modes[0].Q + np.triu(np.full((4, 4), 1e-6), 1)
        modes = (ModeModel(bench.modes[0].A, q), bench.modes[1])
        model = SldsModel(modes, bench.meas, bench.chain, bench.init)
        sc = Scenario(model, 3, detection(0.9), [FilterSpec("skf")],
                      tolerances=Tolerances(1e-3, np.nan))
        assert [str(v) for v in validate_scenario(sc)] == [
            "[tolerance-range] tolerances.psd_tol: psd_tol must be finite "
            "and >= 0, got nan"]

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


SIZES = {"r": 2, "z": 3, "m": 4}
ARRAY_FIELDS = {ModeModel: {"A": "zz", "Q": "zz"},
                MeasurementModel: {"H": "mz", "R": "mm"},
                GaussianBelief: {"mean": "z", "cov": "zz"},
                MarkovChain: {"Z": "rr", "prior": "r"}}


def model_parts():
    """The benchmark model's modes, meas, chain and init."""
    return list(vars(bimodal_model()).values())


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
        (lambda: Scenario(bimodal_model(), 5, DetectionModel(0.9), None),
         "filters must be a sequence, got None"),
        (lambda: Scenario(bimodal_model(), 5, DetectionModel(0.9),
                          [FilterSpec("skf")], tolerances=None),
         "tolerances must be of type Tolerances, got None"),
        (lambda: SldsModel(({"A": 1},), "H", None, 3),
         r"modes\[0\] must be of type ModeModel, got {'A': 1}"),
        (lambda: SldsModel(model_parts()[0] + ("mode",), *model_parts()[1:]),
         r"modes\[2\] must be of type ModeModel, got 'mode'"),
        (lambda: SldsModel(None, *model_parts()[1:]),
         "modes must be a sequence, got None"),
        (lambda: SldsModel(*model_parts()[:1], "H", *model_parts()[2:]),
         "meas must be of type MeasurementModel, got 'H'"),
        (lambda: SldsModel(*model_parts()[:2], None, model_parts()[3]),
         "chain must be of type MarkovChain, got None"),
        (lambda: SldsModel(*model_parts()[:3], 3),
         "init must be of type GaussianBelief, got 3"),
    ])
    def test_types_are_checked(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    @pytest.mark.parametrize("cls, name", [
        (cls, name) for cls, fields in ARRAY_FIELDS.items()
        for name in fields], ids=lambda x: getattr(x, "__name__", x))
    @pytest.mark.parametrize("broken", ["one-dimension-more", "size"])
    def test_array_fields_are_shape_checked(self, cls, name, broken):
        # the field with one axis too many, or with the size changed of a
        # symbol that another axis of the object also has; a clash is
        # reported on the later field of the two, naming the earlier
        fields = ARRAY_FIELDS[cls]
        rule = fields[name]
        values = {field: np.ones([SIZES[symbol] for symbol in field_rule])
                  for field, field_rule in fields.items()}
        if broken == "one-dimension-more":
            values[name] = values[name][None]
            want = (f"{name} shape {values[name].shape} does not fit "
                    f"({', '.join(rule)}")
        else:
            symbols = "".join(fields.values())
            axis = next(k for k, symbol in enumerate(rule)
                        if symbols.count(symbol) > 1)
            shape = list(values[name].shape)
            shape[axis] += 1
            values[name] = np.ones(shape)
            want = f": {rule[axis]} is "
        with pytest.raises(ValueError) as err:
            cls(**values)
        assert want in str(err.value) and name in str(err.value)

    def test_at_least_one_mode(self):
        with pytest.raises(ValueError, match="^at least one mode is "
                                             "required$"):
            SldsModel((), *model_parts()[1:])

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
