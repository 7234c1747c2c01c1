"""Mode-conditioned aggregate recursion and the mode-merge recommender."""

import importlib.util
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    BLOCK,
    HORIZONS,
    TWINS,
    bimodal_model,
    block_budget,
    distinct_rows,
    filter_specs,
    mismatch_step,
    random_model,
    raw_moments,
    single_mode_model,
    spd_matrix,
    stable_matrix,
)
from slds_mse import fast
from slds_mse import (
    DetectionModel,
    ErrorMoments,
    FilterSpec,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
    bank_series,
    default_filters,
    enumerate_filters,
    filter_bank,
    gain_schedule,
    load_scenario,
    merge_clusters,
    merge_recommendation,
    merged_mode,
    pair_model,
    scenario_from_dict,
    skf_slds_moments,
)
from slds_mse.kalman import filter_groups

DET = DetectionModel(0.9)
SKF = FilterSpec("skf")


def bank_moments(model, det, specs, n_steps):
    """The kernel's raw moments E[w w.T] of w = [x; e] of each spec,
    (N + 1, F, 2z, 2z), from the one moment pass ``bank_series`` runs."""
    A_f, K = filter_bank(model, n_steps)
    blocks = fast._bank_moments([model], A_f[None], K[None],
                                *filter_groups(model.r, det, specs))
    return np.concatenate(list(blocks))[:, 0]


def assert_all_kinds_match_enumeration(model, det, n_steps):
    """Single-mode, average and switching filters all equal enumeration
    within 1e-12 relative at every step: the MSE, and the kernel's raw
    [x; e] moments against the ones rebuilt from enumeration's means and
    covariances, relative to their root-mean-square size."""
    specs = default_filters(model.r)
    raw = bank_moments(model, det, specs, n_steps)
    assert raw.shape == (n_steps + 1, len(specs), 2 * model.z, 2 * model.z)
    for f, (series, (exact, moments)) in enumerate(zip(
            bank_series(model, det, specs, n_steps),
            enumerate_filters(model, det, specs, n_steps))):
        assert_allclose(series.mse, exact.mse, rtol=1e-12, atol=0)
        for got, m in zip(raw[:, f], moments):
            want = raw_moments(m)
            assert_allclose(got, want, rtol=0,
                            atol=1e-12 * np.sqrt(np.mean(want ** 2)))


def symmetric(moments):
    """The raw moments' symmetric part, which ``eigvalsh`` reads."""
    return (moments + moments.swapaxes(-1, -2)) / 2.0


def with_chain(model, Z, prior):
    return SldsModel(model.modes, model.meas, MarkovChain(Z, prior),
                     model.init)


class TestAggregateEquivalence:
    def test_skf_matches_enumeration_on_benchmark(self, bench):
        exact, _ = skf_slds_moments(bench, DET, 8)
        fast, = bank_series(bench, DET, [SKF], 8)
        assert fast.method == "aggregate"
        assert np.abs(fast.mse - exact.mse).max() <= 1e-8

    def test_all_filters_match_enumeration_on_benchmark(self, bench):
        specs = default_filters(bench.r)[:-1]          # all but the SKF
        for fast, (exact, _) in zip(bank_series(bench, None, specs, 8),
                                    enumerate_filters(bench, None, specs, 8)):
            assert np.abs(fast.mse - exact.mse).max() <= 1e-8

    def test_random_bimodal_models(self, rng):
        for _ in range(8):
            model = random_model(rng, 2, int(rng.integers(1, 4)))
            exact, _ = skf_slds_moments(model, DET, 8)
            fast, = bank_series(model, DET, [SKF], 8)
            assert np.abs(fast.mse - exact.mse).max() <= 1e-8

    def test_nonuniform_prior_still_exact(self, rng):
        # The recursion starts from the prior itself, so any prior is exact.
        model = random_model(rng, 2, 2, uniform_prior=False)
        exact, _ = skf_slds_moments(model, DET, 8)
        fast, = bank_series(model, DET, [SKF], 8)
        assert np.abs(fast.mse - exact.mse).max() <= 1e-10

    def test_three_mode_model(self, rng):
        model = random_model(rng, 3, 2)
        exact, _ = skf_slds_moments(model, DET, 5, cap=9 ** 5)
        fast, = bank_series(model, DET, [SKF], 5)
        assert np.abs(fast.mse - exact.mse).max() <= 1e-8

    def test_one_mode_reduces_to_matched_filter(self):
        model = single_mode_model(z=2)
        _, covs = gain_schedule(model.modes[0], model.meas, model.init, 12)
        fast, = bank_series(model, DetectionModel(0.2), [SKF], 12)
        for n in range(1, 13):
            assert_allclose(fast.mse[n], np.trace(covs[n - 1]),
                            atol=1e-12)

    def test_identical_modes_have_zero_bias(self):
        model = bimodal_model(z=2, a_values=(0.7, 0.7))
        _, moments = skf_slds_moments(model, DetectionModel(0.5), 10)
        for m in moments:
            assert np.linalg.norm(m.e_mean) <= 1e-12

    def test_nonuniform_chains_match_enumeration(self, rng):
        for r, n_steps in ((2, 6), (2, 6), (3, 4), (3, 4)):
            model = random_model(rng, r, 2, uniform_rows=False,
                                 uniform_prior=False)
            assert not np.allclose(model.chain.Z, 1.0 / r)
            assert_all_kinds_match_enumeration(model, DET, n_steps)

    def test_zero_transitions_match_enumeration(self, rng):
        Z = np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.25, 0.0, 0.75]])
        model = with_chain(random_model(rng, 3, 2), Z, [0.2, 0.5, 0.3])
        assert_all_kinds_match_enumeration(model, DetectionModel(0.8), 4)

    def test_sticky_chain_of_criterion_6(self):
        model = bimodal_model(z=1, rows=[[0.99, 0.01], [0.01, 0.99]],
                              prior=(1.0, 0.0))
        assert_all_kinds_match_enumeration(model, DET, 6)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), n_steps=st.integers(1, 5),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_recursion_equals_enumeration(self, r, n_steps, p_d, seed, data):
        weights = st.floats(0.0, 1.0)
        rows = np.array(data.draw(st.lists(
            st.lists(weights, min_size=r, max_size=r).filter(
                lambda row: sum(row) > 0.01),
            min_size=r, max_size=r)))
        prior = np.array(data.draw(st.lists(weights, min_size=r, max_size=r)
                                   .filter(lambda p: sum(p) > 0.01)))
        model = with_chain(random_model(np.random.default_rng(seed), r, 2),
                           rows / rows.sum(axis=1, keepdims=True),
                           prior / prior.sum())
        assert_all_kinds_match_enumeration(model, DetectionModel(p_d),
                                           n_steps)

    def test_state_series_matches_mse_series(self, bench):
        raw = bank_moments(bench, DET, [SKF], 6)[:, 0]
        series, = bank_series(bench, DET, [SKF], 6)
        assert raw.shape == (7, 2 * bench.z, 2 * bench.z)
        assert_allclose(np.trace(raw[:, bench.z:, bench.z:], axis1=1, axis2=2),
                        series.mse, atol=1e-12)


class TestAggregateProperties:
    def test_moments_stay_psd_long_horizon(self, rng):
        for _ in range(3):
            model = random_model(rng, 2, 3)
            raw = symmetric(bank_moments(model, DET, [SKF], 200)[:, 0])
            z = model.z
            for m in raw[::10]:
                assert np.linalg.eigvalsh(m[z:, z:]).min() >= -1e-9
                assert np.linalg.eigvalsh(m[:z, :z]).min() >= -1e-9

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), kind=st.sampled_from(
               ("single-mode", "average", "skf")),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_joint_moment_psd_past_four_blocks(self, r, kind, p_d, seed):
        model = random_model(np.random.default_rng(seed), r, 3,
                             uniform_rows=False, uniform_prior=False)
        n_steps = 4 * BLOCK + 7
        with mock.patch.object(fast, "_BLOCK_BYTES",
                               block_budget(BLOCK, model)):
            moments = bank_moments(
                model, DetectionModel(p_d),
                [FilterSpec(kind, mode=r if kind == "single-mode" else None)],
                n_steps)
        for joint in symmetric(moments[:, 0]):
            assert np.linalg.eigvalsh(joint).min() >= -1e-12 * np.trace(joint)

    def test_mse_non_increasing_in_detection_rate(self, bench):
        curves = {p: bank_series(bench, DetectionModel(p), [SKF], 20)[0].mse
                  for p in (0.5, 0.7, 0.9, 1.0)}
        for n in range(3, 21):
            assert curves[1.0][n] <= curves[0.9][n] + 1e-12
            assert curves[0.9][n] <= curves[0.7][n] + 1e-12
            assert curves[0.7][n] <= curves[0.5][n] + 1e-12

    def test_runtime_under_10ms(self, rng):
        model = random_model(rng, 2, 4)
        bank_series(model, DET, [SKF], 100)  # warm-up
        best = min(self._timed(model) for _ in range(3))
        assert best < 0.010

    @staticmethod
    def _timed(model):
        t0 = time.perf_counter()
        bank_series(model, DET, [SKF], 100)
        return time.perf_counter() - t0


class TestStackedRecursion:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(r=st.integers(2, 4), n_steps=st.sampled_from(HORIZONS),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_merge_equals_per_pair_analysis(self, r, n_steps, p_d, seed):
        model = random_model(np.random.default_rng(seed), r, 2)
        det = DetectionModel(p_d)
        with mock.patch.object(fast, "_BLOCK_BYTES",
                               block_budget(BLOCK, model, merge=True)):
            rep = merge_recommendation(model, det, n_steps, threshold=0.1)
        assert [(p.mode_i, p.mode_j) for p in rep.pairs] == \
            [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        for pair in rep.pairs:
            sub = pair_model(model, pair.mode_i, pair.mode_j)
            with mock.patch.object(fast, "_BLOCK_BYTES",
                                   block_budget(BLOCK, sub)):
                skf, *singles = (series.mse for series in bank_series(
                    sub, det, [SKF, *default_filters(2)[:2]], n_steps))
            label, best = min(
                zip((f"kf-mode-{pair.mode_i}", f"kf-mode-{pair.mode_j}"),
                    singles),
                key=lambda c: c[1][1:].mean())
            # the systems axis changes no bit of a pair's own analysis
            assert_array_equal(pair.skf_mse, skf)
            assert_array_equal(pair.best_single_mse, best)
            assert pair.best_single_label == label
            improvement = ((best[1:] - skf[1:]) / best[1:]).mean()
            assert pair.merge == (improvement < 0.1)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(r=st.integers(2, 4), n_steps=st.sampled_from(HORIZONS),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_prefix_of_a_longer_horizon(self, r, n_steps, p_d, seed):
        model = random_model(np.random.default_rng(seed), r, 2,
                             uniform_rows=False, uniform_prior=False)
        # A sticky chain keeps the marginals moving past the first block.
        model = with_chain(model, 0.9 * np.eye(r) + 0.1 * model.chain.Z,
                           model.chain.prior)
        det = DetectionModel(p_d)
        for spec in (SKF, FilterSpec("single-mode", mode=1)):
            with mock.patch.object(fast, "_BLOCK_BYTES",
                                   block_budget(BLOCK, model)):
                full = bank_series(model, det, [spec], HORIZONS[-1])[0].mse
                short = bank_series(model, det, [spec], n_steps)[0].mse
            assert_allclose(full[:n_steps + 1], short, rtol=1e-12, atol=0)
            # The blocks only bound memory: one block gives the same series.
            with mock.patch.object(fast, "_BLOCK_BYTES",
                                   block_budget(HORIZONS[-1], model)):
                whole, = bank_series(model, det, [spec], HORIZONS[-1])
            assert_allclose(whole.mse, full, rtol=1e-12, atol=0)


# Enumeration of the switching filter at r = 3 costs 9^N pairs, so the
# oracle test shrinks the block: these horizons sit on both sides of
# its first boundary and reach into the third block.
SHORT_BLOCK = 2
SHORT_HORIZONS = (1, SHORT_BLOCK, SHORT_BLOCK + 1, 2 * SHORT_BLOCK + 1)


class TestBankOracle:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_mixed_bank_matches_enumeration(self, p_d, seed):
        # every single-mode KF, the average filter and the SKF in one pass
        model = random_model(np.random.default_rng(seed), 3, 2,
                             uniform_rows=False, uniform_prior=False)
        det = DetectionModel(p_d)
        specs = [FilterSpec("single-mode", mode=j) for j in (1, 2, 3)]
        specs += [FilterSpec("average"), FilterSpec("skf")]
        for n_steps in SHORT_HORIZONS:
            with mock.patch.object(fast, "_BLOCK_BYTES",
                                   block_budget(SHORT_BLOCK, model)):
                series = bank_series(model, det, specs, n_steps)
            exact = enumerate_filters(model, det, specs, n_steps)
            for spec, got, (want, _) in zip(specs, series, exact):
                assert_allclose(got.mse, want.mse, rtol=1e-12, atol=0,
                                err_msg=f"{spec.display} N={n_steps}")


def kernel_blocks(call):
    """(steps, bytes of G) of each block of branch maps that the moment
    kernel builds in ``call()``."""
    blocks, joint_factors = [], fast._joint_factors

    def record(*args):
        grid = joint_factors(*args)
        blocks.append((len(grid[0]), grid[0].nbytes))
        return grid

    with mock.patch.object(fast, "_joint_factors", side_effect=record):
        call()
    return blocks


ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "scenarios" / "bimodal4d.json"


def bench_scenario(name, seed):
    """A generated benchmark scenario, read from ``bench/scenarios.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_scenarios", ROOT / "bench" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return scenario_from_dict(getattr(module, name)(seed))


class TestBlockRule:
    """Each block of branch maps holds as many steps as keep its maps G
    within ``fast._BLOCK_BYTES``: at least one, at most the horizon."""

    @staticmethod
    def runs(scenario):
        """The scenario's bank pass and its merge stack, as calls."""
        model, det, n = scenario.model, scenario.detection, scenario.horizon
        return (lambda: bank_series(model, det, scenario.filters, n),
                lambda: merge_recommendation(model, det, n, threshold=0.1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(r=st.integers(2, 4), z=st.integers(1, 4),
           n_steps=st.integers(1, 40), budget=st.integers(1, 2 ** 16),
           merge=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_fill_the_budget(self, r, z, n_steps, budget, merge,
                                    seed):
        model = random_model(np.random.default_rng(seed), r, z)
        with mock.patch.object(fast, "_BLOCK_BYTES", budget):
            blocks = kernel_blocks(
                lambda: merge_recommendation(model, DET, n_steps, 0.1)
                if merge else bank_series(model, DET, [SKF], n_steps))
        (length, nbytes), lengths = blocks[0], [n for n, _ in blocks]
        step_bytes = nbytes // length
        assert step_bytes == block_budget(1, model, merge)
        assert 1 <= length <= n_steps
        # every step once, in blocks of one length but for a shorter last
        assert sum(lengths) == n_steps and set(lengths[:-1]) <= {length}
        # within the budget unless one step exceeds it; one more step not
        assert length * step_bytes <= budget or length == 1
        assert (length + 1) * step_bytes > budget or length == n_steps

    @pytest.mark.parametrize("scenario", [
        pytest.param(lambda: load_scenario(DEMO), id="demo"),
        pytest.param(lambda: bench_scenario("sticky_exact", 0),
                     id="sticky_exact(0)")])
    def test_small_scenarios_are_one_block(self, scenario):
        for run in self.runs(scenario()):
            assert len(kernel_blocks(run)) == 1

    def test_runtime_test_shape_is_one_block(self, rng):
        model = random_model(rng, 2, 4)
        assert len(kernel_blocks(
            lambda: bank_series(model, DET, [SKF], 100))) == 1

    def test_long_horizon_splits_within_the_budget(self):
        # r = 4, z = 8: the bank of four mode rows and the average row,
        # and the six-pair stack of recommend
        for run in self.runs(bench_scenario("long_horizon", 3)):
            blocks = kernel_blocks(run)
            assert len(blocks) > 1
            assert all(nbytes <= fast._BLOCK_BYTES for _, nbytes in blocks)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(r=st.integers(2, 3), z=st.integers(1, 3), n_steps=st.integers(1, 9),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_step_blocks_change_no_bit(self, r, z, n_steps, p_d, seed):
        model = random_model(np.random.default_rng(seed), r, z,
                             uniform_rows=False, uniform_prior=False)
        det, specs = DetectionModel(p_d), default_filters(r)
        results = []
        for budget in (1, 2 ** 40):        # one-step blocks, then one block
            with mock.patch.object(fast, "_BLOCK_BYTES", budget):
                blocks = kernel_blocks(lambda: results.append((
                    bank_series(model, det, specs, n_steps),
                    merge_recommendation(model, det, n_steps, 0.1))))
            assert len(blocks) == (2 * n_steps if budget == 1 else 2)
        (steps, stepped), (whole, merged) = results
        for a, b in zip(steps, whole):
            assert_array_equal(a.mse, b.mse)
        for a, b in zip(stepped.pairs, merged.pairs):
            assert_array_equal(a.skf_mse, b.skf_mse)
            assert_array_equal(a.best_single_mse, b.best_single_mse)
            assert (a.best_single_label, a.improvement, a.merge) == \
                (b.best_single_label, b.improvement, b.merge)


class TestJointFactors:
    """The branch map that the aggregate recursion and enumeration share,
    checked on its own against the u-parametrised mismatch step: G and C
    on the second moments [M | m] = [E[w w.T] | E[w]] of w = [x; e], G
    alone on the mean column, as enumeration applies them."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(z=st.integers(1, 4), m=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_joint_map_equals_mismatch_step(self, z, m, seed):
        rng = np.random.default_rng(seed)
        truth = ModeModel(stable_matrix(rng, z), spd_matrix(rng, z))
        filt = ModeModel(stable_matrix(rng, z), spd_matrix(rng, z))
        meas = MeasurementModel(rng.standard_normal((m, z)),
                                spd_matrix(rng, m))
        K = 0.5 * rng.standard_normal((z, m))
        # any joint law of [x; e]: a random mean and PSD covariance
        mean = rng.standard_normal(2 * z)
        root = rng.standard_normal((2 * z, 2 * z))
        cov = root @ root.T / (2 * z)
        x_cov = cov[:z, :z]
        prev = ErrorMoments(e_mean=mean[z:], e_cov=cov[z:, z:],
                            x_mean=mean[:z], x_cov=x_cov,
                            u=x_cov - cov[z:, :z], step=0)
        # one true mode and one filter row: a 1 x 1 grid
        Gt, lower = fast._joint_factors(truth.A[None], truth.Q[None],
                                        filt.A[None], K[None], meas.H, meas.R)
        G, C = Gt[0, 0].T, fast._noise(truth.Q, lower[0, 0])
        assert G.shape == C.shape == (2 * z, 2 * z)
        mu = G @ mean
        cov_next = G @ (cov + np.outer(mean, mean)) @ G.T + C \
            - np.outer(mu, mu)
        want = mismatch_step(prev, truth, filt, meas, K)
        got = {"x_mean": mu[:z], "e_mean": mu[z:],
               "x_cov": cov_next[:z, :z], "e_cov": cov_next[z:, z:],
               "u": cov_next[:z, :z] - cov_next[z:, :z]}
        for field, value in got.items():
            assert_allclose(value, getattr(want, field), rtol=1e-12,
                            atol=1e-12, err_msg=field)


class TestFilterBank:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r=st.integers(1, 4), n_steps=st.sampled_from(HORIZONS),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_each_series_equals_its_own_analysis(self, r, n_steps, p_d,
                                                 seed, data):
        model = random_model(np.random.default_rng(seed), r, 2,
                             uniform_rows=False, uniform_prior=False)
        det = DetectionModel(p_d)
        specs = data.draw(filter_specs(r, labels=TWINS))
        # 25-step blocks, so that HORIZONS fall on both sides of their edges
        with mock.patch.object(fast, "_BLOCK_BYTES",
                               block_budget(BLOCK, model)):
            with mock.patch.object(fast, "_Stack",
                                   wraps=fast._Stack) as stack:
                series = bank_series(model, det, specs, n_steps)
            # repeats, reorders and labelled twins: each distinct filter
            # is one row of one stack, the SKF's (1, r), the others' (U, 1)
            assert [[tuple(row) for row in call.args[0]]
                    for call in stack.call_args_list] == \
                distinct_rows(r, specs)
            assert len(series) == len(specs)
            for spec, got in zip(specs, series):
                assert got.method == "aggregate"
                # the other filters in the list never move this one
                alone, = bank_series(model, det, [spec], n_steps)
                assert_array_equal(alone.mse, got.mse)

    def test_switching_filter_needs_detection(self, bench):
        with pytest.raises(ValueError, match="detection"):
            bank_series(bench, None, [FilterSpec("average"),
                                      FilterSpec("skf")], 3)


class TestMergeRecommendation:
    def test_identical_modes_merge(self):
        model = bimodal_model(a_values=(0.9, 0.9))
        rep = merge_recommendation(model, DET, 12, threshold=0.10)
        pair = rep.pairs[0]
        assert pair.merge
        assert abs(pair.improvement) <= 1e-9
        assert merge_clusters(rep) == [[1, 2]]

    def test_benchmark_pair_kept_apart(self, bench):
        rep = merge_recommendation(bench, DET, 20, threshold=0.10)
        pair = rep.pairs[0]
        assert not pair.merge
        assert pair.improvement > 0.10
        assert pair.best_single_label in ("kf-mode-1", "kf-mode-2")
        assert merge_clusters(rep) == [[1], [2]]

    @pytest.mark.parametrize("threshold, error, message", [
        (np.nan, ValueError, "threshold must be finite, got nan"),
        (np.inf, ValueError, "threshold must be finite, got inf"),
        ("x", TypeError, "threshold must be a real number, got 'x'"),
        (None, TypeError, "threshold must be a real number, got None"),
    ], ids=["nan", "inf", "string", "none"])
    def test_threshold_refused_by_name(self, bench, threshold, error,
                                       message):
        # a NaN threshold once marked every pair "keep"
        with pytest.raises(error) as err:
            merge_recommendation(bench, DET, 5, threshold)
        assert str(err.value) == message

    def test_zero_threshold_never_merges(self):
        model = bimodal_model(a_values=(0.9, 0.9))
        rep = merge_recommendation(model, DET, 10, threshold=0.0)
        assert not rep.pairs[0].merge  # improvement 0.0 is not < 0.0

    def test_huge_threshold_merges_everything(self, bench):
        rep = merge_recommendation(bench, DET, 10, threshold=10.0)
        assert all(p.merge for p in rep.pairs)
        assert merge_clusters(rep) == [[1, 2]]

    def test_duplicated_mode_in_three_mode_model(self):
        eye = np.eye(4)
        model = bimodal_model()
        modes = (model.modes[0], ModeModel(0.9 * eye, 0.01 * eye),
                 model.modes[1])
        chain = type(model.chain)(np.full((3, 3), 1 / 3), np.full(3, 1 / 3))
        three = type(model)(modes, model.meas, chain, model.init)
        rep = merge_recommendation(three, DET, 12, threshold=0.10)
        assert len(rep.pairs) == 3
        by_pair = {(p.mode_i, p.mode_j): p.merge for p in rep.pairs}
        assert by_pair[(1, 2)] is True
        assert by_pair[(1, 3)] is False
        assert by_pair[(2, 3)] is False
        assert merge_clusters(rep) == [[1, 2], [3]]
        merged = merged_mode(three, [1, 2])
        assert_allclose(merged.A, 0.9 * eye, atol=1e-15)
        assert_allclose(merged.Q, 0.01 * eye, atol=1e-15)

    def test_perfect_detection_never_hurts(self, rng):
        det = DetectionModel(1.0)
        for _ in range(3):
            model = random_model(rng, 2, 2)
            rep = merge_recommendation(model, det, 10, threshold=0.05)
            assert rep.pairs[0].improvement >= -1e-9

    def test_metric_variants(self, bench):
        reports = {m: merge_recommendation(bench, DET, 20, 0.10, metric=m)
                   for m in ("mean", "max", "final")}
        for name, rep in reports.items():
            assert rep.metric == name
            assert rep.pairs[0].metric == name
        assert reports["max"].pairs[0].improvement >= \
            reports["mean"].pairs[0].improvement

    def test_unknown_metric_rejected(self, bench):
        with pytest.raises(ValueError):
            merge_recommendation(bench, DET, 10, 0.1, metric="median")

    def test_report_metadata(self, bench):
        rep = merge_recommendation(bench, DET, 15, threshold=0.2)
        assert rep.r == 2
        assert rep.threshold == 0.2
        assert rep.p_d == 0.9
        assert len(rep.pairs) == 1

    def test_pair_model_extraction(self, rng):
        model = random_model(rng, 3, 2)
        sub = pair_model(model, 1, 3)
        assert sub.r == 2
        assert sub.modes == (model.modes[0], model.modes[2])
        assert_allclose(sub.chain.Z, np.full((2, 2), 0.5), atol=0)
        assert_allclose(sub.chain.prior, [0.5, 0.5], atol=0)
        assert sub.meas is model.meas and sub.init is model.init

    @pytest.mark.parametrize("call, reason", [
        (lambda m: pair_model(m, 0, 2), "mode 0 is outside 1..2"),
        (lambda m: pair_model(m, 1, 3), "mode 3 is outside 1..2"),
        (lambda m: merged_mode(m, [3]), "mode 3 is outside 1..2"),
        (lambda m: merged_mode(m, [2, -1]), "mode -1 is outside 1..2"),
        (lambda m: merged_mode(m, []), "needs at least one mode"),
        (lambda m: merge_recommendation(m, DET, 0, 0.1),
         "needs n_steps >= 1, got 0"),
    ], ids=["pair-mode-0", "pair-mode-3", "merged-mode-3", "merged-mode--1",
            "merged-empty", "merge-no-steps"])
    def test_bad_input_rejected_with_its_reason(self, bench, call, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            call(bench)
