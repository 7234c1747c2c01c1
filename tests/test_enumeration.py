"""Trajectory enumeration: probabilities, exact moments, pruning, caps."""

import itertools
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (TWINS, bimodal_model, detection_prob, distinct_rows,
                     filter_specs, initial_moments, kf_schedule,
                     mismatch_step, random_model, raw_moments,
                     single_mode_model, trajectory_prob)
from slds_mse import cli, enumeration, fast, kalman
from slds_mse import (
    DetectionModel,
    EnumerationCapError,
    ErrorMoments,
    FilterSpec,
    MarkovChain,
    MseSeries,
    Scenario,
    dumps_scenario,
    enumerate_filters,
    filter_bank,
    gain_schedule,
    load_scenario,
    single_mode_slds_moments,
    skf_slds_moments,
)
from slds_mse.kalman import filter_groups

DET = DetectionModel(0.9)
SKF = FilterSpec("skf")


def mixture(runs):
    """Per-step mixture moments of weighted per-trajectory runs
    ``(w, [ErrorMoments, ...])``, from raw moments: E[e e.T] from C(e) and
    E[e], and u from E[xhat x.T] with xhat = x - e."""
    totals = {}
    for w, states in runs:
        for s in states:
            xhat = s.x_mean - s.e_mean
            parts = (s.e_mean, s.e_cov + np.outer(s.e_mean, s.e_mean),
                     s.x_mean, s.x_cov + np.outer(s.x_mean, s.x_mean),
                     s.u + np.outer(xhat, s.x_mean))
            acc = totals.get(s.step, (0.0,) * 5)
            totals[s.step] = tuple(a + w * p for a, p in zip(acc, parts))
    return [ErrorMoments(e_mean=e, e_cov=ee - np.outer(e, e), x_mean=x,
                         x_cov=xx - np.outer(x, x),
                         u=xhat_x - np.outer(x - e, x), step=n)
            for n, (e, ee, x, xx, xhat_x) in sorted(totals.items())]


def brute_single(model, filt, n_steps, rng=None):
    """Mixture of per-trajectory moments over all mode sequences, computed
    with mismatch_step directly.  Optionally visits trajectories in a
    shuffled order so agreement with the engine also proves order
    invariance of the aggregation."""
    gains, _ = gain_schedule(filt, model.meas, model.init, n_steps)
    seqs = list(itertools.product(range(1, model.r + 1), repeat=n_steps))
    if rng is not None:
        rng.shuffle(seqs)
    runs = []
    for seq in seqs:
        state = initial_moments(model.init)
        states = [state]
        for k, mode_idx in enumerate(seq):
            state = mismatch_step(state, model.modes[mode_idx - 1], filt,
                                  model.meas, gains[k])
            states.append(state)
        runs.append((trajectory_prob(model.chain, seq), states))
    return mixture(runs)


def brute_skf(model, det, n_steps, rng=None, diagonal_only=False,
              detected_path=False):
    """Same oracle for the switching filter: mixture over (true, detected)
    sequence pairs weighted by trajectory_prob times detection_prob.
    ``detected_path`` takes the gains from the filter's own Riccati run
    along each detected sequence instead of the per-mode schedules."""
    scheds = [gain_schedule(mode, model.meas, model.init, n_steps)[0]
              for mode in model.modes]
    seqs = list(itertools.product(range(1, model.r + 1), repeat=n_steps))
    pairs = [(l, q) for l in seqs for q in seqs
             if not diagonal_only or l == q]
    if rng is not None:
        rng.shuffle(pairs)
    runs = []
    for truth_seq, det_seq in pairs:
        w = trajectory_prob(model.chain, truth_seq)
        if not diagonal_only:
            w *= detection_prob(truth_seq, det_seq, det, model.r)
        if w == 0.0:
            continue
        if detected_path:
            path, _ = kf_schedule([model.modes[j - 1] for j in det_seq],
                                  model.meas, model.init)
        state = initial_moments(model.init)
        states = [state]
        for k in range(n_steps):
            i, j = truth_seq[k] - 1, det_seq[k] - 1
            gain = path[k] if detected_path else scheds[j][k]
            state = mismatch_step(state, model.modes[i], model.modes[j],
                                  model.meas, gain)
            states.append(state)
        runs.append((w, states))
    return mixture(runs)


def assert_moments_match(series, moments, ref):
    """Every moment the engine reports, and its MSE, equal the oracle's
    at every step."""
    assert [m.step for m in moments] == [m.step for m in ref]
    for got, want in zip(moments, ref):
        for field in ("x_mean", "x_cov", "u", "e_mean", "e_cov"):
            assert_allclose(getattr(got, field), getattr(want, field),
                            rtol=0, atol=1e-12,
                            err_msg=f"{field} at step {got.step}")
        assert_allclose(series.mse[got.step], want.mse, rtol=0, atol=1e-12)


class TestTrajectoryProb:
    CHAIN = MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]),
                        np.array([1.0, 0.0]))

    def test_worked_example(self):
        assert_allclose(trajectory_prob(self.CHAIN, [1, 2, 2]), 0.08,
                        atol=1e-15)

    def test_uniform_chain_is_half_power_n(self, bench):
        for n in (1, 3, 6):
            for seq in itertools.product((1, 2), repeat=n):
                assert_allclose(trajectory_prob(bench.chain, seq), 0.5 ** n,
                                atol=1e-15)

    def test_identity_chain(self):
        chain = MarkovChain(np.eye(2), np.array([1.0, 0.0]))
        assert trajectory_prob(chain, [1, 1, 1]) == 1.0
        assert trajectory_prob(chain, [1, 2]) == 0.0
        assert trajectory_prob(chain, [2]) == 0.0

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            trajectory_prob(self.CHAIN, [])
        with pytest.raises(ValueError):
            trajectory_prob(self.CHAIN, [0, 1])
        with pytest.raises(ValueError):
            trajectory_prob(self.CHAIN, [1, 3])

    def test_mass_sums_to_one(self):
        for n in (1, 4, 8):
            total = sum(trajectory_prob(self.CHAIN, seq)
                        for seq in itertools.product((1, 2), repeat=n))
            assert_allclose(total, 1.0, atol=1e-12)


class TestDetectionProb:
    def test_worked_example(self):
        p = detection_prob([1, 2, 1], [1, 1, 1], DET, r=2)
        assert_allclose(p, 0.9 * 0.1 * 0.9, atol=1e-15)

    def test_coin_flip_rate(self):
        det = DetectionModel(0.5)
        for q in itertools.product((1, 2), repeat=3):
            assert_allclose(detection_prob((1, 1, 1), q, det, r=2), 0.5 ** 3,
                            atol=1e-15)

    def test_perfect_detection(self):
        det = DetectionModel(1.0)
        assert detection_prob([1, 2], [1, 2], det, r=2) == 1.0
        assert detection_prob([1, 2], [1, 1], det, r=2) == 0.0

    def test_single_mode_always_detected(self):
        det = DetectionModel(0.3)
        assert detection_prob([1, 1], [1, 1], det, r=1) == 1.0
        with pytest.raises(ValueError):
            detection_prob([1, 1], [1, 2], det, r=1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            detection_prob([1, 2], [1], DET, r=2)

    def test_mass_sums_to_one(self):
        truth = (1, 2, 2, 1)
        total = sum(detection_prob(truth, q, DET, r=2)
                    for q in itertools.product((1, 2), repeat=4))
        assert_allclose(total, 1.0, atol=1e-12)


class TestExactMoments:
    def test_single_filter_matches_brute_force(self, rng):
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        got = single_mode_slds_moments(model, model.modes[0], 4)
        assert_moments_match(*got, brute_single(model, model.modes[0], 4,
                                                rng))

    def test_skf_matches_brute_force(self, rng):
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        got = skf_slds_moments(model, DET, 4)
        assert_moments_match(*got, brute_skf(model, DET, 4, rng))

    @pytest.mark.parametrize("switching", [False, True],
                             ids=["single", "skf"])
    def test_three_modes_match_brute_force(self, rng, switching):
        model = random_model(rng, 3, 2, uniform_rows=False,
                             uniform_prior=False)
        if switching:
            got = skf_slds_moments(model, DET, 3)
            ref = brute_skf(model, DET, 3, rng)
        else:
            got = single_mode_slds_moments(model, model.modes[1], 4)
            ref = brute_single(model, model.modes[1], 4, rng)
        assert_moments_match(*got, ref)

    def test_gemm_blocks_do_not_change_moments(self, rng):
        # Blocks three parents wide split every step's products, with a
        # short last block; the result must not depend on where they fall.
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        series, moments = skf_slds_moments(model, DET, 5)
        k = 2 * model.z
        with mock.patch.object(enumeration, "_BLOCK_MACS",
                               3 * 4 * k ** 2 * (k + 1)):
            narrow, narrow_moments = skf_slds_moments(model, DET, 5)
        assert_allclose(narrow.mse, series.mse, rtol=1e-12, atol=0)
        for got, want in zip(narrow_moments, moments):
            assert_allclose(got.e_cov, want.e_cov, rtol=1e-12, atol=1e-15)
            assert_allclose(got.u, want.u, rtol=1e-12, atol=1e-15)

    def test_degenerate_chain_reduces_to_fixed_mode(self):
        # Chain locked to mode 1 with an identity transition matrix: the
        # switching system is a plain linear system, so enumeration must
        # reproduce the one-step mismatched-filter recursion.
        model = bimodal_model(z=2, prior=(1.0, 0.0), rows=np.eye(2))
        series, _ = single_mode_slds_moments(model, model.modes[1], 8)
        gains, _ = gain_schedule(model.modes[1], model.meas, model.init, 8)
        state = initial_moments(model.init)
        direct = [state.mse]
        for gain in gains:
            state = mismatch_step(state, model.modes[0], model.modes[1],
                                  model.meas, gain)
            direct.append(state.mse)
        assert_allclose(series.mse, direct, atol=1e-10)

    def test_one_mode_skf_is_matched_filter(self):
        model = single_mode_model(z=2)
        series, moments = skf_slds_moments(model, DetectionModel(0.3), 10)
        _, covs = gain_schedule(model.modes[0], model.meas, model.init, 10)
        for n in range(1, 11):
            assert_allclose(series.mse[n], np.trace(covs[n - 1]),
                            atol=1e-12)
            assert_allclose(moments[n].e_mean, np.zeros(2), atol=1e-12)

    def test_perfect_detection_keeps_only_diagonal_pairs(self, bench):
        det = DetectionModel(1.0)
        series, moments = skf_slds_moments(bench, det, 4)
        ref = brute_skf(bench, det, 4, diagonal_only=True)
        for n in range(5):
            assert_allclose(series.mse[n], ref[n].mse, atol=1e-12)
            # matched per-step dynamics mean the bias term never activates
            assert_allclose(moments[n].e_mean, np.zeros(4), atol=1e-15)

    def test_indistinguishable_modes_equal_matched_filter(self):
        model = bimodal_model(z=2, a_values=(0.7, 0.7))
        _, covs = gain_schedule(model.modes[0], model.meas, model.init, 6)
        for p_d in (0.4, 1.0):
            series, _ = skf_slds_moments(model, DetectionModel(p_d), 6)
            for n in range(1, 7):
                assert_allclose(series.mse[n], np.trace(covs[n - 1]),
                                atol=1e-12)

    def test_exact_mass_is_one(self, rng):
        scalar = bimodal_model(z=1)
        for n_steps in (1, 4, 8):
            s, _ = single_mode_slds_moments(scalar, scalar.modes[0], n_steps)
            assert np.abs(s.kept_mass - 1.0).max() <= 1e-10
            s, _ = skf_slds_moments(scalar, DET, n_steps)
            assert np.abs(s.kept_mass - 1.0).max() <= 1e-10
        three = random_model(rng, 3, 1, uniform_rows=False,
                             uniform_prior=False)
        s, _ = single_mode_slds_moments(three, three.modes[0], 8)
        assert np.abs(s.kept_mass - 1.0).max() <= 1e-10
        s, _ = skf_slds_moments(three, DET, 6, cap=9 ** 6)
        assert np.abs(s.kept_mass - 1.0).max() <= 1e-10

    def test_average_filter_sequence_accepted(self, bench):
        series, _ = enumerate_filters(bench, None, [FilterSpec("average")],
                                      5)[0]
        assert len(series) == 6
        assert np.abs(series.kept_mass - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("gains", ["schedule", "detected-path"])
    def test_zero_horizon_is_the_initial_belief(self, bench, gains):
        # e_0 = x_0 - mean: the MSE is tr P_0, whichever filter runs
        want = np.trace(bench.init.cov)
        for series, moments in (
                single_mode_slds_moments(bench, bench.modes[0], 0),
                skf_slds_moments(bench, DET, 0, gains=gains),
                enumerate_filters(bench, DET, [SKF], 0, keep=1,
                                  gains=gains)[0]):
            assert_allclose(series.mse, [want], rtol=1e-15)
            assert_allclose(moments[0].u, np.zeros((4, 4)), atol=1e-15)

    def test_second_moment_psd(self, rng):
        for _ in range(5):
            model = random_model(rng, 2, 2, uniform_rows=False)
            _, moments = skf_slds_moments(model, DET, 5)
            for m in moments:
                implied = m.e_cov + np.outer(m.e_mean, m.e_mean)
                assert np.linalg.eigvalsh(implied).min() >= -1e-10
                assert np.linalg.eigvalsh(m.e_cov).min() >= -1e-10


class TestPruning:
    def test_full_mass_equals_exact(self, bench):
        exact, _ = skf_slds_moments(bench, DET, 6)
        full, _ = enumerate_filters(bench, DET, [SKF], 6, mass=1.0)[0]
        assert full.method == "pruned"
        assert np.abs(full.mse - exact.mse).max() <= 1e-12
        assert np.abs(full.kept_mass - 1.0).max() <= 1e-12

    def test_keep_monotone_and_exact_at_full_width(self, bench):
        exact, _ = skf_slds_moments(bench, DET, 3)
        last_mass = None
        for keep in (1, 2, 4, 16, 64):
            got, _ = enumerate_filters(bench, DET, [SKF], 3, keep=keep)[0]
            if last_mass is not None:
                assert np.all(got.kept_mass >= last_mass - 1e-12)
            last_mass = got.kept_mass
        # keep = 4^3 covers every pair trajectory: bitwise-level agreement
        assert np.abs(last_mass - 1.0).max() <= 1e-12
        full, _ = enumerate_filters(bench, DET, [SKF], 3, keep=64)[0]
        assert np.abs(full.mse - exact.mse).max() <= 1e-12

    def test_mass_target_reached(self, bench):
        got, _ = enumerate_filters(bench, DET, [SKF], 5, mass=0.8)[0]
        assert np.all(got.kept_mass >= 0.8 - 1e-12)
        assert got.kept_mass[5] < 0.999  # pruning actually happened

    def test_uniform_chain_starves_narrow_beam(self, bench):
        # With uniform switching every trajectory is equally likely, so a
        # width-4 beam holds a vanishing share of the mass and the
        # unnormalized sum collapses with it.
        exact, _ = skf_slds_moments(bench, DET, 6)
        unnorm, _ = enumerate_filters(bench, DET, [SKF], 6, keep=4)[0]
        renorm, _ = enumerate_filters(bench, DET, [SKF], 6, keep=4,
                                      renormalize=True)[0]
        assert_allclose(unnorm.kept_mass[6], 0.81 * 0.45 ** 4, atol=1e-12)
        assert unnorm.mse[6] < 0.1 * exact.mse[6]
        # renormalizing recovers a usable estimate from the same beam
        assert abs(renorm.mse[6] - exact.mse[6]) < 0.01 * exact.mse[6]
        assert_allclose(renorm.mse, unnorm.mse / unnorm.kept_mass, atol=1e-12)

    def test_sticky_chain_narrow_beam_stays_faithful(self):
        model = bimodal_model(prior=(1.0, 0.0),
                              rows=np.array([[0.99, 0.01], [0.01, 0.99]]))
        exact, _ = single_mode_slds_moments(model, model.modes[1], 6)
        got, _ = enumerate_filters(model, None,
                                   [FilterSpec("single-mode", mode=2)], 6,
                                   keep=4)[0]
        assert_allclose(got.kept_mass[6], 0.9798079302, atol=1e-9)
        gap = np.abs(got.mse[1:] - exact.mse[1:]) / exact.mse[1:]
        assert gap.max() < 0.005

    def test_keep_and_mass_both_given_rejected(self, bench):
        with pytest.raises(ValueError, match="either keep or mass"):
            enumerate_filters(bench, DET, [SKF], 3, keep=2, mass=0.9)

    def test_invalid_mass_rejected(self, bench):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                enumerate_filters(bench, DET, [SKF], 3, mass=bad)

    @pytest.mark.parametrize("budget, message", [
        ({"keep": 0}, "keep must be >= 1, got 0"),
        ({"mass": 0.0}, "mass target must lie in (0, 1], got 0.0"),
        ({"mass": 1.5}, "mass target must lie in (0, 1], got 1.5"),
        ({"keep": 2, "mass": 0.9}, "give either keep or mass, not both"),
    ], ids=["keep-0", "mass-0", "mass-above-1", "both"])
    def test_bad_budget_rejected_before_any_work(self, bench, budget,
                                                 message):
        # checked before the Riccati pass, naming no filter group
        with mock.patch.object(kalman, "_riccati",
                               wraps=kalman._riccati) as riccati, \
                pytest.raises(ValueError) as excinfo:
            enumerate_filters(bench, DET, [FilterSpec("average"), SKF], 3,
                              **budget)
        assert str(excinfo.value) == message
        assert riccati.call_count == 0


class TestCaps:
    def test_upfront_cap_for_pairs(self, bench):
        with pytest.raises(EnumerationCapError, match="cap"):
            skf_slds_moments(bench, DET, 11)  # 4^11 > 2^20

    def test_upfront_cap_for_single(self, rng):
        model = random_model(rng, 3, 1)
        with pytest.raises(EnumerationCapError, match="cap"):
            single_mode_slds_moments(model, model.modes[0], 13)  # 3^13 > 2^20

    def test_upfront_cap_message_suggests_alternatives(self, bench):
        with pytest.raises(EnumerationCapError, match="aggregate"):
            skf_slds_moments(bench, DET, 3, cap=20)

    def test_per_step_cap_when_beam_outgrows_it(self, bench):
        # A pruned run skips the up-front power check, so a beam wider
        # than cap/branch-factor trips the per-step guard instead.
        with pytest.raises(EnumerationCapError, match="step 3"):
            enumerate_filters(bench, DET, [SKF], 3, keep=8, cap=20)

    def test_pruning_relieves_the_cap(self, bench):
        series, _ = enumerate_filters(bench, DET, [SKF], 6, keep=2,
                                      cap=20)[0]
        assert len(series) == 7


class TestGainVariants:
    def test_variants_coincide_on_locked_chain(self):
        model = bimodal_model(z=2, prior=(1.0, 0.0), rows=np.eye(2))
        det = DetectionModel(1.0)
        sched, _ = skf_slds_moments(model, det, 6, gains="schedule")
        path, _ = skf_slds_moments(model, det, 6, gains="detected-path")
        assert np.abs(sched.mse - path.mse).max() <= 1e-12

    def test_variants_close_on_benchmark(self, bench):
        sched, _ = skf_slds_moments(bench, DET, 6, gains="schedule")
        path, _ = skf_slds_moments(bench, DET, 6, gains="detected-path")
        rel = np.abs(path.mse[1:] - sched.mse[1:]) / sched.mse[1:]
        assert 0.0 < rel.max() < 0.01

    @pytest.mark.parametrize("r, n_steps", [(2, 4), (3, 3)])
    def test_detected_path_matches_brute_force(self, rng, r, n_steps):
        model = random_model(rng, r, 2, uniform_rows=False,
                             uniform_prior=False)
        got = skf_slds_moments(model, DET, n_steps, gains="detected-path")
        assert_moments_match(*got, brute_skf(model, DET, n_steps, rng,
                                             detected_path=True))

    def test_unknown_variant_rejected(self, bench):
        with pytest.raises(ValueError):
            skf_slds_moments(bench, DET, 3, gains="nonsense")

    @pytest.mark.parametrize("gains, banks", [("detected-path", 0),
                                              ("schedule", 1)])
    def test_only_schedule_gains_build_a_filter_bank(self, bench, gains,
                                                     banks):
        # a detected-path tree reads no bank row, so it builds no bank
        with mock.patch.object(kalman, "filter_bank",
                               wraps=kalman.filter_bank) as build:
            skf_slds_moments(bench, DET, 3, gains=gains)
        assert build.call_count == banks



FIELDS = ("x_mean", "x_cov", "u", "e_mean", "e_cov")


def assert_same_run(got, want, label):
    """Series and kept mass equal within 1e-12 relative to each one's
    size, and every moment within 1e-12 relative to its step's moment
    scale, the root-mean-square of the raw moments E[w w.T] of w = [x; e]:
    a moment that is zero in exact arithmetic holds only round-off."""
    (series, moments), (ref, ref_moments) = got, want
    assert series.method == ref.method
    for name in ("mse", "kept_mass"):
        b = getattr(ref, name)
        assert_allclose(getattr(series, name), b, rtol=1e-12,
                        atol=1e-12 * np.abs(b).max(), err_msg=f"{label}: {name}")
    assert len(moments) == len(ref_moments)
    for m, r in zip(moments, ref_moments):
        scale = np.sqrt(np.mean(raw_moments(r) ** 2))
        for field in FIELDS:
            assert_allclose(getattr(m, field), getattr(r, field), rtol=1e-12,
                            atol=1e-12 * scale,
                            err_msg=f"{label}: {field} at step {m.step}")


class TestFilterBankEnumeration:
    """The CLI enumerates one filter bank: one tree for every fixed-gain
    filter and one for the switching filter.  A bank listing the SKF
    first, a duplicated single-mode filter and the average filter gives
    each filter what its own one-filter call gives."""

    SPECS = (FilterSpec("skf"), FilterSpec("single-mode", mode=2),
             FilterSpec("single-mode", mode=2), FilterSpec("average"))

    @pytest.mark.parametrize("budget", [{}, {"keep": 5}, {"mass": 0.9}],
                             ids=["exact", "keep", "mass"])
    def test_mixed_bank_equals_one_filter_calls(self, rng, tmp_path, budget):
        n = 4
        path = tmp_path / "scenario.json"
        path.write_text(dumps_scenario(Scenario(
            model=random_model(rng, 2, 2, uniform_rows=False,
                               uniform_prior=False),
            horizon=n, detection=DET, filters=self.SPECS, mc_samples=10,
            seed=0)))
        model = load_scenario(str(path)).model
        runs = []
        run_enumeration = enumeration._run_enumeration

        def spy(*args, **kwargs):
            out = run_enumeration(*args, **kwargs)
            runs.extend(zip(args[4], out))            # rows per filter
            return out

        flags = [f"--{key}={value}" for key, value in budget.items()]
        with mock.patch.object(enumeration, "_run_enumeration",
                               side_effect=spy) as run:
            assert cli.main(["analyze", "--scenario", str(path),
                             "--method", "pruned" if budget else "exact",
                             *flags, "--out", str(tmp_path / "out.csv")]) == 0
        assert run.call_count == 2           # the SKF's tree, then the KFs'
        # the repeated KF runs once
        assert [tuple(rows) for rows, _ in runs] == [(0, 1), (1,), (2,)]
        if budget:
            refs = [enumerate_filters(model, DET, [spec], n, **budget)[0]
                    for spec in self.SPECS]
        else:
            refs = [skf_slds_moments(model, DET, n)]
            refs += [single_mode_slds_moments(model, model.modes[1], n)] * 2
            refs += enumerate_filters(model, DET, self.SPECS[3:], n)
        for spec, u, want in zip(self.SPECS, [0, 1, 1, 2], refs):
            assert_same_run(runs[u][1], want, spec.display)
        if not budget:
            assert_moments_match(*runs[0][1], brute_skf(model, DET, n, rng))
            assert_moments_match(*runs[1][1],
                                 brute_single(model, model.modes[1], n, rng))

    def test_filter_groups_of_a_reordered_repeated_list(self):
        # one rule maps every spec to its bank rows and branch weights:
        # the SKF's group first, then every fixed-gain filter, each
        # distinct filter once in ascending row order, whatever the
        # specs' order, repeats and labels; each spec indexes its filter
        specs = [FilterSpec("average"), SKF, FilterSpec("single-mode", mode=2),
                 SKF, FilterSpec("single-mode", mode=1),
                 FilterSpec("single-mode", mode=2, label="kf2-twin"),
                 FilterSpec("skf", label="skf-twin")]
        [(skf_rows, D), (fixed_rows, ones)], index = \
            filter_groups(3, DET, specs)
        assert_array_equal(skf_rows, [[0, 1, 2]])
        assert_array_equal(D, [[detection_prob([i], [d], DET, 3)
                                for d in range(3)] for i in range(3)])
        assert_array_equal(fixed_rows, [[0], [1], [3]])
        assert_array_equal(ones, np.ones((3, 1)))
        assert_array_equal(index, [3, 0, 2, 0, 1, 2, 0])
        for mode in (0, 4):
            with pytest.raises(ValueError, match=r"outside 1\.\.3"):
                filter_groups(3, DET, [FilterSpec("single-mode", mode=mode)])
        with pytest.raises(ValueError, match="detection"):
            filter_groups(3, None, specs)


class TestEnumerateFilters:
    """One call enumerates a list of filter specs: one tree for the SKF,
    one for every fixed-gain filter."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), n_steps=st.integers(0, 4),
           p_d=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([{}, {"keep": 5}, {"mass": 0.9},
                                   {"keep": 3, "renormalize": True}]),
           data=st.data())
    def test_each_filter_equals_its_own_enumeration(self, r, n_steps, p_d,
                                                    seed, budget, data):
        model = random_model(np.random.default_rng(seed), r, 2,
                             uniform_rows=False, uniform_prior=False)
        det = DetectionModel(p_d)
        specs = data.draw(filter_specs(r, max_size=5, labels=TWINS))
        with mock.patch.object(enumeration, "_run_enumeration",
                               wraps=enumeration._run_enumeration) as run:
            runs = enumerate_filters(model, det, specs, n_steps, **budget)
        # repeats, reorders and labelled twins: one tree per group, each
        # distinct filter once in it
        assert [[tuple(row) for row in call.args[4]]
                for call in run.call_args_list] == distinct_rows(r, specs)
        assert len(runs) == len(specs)
        for spec, (series, moments) in zip(specs, runs):
            # the other filters in the list never move this one
            alone, alone_moments = enumerate_filters(model, det, [spec],
                                                     n_steps, **budget)[0]
            assert series.method == alone.method
            assert_array_equal(series.mse, alone.mse)
            assert_array_equal(series.kept_mass, alone.kept_mass)
            assert len(moments) == len(alone_moments) == n_steps + 1
            for got, want in zip(moments, alone_moments):
                for field in FIELDS:
                    assert_array_equal(getattr(got, field),
                                       getattr(want, field))

    def test_detected_path_gains_reject_a_fixed_gain_filter(self, bench):
        for specs in ([FilterSpec("average")], [SKF, FilterSpec("average")]):
            with pytest.raises(ValueError, match="switching filter only"):
                enumerate_filters(bench, DET, specs, 3,
                                  gains="detected-path")

    def test_cap_error_names_its_group(self, bench):
        fixed = [FilterSpec("single-mode", mode=1), FilterSpec("average"),
                 FilterSpec("single-mode", mode=1)]
        with pytest.raises(EnumerationCapError,
                           match=r"^kf-mode-1, average-kf: exact "
                                 r"enumeration needs 2\^5 trajectories"):
            enumerate_filters(bench, DET, fixed, 5, cap=20)
        # the SKF tree runs, and fails, first
        with pytest.raises(EnumerationCapError,
                           match=r"^skf: exact enumeration needs 4\^5"):
            enumerate_filters(bench, DET, [*fixed, SKF], 5, cap=20)

    def test_each_tree_logs_its_filters(self, bench, caplog):
        with caplog.at_level(logging.INFO, logger="slds_mse.enumeration"):
            enumerate_filters(bench, DET, [FilterSpec("average"), SKF], 3,
                              keep=4)
        assert [record.getMessage().rsplit(",", 1)[0]
                for record in caplog.records] == \
            ["skf: pruned method", "average-kf: pruned method"]


def leaf_by_leaf(model, n_steps, A_f, K, rows, D, keep=None, mass=None,
                 renormalize=False):
    """Kept mass and mixture per step of one filter's tree on the bank
    rows ``rows`` (s,) under branch weights ``D`` (r, s), every leaf
    [M | m] = [E[w w.T | path] | E[w | path]] of every level formed on its
    own, M' = G M G.T + C and m' = G m per (branch, parent), in the
    engine's (true i, slot d, parent) order, pruned by the same rule and
    summed in a plain loop.  Probabilities round as the engine's do, so
    tied pairs are kept alike."""
    A = np.array([mode.A for mode in model.modes])
    Q = np.array([mode.Q for mode in model.modes])
    Gt, lower = fast._joint_factors(A, Q, A_f.swapaxes(0, 1),
                                    K.swapaxes(0, 1), model.meas.H,
                                    model.meas.R)
    G, C = Gt.swapaxes(-1, -2), fast._noise(Q[:, None], lower)

    def child(G, C, leaf):
        M, m = leaf[:, :-1], leaf[:, -1]
        return np.column_stack((G @ M @ G.T + C, G @ m))

    mean0 = np.concatenate((model.init.mean, np.zeros(model.z)))
    leaves = [(1.0, None, np.column_stack(
        (fast._initial_moment(model.init), mean0)))]
    steps = [(1.0, leaves[0][2])]
    for n in range(n_steps):
        leaves = [
            (p * ((model.chain.prior if last is None
                   else model.chain.Z[last])[i] * D[i, d]),
             i, child(G[n, i, row], C[n, i, row], leaf))
            for i in range(model.r) for d, row in enumerate(rows)
            for p, last, leaf in leaves]
        if keep is not None or mass is not None:
            prob = np.array([p for p, _, _ in leaves])
            leaves = [leaves[j] for j in
                      enumeration._keep_indices(prob, keep, mass)]
        kept = sum(p for p, _, _ in leaves)
        scale = kept if renormalize else 1.0
        steps.append((kept, sum(p / scale * leaf for p, _, leaf in leaves)))
    return steps


class TestFoldedLevels:
    """The last level of a schedule-gain tree is folded from its parents'
    per-branch weighted sums; in an unpruned run so is the level before
    it, and the last level from their grandparents: both must equal a
    leaf-by-leaf sum of the same pairs."""

    @staticmethod
    def assert_matches_leaf_by_leaf(model, n_steps, spec=SKF, **budget):
        bank = filter_bank(model, n_steps)
        [((rows,), D)], _ = filter_groups(model.r, DET, [spec])
        got = enumerate_filters(model, DET, [spec], n_steps, bank,
                                **budget)[0]
        kept, mixtures = zip(*leaf_by_leaf(model, n_steps, *bank, rows, D,
                                           **budget))
        (mse, moments), = enumeration._read_moments(
            np.array(mixtures)[None], model.z)
        method = "pruned" if {"keep", "mass"} & set(budget) else "exact"
        want = MseSeries(mse=mse, method=method, kept_mass=np.array(kept))
        assert_same_run(got, (want, moments), f"{budget}")

    def test_keep_cutting_through_a_branch_three_modes(self, rng):
        # 9 SKF branches; 40 kept of 360 last-level pairs leave some
        # branch with part of its children
        model = random_model(rng, 3, 2, uniform_rows=False,
                             uniform_prior=False)
        with mock.patch.object(enumeration, "_fold",
                               wraps=enumeration._fold) as fold:
            self.assert_matches_leaf_by_leaf(model, 3, keep=40)
        (_, w, _, _), _ = fold.call_args
        assert w.shape == (9, 40)
        per_branch = np.count_nonzero(w, axis=1)
        assert per_branch.sum() == 40
        assert ((per_branch > 0) & (per_branch < 40)).any()

    @pytest.mark.parametrize("budget", [
        {"mass": 0.8, "renormalize": True}, {"mass": 0.8},
        {"keep": 5, "renormalize": True}, {"renormalize": True}],
        ids=["mass-renorm", "mass", "keep-renorm", "exact-renorm"])
    def test_mass_and_renormalize(self, rng, budget):
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        self.assert_matches_leaf_by_leaf(model, 4, **budget)
        self.assert_matches_leaf_by_leaf(
            model, 4, FilterSpec("single-mode", mode=2), **budget)

    def test_three_modes_non_uniform_chain(self, rng):
        # r = 3: the mix weighs 9 SKF branches by rows of a non-uniform Z
        # and of the detection matrix, 3 fixed-gain branches by Z alone
        model = random_model(rng, 3, 2, uniform_rows=False,
                             uniform_prior=False)
        self.assert_matches_leaf_by_leaf(model, 4)
        for spec in (FilterSpec("single-mode", mode=3), FilterSpec("average")):
            self.assert_matches_leaf_by_leaf(model, 4, spec)

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize("budget", [{}, {"keep": 3}],
                             ids=["exact", "keep"])
    def test_short_horizons_start_from_the_initial_leaf(self, rng, n_steps,
                                                        budget):
        # horizon 1 folds straight from the initial leaf; at horizon 2 an
        # unpruned run folds both levels from it and advances no leaf
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        with mock.patch.object(enumeration, "_advance",
                               wraps=enumeration._advance) as advance:
            self.assert_matches_leaf_by_leaf(model, n_steps, **budget)
            self.assert_matches_leaf_by_leaf(
                model, n_steps, FilterSpec("single-mode", mode=1), **budget)
        assert advance.call_count == 2 * (n_steps - 1 if budget else 0)

    @pytest.mark.parametrize("n_steps", range(5))
    @pytest.mark.parametrize("budget, unstored", [
        ({}, 2), ({"keep": 5}, 1), ({"mass": 0.9}, 1),
        ({"gains": "detected-path"}, 0)],
        ids=["exact", "keep", "mass", "detected-path"])
    def test_stored_levels_then_folded_levels(self, bench, n_steps, budget,
                                              unstored):
        # S = max(N - unstored, 0) levels are advanced and stored, and the
        # other N - S folded, one _fold call a level
        stored = max(n_steps - unstored, 0)
        with mock.patch.object(enumeration, "_advance",
                               wraps=enumeration._advance) as advance, \
                mock.patch.object(enumeration, "_fold",
                                  wraps=enumeration._fold) as fold:
            enumerate_filters(bench, DET, [SKF], n_steps, **budget)
        assert advance.call_count == stored
        assert fold.call_count == n_steps - stored

    def test_block_edges_inside_the_folded_sums(self, rng):
        # blocks of three parents in the stored levels and of 15 in the
        # folds' weighted sums cut level 3's 64 parents with a short last
        # block
        model = random_model(rng, 2, 2, uniform_rows=False,
                             uniform_prior=False)
        k = 2 * model.z
        with mock.patch.object(enumeration, "_BLOCK_MACS",
                               3 * 4 * k ** 2 * (k + 1)):
            self.assert_matches_leaf_by_leaf(model, 5)
            self.assert_matches_leaf_by_leaf(model, 5, keep=7)

    def test_unpruned_run_never_stores_the_last_two_levels(self, bench):
        # SKF, r = 2: 4 branches per leaf, 4^n leaves at level n
        n_steps = 6
        stored = []
        advance = enumeration._advance

        def spy(phi, G, C):
            out = advance(phi, G, C)
            stored.append(out.shape[2])
            return out

        with mock.patch.object(enumeration, "_advance", side_effect=spy), \
                mock.patch.object(enumeration, "_fold",
                                  wraps=enumeration._fold) as fold:
            skf_slds_moments(bench, DET, n_steps)
        assert stored == [4 ** n for n in range(1, n_steps - 1)]
        # level N - 1 weighs its 4^(N-2) parents per branch, level N the
        # 4 sums of level N - 1: no weight per leaf of level N
        assert [call.args[1].shape for call in fold.call_args_list] == \
            [(4, 4 ** (n_steps - 2)), (4, 4)]

    def test_peak_memory_below_the_penultimate_leaves(self, bench):
        # r = 2, z = 4, N = 8: the 4^7 leaves of level N - 1 alone take
        # 9.4 MB; storing either of the last two levels would exceed it
        n_steps, k = 8, 2 * bench.z
        penultimate = 4 ** (n_steps - 1) * k * (k + 1) * 8
        tracemalloc.start()
        try:
            skf_slds_moments(bench, DET, n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < penultimate

    @pytest.mark.parametrize("budget", [{}, {"keep": 6}],
                             ids=["exact", "keep"])
    def test_detected_path_stores_and_sums_every_level(self, bench, budget):
        # per-leaf maps keep the leaf-by-leaf path: nothing is folded, and
        # each level is summed with one weight per leaf
        with mock.patch.object(enumeration, "_advance",
                               wraps=enumeration._advance) as advance, \
                mock.patch.object(enumeration, "_fold") as fold, \
                mock.patch.object(enumeration, "_mixture",
                                  wraps=enumeration._mixture) as mixture:
            enumerate_filters(bench, DET, [SKF], 4, gains="detected-path",
                              **budget)
        assert fold.call_count == 0
        assert [len(call.args) for call in advance.call_args_list] == [3] * 4
        assert [call.args[0].ndim for call in mixture.call_args_list] == \
            [1] * 5
