"""Simulator, filter replay and accumulator tests.

The Monte Carlo driver is the ground truth every analytic series is
checked against, so these tests pin its determinism contract (seeded,
chunked, thread-invariant), validate the simulator and detection draws
statistically, and verify the accumulator algebra on hand-built errors.
"""

import json
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    HORIZONS,
    TWINS,
    average_filter_modes,
    bimodal_model,
    detection,
    distinct_rows,
    filter_specs,
    kf_predict,
    kf_schedule,
    kf_update,
    random_model,
    single_mode_model,
)
from slds_mse import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SimRun,
    SldsModel,
    filter_bank,
    gain_schedule,
    run_monte_carlo,
)
from slds_mse import montecarlo
from slds_mse.serialize import ScenarioFormatError, scenario_from_dict

DEMO = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / \
    "bimodal4d.json"


def noiseless_constant_model(z=2):
    """A = I with zero process, measurement and initial noise: the state
    never moves and the measurement is exactly H x_0."""
    H = np.array([[1.0, 2.0], [0.0, 1.0]])
    return SldsModel(
        modes=(ModeModel(np.eye(z), np.zeros((z, z))),),
        meas=MeasurementModel(H, np.zeros((z, z))),
        chain=MarkovChain(np.ones((1, 1)), np.ones(1)),
        init=GaussianBelief(np.array([1.0, -2.0]), np.zeros((z, z))),
    )


def simulate(model, n_steps, rng, count):
    """``count`` runs of the system stepped ``n_steps`` times: modes
    ``(N, count)``, states ``(N+1, z, count)``, measurements ``(N, m,
    count)``."""
    system = montecarlo._System(model)
    x, mode = system.start(rng, count), None
    modes, states, meas = [], [x], []
    for _ in range(n_steps):
        mode, x, y = system.step(rng, x, mode)
        modes.append(mode)
        states.append(x)
        meas.append(y)
    return np.array(modes), np.array(states), np.array(meas)


class TestSimulator:
    def test_output_shapes(self, bench, rng):
        modes, states, meas = simulate(bench, 5, rng, 3)
        assert modes.shape == (5, 3)
        assert np.issubdtype(modes.dtype, np.integer)
        assert states.shape == (6, 4, 3)
        assert meas.shape == (5, 4, 3)
        assert modes.min() >= 0 and modes.max() <= 1

    def test_noiseless_constant_system_is_exact(self, rng):
        model = noiseless_constant_model()
        modes, states, meas = simulate(model, 4, rng, 3)
        assert_array_equal(modes, np.zeros((4, 3), dtype=modes.dtype))
        assert_array_equal(states, np.broadcast_to(
            model.init.mean[:, None], (5, 2, 3)))
        assert_array_equal(meas, np.broadcast_to(
            (model.meas.H @ model.init.mean)[:, None], (4, 2, 3)))

    def test_prior_locks_first_mode(self, rng):
        model = bimodal_model(prior=(1.0, 0.0))
        modes, _, _ = simulate(model, 3, rng, 500)
        assert_array_equal(modes[0], np.zeros(500, dtype=modes.dtype))

    def test_uniform_chain_mode_frequencies(self, bench, rng):
        modes, _, _ = simulate(bench, 6, rng, 2000)
        # uniform rows make every step an independent fair coin
        freq = modes.mean()
        assert abs(freq - 0.5) < 3.0 * np.sqrt(0.25 / modes.size)

    def test_sticky_chain_step_frequencies(self, rng):
        model = bimodal_model(rows=[[0.9, 0.1], [0.2, 0.8]],
                              prior=(1.0, 0.0))
        modes, _, _ = simulate(model, 2, rng, 4000)
        # step 1 is pinned by the prior, step 2 follows the first row
        assert_array_equal(modes[0], np.zeros(4000, dtype=modes.dtype))
        freq = modes[1].mean()
        assert abs(freq - 0.1) < 4.0 * np.sqrt(0.1 * 0.9 / 4000)

    def test_mode_is_the_clamped_count_of_cumulative_sums(self):
        # every row's cumulative sum ends 1 ulp below 1, and u reaches it:
        # all r sums are <= u there, and the mode is still r - 1, the
        # count over all r sums clamped, as the r - 1 sums kept give it
        top = np.nextafter(1.0, 0.0)
        rows = [[0.25, 0.25, 0.5 - 2 ** -53], [0.5 - 2 ** -53, 0.5, 0.0],
                [0.0, 0.0, top]]
        model = bimodal_model(z=2, a_values=(0.9, 0.5, 0.7), rows=rows,
                              prior=rows[0])
        system = montecarlo._System(model)
        u = np.array([0.0, 0.25, 0.3, 0.5, 0.75, top, top])
        last = np.array([0, 1, 2, 0, 1, 2, 1])

        class Draws:
            random = staticmethod(lambda count: u)
            standard_normal = staticmethod(np.zeros)

        for cum, before in [(np.cumsum(rows[0]), None),
                            (np.cumsum(rows, axis=1)[last].T, last)]:
            count = (cum.reshape(3, -1) <= u).sum(axis=0)
            assert count[-2:].tolist() == [3, 3]       # all r sums <= u
            mode, _, _ = system.step(Draws(), np.zeros((2, u.size)), before)
            assert_array_equal(mode, np.minimum(count, 2))


def detect_steps(truth, det, r, rng):
    """Detected modes of true modes ``(count, N)``, one step at a time."""
    return np.column_stack([montecarlo._detect(rng, step, det, r)
                            for step in truth.T])


class TestDetections:
    def test_perfect_detection_matches_truth(self, rng):
        truth = rng.integers(0, 3, size=(8, 10))
        detected = detect_steps(truth, DetectionModel(1.0), 3, rng)
        assert_array_equal(detected, truth)

    def test_single_mode_always_detected(self, rng):
        # one mode leaves nothing to confuse: no draw is made
        truth = np.zeros((4, 6), dtype=np.intp)
        state = rng.bit_generator.state
        detected = detect_steps(truth, DetectionModel(0.0), 1, rng)
        assert_array_equal(detected, truth)
        assert rng.bit_generator.state == state

    def test_detection_statistics(self, rng):
        truth = rng.integers(0, 3, size=(4000, 5))
        det = DetectionModel(0.8)
        detected = detect_steps(truth, det, 3, rng)
        assert detected.min() >= 0 and detected.max() <= 2
        correct = (detected == truth).mean()
        assert abs(correct - 0.8) < 4.0 * np.sqrt(0.8 * 0.2 / truth.size)
        # misses split evenly between the two wrong modes
        wrong_mask = detected != truth
        first_wrong = (detected[wrong_mask]
                       == (truth[wrong_mask] + 1) % 3).mean()
        n_wrong = int(wrong_mask.sum())
        assert abs(first_wrong - 0.5) < 4.0 * np.sqrt(0.25 / n_wrong)


    def test_two_modes_skip_the_empty_integer_draw(self, rng):
        # at r = 2 the wrong mode is the other one: the detections and the
        # Philox state afterwards equal those of the two-draw form, whose
        # integers(0, 1) draws no bits
        det = DetectionModel(0.7)
        fast, full = (montecarlo._rng(5, 2, montecarlo._PURPOSE_DETECT)
                      for _ in range(2))
        for _ in range(50):
            truth = rng.integers(0, 2, size=37)
            hit = full.random(truth.size) < det.p_d
            wrong = full.integers(0, 1, size=truth.size)
            want = np.where(hit, truth, wrong + (wrong >= truth))
            assert_array_equal(montecarlo._detect(fast, truth, det, 2), want)
        # Philox's state holds arrays: compare it by its full text
        assert repr(fast.bit_generator.state) == repr(full.bit_generator.state)


class TestFilterReplay:
    def test_skf_with_perfect_detection_on_locked_chain(self):
        # chain locked to mode 1: perfect detection makes the switching
        # filter replay the mode-1 single filter arithmetic exactly
        model = bimodal_model(z=2, rows=[[1.0, 0.0], [1.0, 0.0]],
                              prior=(1.0, 0.0))
        single, skf = run_monte_carlo(
            model, [FilterSpec("single-mode", 1), FilterSpec("skf")],
            DetectionModel(1.0), 6, 1500, seed=4)
        # both read mode 1's row of one filter bank, and the switching
        # filter's per-run gain selection picks that row at every step
        TestDriverDeterminism.assert_runs_identical(skf, single)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r=st.integers(1, 4), n_steps=st.sampled_from(HORIZONS),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_replay_stacks_equal_per_spec_schedules(self, r, n_steps, seed,
                                                    data):
        # the replay's closed-loop maps (I - K H) A and gains K hold each
        # distinct filter once, repeats, reorders and labelled twins
        # included: one row per fixed-gain filter, one per mode of the
        # switching filter, in the order of the filter groups; each
        # spec's rows are its own Riccati schedule, and its Gram sums
        # those of its own one-spec run
        model = random_model(np.random.default_rng(seed), r, 2,
                             uniform_rows=False, uniform_prior=False)
        specs = data.draw(filter_specs(r, labels=TWINS))
        H, det = model.meas.H, DetectionModel(0.9)
        replays, real = [], montecarlo._Replay

        def spy(*args):
            replays.append(real(*args))
            return replays[-1]

        with mock.patch.object(montecarlo, "_Replay", side_effect=spy):
            runs = run_monte_carlo(model, specs, det, n_steps, 64, seed)
        [replay] = replays
        assert replay.G == sum(map(len, distinct_rows(r, specs)))
        assert len(replay.M) == len(replay.K) == replay.lead + replay.G
        for spec, g, run in zip(specs, replay.group, runs):
            if spec.kind == "skf":
                filters = [[mode] * n_steps for mode in model.modes]
            elif spec.kind == "average":
                filters = [average_filter_modes(model, n_steps)]
            else:
                filters = [[model.modes[spec.mode - 1]] * n_steps]
            # the SKF's r mode rows lead; a fixed-gain filter g has one
            # row, g past them
            rows = range(r) if spec.kind == "skf" else [replay.lead + g]
            for steps, row in zip(filters, rows):
                gains, _ = kf_schedule(steps, model.meas, model.init)
                assert_array_equal(replay.M[row],
                                   [mode.A - gain @ (H @ mode.A)
                                    for mode, gain in zip(steps, gains)])
                assert_array_equal(replay.K[row], gains)
            alone, = run_monte_carlo(model, [spec], det, n_steps, 64, seed)
            assert_array_equal(run.gram, alone.gram)

    def test_a_diverging_filter_leaves_the_others_untouched(self, bench):
        # each distinct filter is its own matrix in the replay's batched
        # product: an average row whose A is scaled by 1e200 overflows to
        # inf and NaN in its own sums only, and every other filter's
        # equal those of its own one-spec run on the same bank
        A, gains = filter_bank(bench, 6)
        A = A.copy()
        A[bench.r] *= 1e200
        bank, det = (A, gains), detection()
        specs = [FilterSpec("single-mode", 1), FilterSpec("single-mode", 2),
                 FilterSpec("average"), FilterSpec("skf")]
        with np.errstate(all="ignore"):
            runs = run_monte_carlo(bench, specs, det, 6, 1500, seed=7,
                                   bank=bank)
            assert not np.isfinite(runs[2].gram).all()
            for spec, run in zip(specs, runs):
                if spec.kind != "average":
                    alone, = run_monte_carlo(bench, [spec], det, 6, 1500,
                                             seed=7, bank=bank)
                    assert np.isfinite(run.gram).all()
                    assert_array_equal(run.gram, alone.gram)

    def test_average_filter_error_shape(self, bench):
        # one accumulator row per step, and every filter starts from the
        # same estimate, so e_0 = x_0 - mean sums alike for all of them
        average, single = run_monte_carlo(
            bench, [FilterSpec("average"), FilterSpec("single-mode", 1)],
            None, 5, 100, seed=2)
        assert average.gram.shape == (6, 6, 6)
        assert average.sum_e.shape == (6, 4)
        assert_array_equal(average.gram[0], single.gram[0])
        assert not np.array_equal(average.gram[1], single.gram[1])


def test_chain_of_another_mode_count_never_reaches_the_driver(bench):
    # a 3-mode chain on the 2-mode demo once ran: the simulator's mode 3
    # read mode 2's row of the bank, and the MSEs looked plausible
    Z, prior = np.full((3, 3), 1 / 3), np.full(3, 1 / 3)
    message = "chain.Z shape (3, 3) does not fit (r, r): r is 2 in modes"
    with pytest.raises(ValueError) as err:
        SldsModel(bench.modes, bench.meas, MarkovChain(Z, prior), bench.init)
    assert str(err.value) == message
    data = json.loads(DEMO.read_text())
    data["chain"] = {"Z": Z.tolist(), "prior": prior.tolist()}
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(data)
    assert str(err.value) == f"scenario: {message}"


class TestDriverDeterminism:
    FILTERS = [FilterSpec("single-mode", 1), FilterSpec("average"),
               FilterSpec("skf")]

    @staticmethod
    def assert_runs_identical(a, b):
        assert a.samples == b.samples
        assert_array_equal(a.sum_e, b.sum_e)
        assert_array_equal(a.sum_ee, b.sum_ee)
        assert_array_equal(a.sum_sq, b.sum_sq)
        assert_array_equal(a.sum_quad, b.sum_quad)
        assert_array_equal(a.sum_cube, b.sum_cube)

    def test_same_seed_is_bitwise_identical(self, bench):
        det = detection()
        first = run_monte_carlo(bench, self.FILTERS, det, 4, 1500, seed=3)
        second = run_monte_carlo(bench, self.FILTERS, det, 4, 1500, seed=3)
        for a, b in zip(first, second):
            self.assert_runs_identical(a, b)

    def test_thread_count_is_bitwise_irrelevant(self, bench):
        # 3000 samples span three chunks, so the pool actually interleaves
        det = detection()
        serial = run_monte_carlo(bench, self.FILTERS, det, 4, 3000, seed=9,
                                 threads=1)
        pooled = run_monte_carlo(bench, self.FILTERS, det, 4, 3000, seed=9,
                                 threads=4)
        for a, b in zip(serial, pooled):
            self.assert_runs_identical(a, b)

    def test_detection_draws_leave_simulation_untouched(self, bench):
        # adding a switching filter must not shift any other filter's
        # stream: detections use their own counter purpose
        spec = FilterSpec("single-mode", 2)
        alone = run_monte_carlo(bench, [spec], None, 4, 1500, seed=3)
        paired = run_monte_carlo(bench, [FilterSpec("skf"), spec],
                                 detection(), 4, 1500, seed=3)
        self.assert_runs_identical(alone[0], paired[1])

    def test_removing_a_filter_leaves_the_skf_untouched(self, bench):
        # the detection stream is keyed by its purpose, not by the
        # switching filter's position in the list
        det = detection()
        paired = run_monte_carlo(bench, [FilterSpec("single-mode", 1),
                                         FilterSpec("skf")],
                                 det, 4, 1500, seed=3)
        alone = run_monte_carlo(bench, [FilterSpec("skf")], det, 4, 1500,
                                seed=3)
        self.assert_runs_identical(paired[1], alone[0])

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), z=st.integers(1, 3),
           n_steps=st.integers(1, 3), samples=st.integers(1025, 2100),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_each_filter_ignores_threads_and_the_other_filters(
            self, r, z, n_steps, samples, seed, data):
        # at least two chunks, so the pool really splits the work
        model = random_model(np.random.default_rng(seed), r, z,
                             uniform_rows=False, uniform_prior=False)
        pool = ([FilterSpec("single-mode", j) for j in range(1, r + 1)]
                + [FilterSpec("average"), FilterSpec("skf")])
        order = data.draw(st.permutations(range(len(pool))))
        picked = order[:data.draw(st.integers(1, len(pool)))]
        det = detection()
        full = run_monte_carlo(model, pool, det, n_steps, samples, seed,
                               threads=1)
        subset = run_monte_carlo(model, [pool[i] for i in picked], det,
                                 n_steps, samples, seed, threads=2)
        for i, run in zip(picked, subset):
            self.assert_runs_identical(full[i], run)

    def test_different_seeds_differ(self, bench_scalar):
        a = run_monte_carlo(bench_scalar, [FilterSpec("single-mode", 1)],
                            None, 3, 256, seed=1)[0]
        b = run_monte_carlo(bench_scalar, [FilterSpec("single-mode", 1)],
                            None, 3, 256, seed=2)[0]
        assert not np.array_equal(a.sum_e, b.sum_e)

    def test_rejects_empty_sample_budget(self, bench):
        with pytest.raises(ValueError, match="at least one sample"):
            run_monte_carlo(bench, self.FILTERS, detection(), 4, 0, seed=1)

    @pytest.mark.parametrize("name, value, error, message", [
        ("threads", 0, ValueError, "threads must be >= 1, got 0"),
        ("threads", 2.0, TypeError, "threads must be an integer, got 2.0"),
        ("seed", -1, ValueError,
         "seed must be an unsigned 64-bit integer, got -1"),
        ("seed", 2 ** 64, ValueError,
         f"seed must be an unsigned 64-bit integer, got {2 ** 64}"),
        ("seed", True, TypeError, "seed must be an integer, got True"),
        ("samples", 10.5, TypeError, "samples must be an integer, got 10.5"),
    ])
    def test_bad_argument_is_named_before_any_work(self, bench, monkeypatch,
                                                   name, value, error,
                                                   message):
        monkeypatch.setattr(montecarlo, "_bank", mock.Mock(
            side_effect=AssertionError("work began")))
        args = dict(samples=64, seed=1, threads=1) | {name: value}
        with pytest.raises(error) as err:
            run_monte_carlo(bench, self.FILTERS, detection(), 4, **args)
        assert str(err.value) == message

    def test_skf_needs_detection_model(self, bench):
        with pytest.raises(ValueError, match="detection"):
            run_monte_carlo(bench, [FilterSpec("skf")], None, 4, 64, seed=1)


def plain_replay_errors(model, specs, det, n_steps, samples, seed, chunk):
    """Errors ``(samples, N+1, z)`` of each spec, replayed sample by sample
    with the one-step Kalman operators on the documented draws: chunk c
    keys Philox with (seed, c); purpose 0 draws the initial noise, then per
    step the mode uniform, the process noise and the measurement noise;
    purpose 1 draws per step the detection uniform and the wrong mode.
    Chunks hold ``chunk`` samples."""
    z, m, r = model.z, model.m, model.r
    chol = np.linalg.cholesky
    L0, Lr = chol(model.init.cov), chol(model.meas.R)
    average = average_filter_modes(model, n_steps)
    errors = {f: [] for f in range(len(specs))}
    for c, start in enumerate(range(0, samples, chunk)):
        count = min(chunk, samples - start)

        def generator(purpose):
            return np.random.Generator(np.random.Philox(
                counter=[0, 0, 0, purpose], key=[seed, c]))

        sim, detect = generator(0), generator(1)
        x0 = sim.standard_normal((count, z))
        u, w, v = zip(*[(sim.random(count), sim.standard_normal((count, z)),
                         sim.standard_normal((count, m)))
                        for _ in range(n_steps)])
        hit, wrong = zip(*[(detect.random(count),
                            detect.integers(0, r - 1, size=count))
                           if r > 1 else (None, None)
                           for _ in range(n_steps)])
        for i in range(count):
            x = model.init.mean + L0 @ x0[i]
            # fixed filters keep a belief each; the switching filter keeps
            # one estimate and every mode's own KF for its gains
            beliefs = [model.init] * len(specs)
            modes = [model.init] * r
            trail = {f: [x - model.init.mean] for f in range(len(specs))}
            truth = None
            for n in range(n_steps):
                cum = np.cumsum(model.chain.prior if truth is None
                                else model.chain.Z[truth])
                truth = min(int((cum <= u[n][i]).sum()), r - 1)
                mode = model.modes[truth]
                x = mode.A @ x + chol(mode.Q) @ w[n][i]
                y = model.meas.H @ x + Lr @ v[n][i]
                if r > 1 and hit[n][i] >= det.p_d:
                    detected = wrong[n][i] + (wrong[n][i] >= truth)
                else:
                    detected = truth
                covs = []          # every mode's KF covariance before step n
                for j, own in enumerate(model.modes):
                    covs.append(modes[j].cov)
                    modes[j] = kf_update(kf_predict(modes[j], own),
                                         model.meas, y).posterior
                for f, spec in enumerate(specs):
                    if spec.kind == "skf":
                        prior = GaussianBelief(beliefs[f].mean,
                                               covs[detected])
                        filt = model.modes[detected]
                    else:
                        prior = beliefs[f]
                        filt = (average[n] if spec.kind == "average"
                                else model.modes[spec.mode - 1])
                    beliefs[f] = kf_update(kf_predict(prior, filt),
                                           model.meas, y).posterior
                    trail[f].append(x - beliefs[f].mean)
            for f in trail:
                errors[f].append(trail[f])
    return [np.array(errors[f]) for f in range(len(specs))]


class TestOracle:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_sums_equal_plain_replay(self, r, monkeypatch):
        # small chunks, so three chunk keys are checked at little cost; a
        # second switching filter and a labelled twin share their filter's
        # replayed row, and r = 4 is the r of the benchmark's long horizon,
        # where the switching filter's four candidate updates are stacked
        monkeypatch.setattr(montecarlo, "CHUNK", 64)
        model = random_model(np.random.default_rng(40 + r), r, 2,
                             uniform_rows=False, uniform_prior=False)
        specs = ([FilterSpec("single-mode", j) for j in range(1, r + 1)]
                 + [FilterSpec("average"), FilterSpec("skf"),
                    FilterSpec("single-mode", r, label="twin"),
                    FilterSpec("skf")])
        det, n_steps, samples, seed = detection(0.8), 4, 150, 11
        runs = run_monte_carlo(model, specs, det, n_steps, samples, seed)
        oracle = plain_replay_errors(model, specs, det, n_steps, samples,
                                     seed, chunk=64)
        for run, errors in zip(runs, oracle):
            want = SimRun.from_errors(errors)
            assert run.samples == want.samples == samples
            for name in ("sum_e", "sum_ee", "sum_sq", "sum_quad",
                         "sum_cube"):
                assert_allclose(getattr(run, name), getattr(want, name),
                                rtol=1e-12, atol=0, err_msg=name)


class TestMemory:
    def test_chunk_memory_does_not_grow_with_the_horizon(self):
        # a streamed chunk keeps one step of errors, not (N+1, count, z)
        model = random_model(np.random.default_rng(3), 2, 2)
        specs = [FilterSpec("single-mode", 1), FilterSpec("average"),
                 FilterSpec("skf")]
        tracemalloc.start()
        try:
            run_monte_carlo(model, specs, detection(), 400, 1024, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestGram:
    @pytest.mark.parametrize("count", [5, 1024])
    @pytest.mark.parametrize("z", [1, 2, 3])
    @pytest.mark.parametrize("G", [1, 2, 3])
    def test_equals_einsum_and_is_exactly_symmetric(self, G, z, count, rng):
        # the GEMM on all but the last row, mirrored, is V Vᵀ to round-off
        # and exactly symmetric, as the SYRK product it replaced was
        e = rng.standard_normal((G, z, count))
        V = np.ones((G, z + 2, count))
        V[:, 1:-1] = e
        g = montecarlo._gram(V)
        sq = np.einsum("gic,gic->gc", e, e)
        assert_array_equal(V[:, -1], sq)
        want = np.einsum("gic,gjc->gij", V, V)
        assert_allclose(g, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert_array_equal(g, g.swapaxes(-1, -2))
        out = np.full_like(g, np.nan)
        assert montecarlo._gram(V, out=out) is out
        assert_array_equal(out, g)


class TestAccumulator:
    def test_two_point_mse(self):
        errors = np.zeros((2, 1, 2))
        errors[1, 0] = [1.0, 1.0]          # squared norms 0 and 2
        run = SimRun.from_errors(errors)
        assert_allclose(run.mse(), [1.0], atol=0)
        assert_allclose(run.mse_stderr(), [1.0], atol=0)

    def test_all_zero_errors(self):
        run = SimRun.from_errors(np.zeros((5, 3, 2)))
        assert_array_equal(run.mse(), np.zeros(3))
        assert_array_equal(run.mse_stderr(), np.zeros(3))

    def test_single_sample_has_nan_stderr(self, rng):
        # every sample statistic of one sample is NaN, with no warning
        run = SimRun.from_errors(rng.standard_normal((1, 2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(run.mse()).all()
            for statistic in (run.cov, run.var, run.mean_stderr,
                              run.mse_stderr, run.var_stderr):
                assert np.isnan(statistic()).all()

    def test_mean_and_cov_match_numpy(self, rng):
        errors = rng.standard_normal((40, 1, 3))
        run = SimRun.from_errors(errors)
        flat = errors[:, 0, :]
        assert_allclose(run.mean()[0], flat.mean(axis=0), atol=1e-12)
        assert_allclose(run.cov()[0], np.cov(flat, rowvar=False),
                        atol=1e-12)
        assert_allclose(run.mean_stderr()[0],
                        flat.std(axis=0, ddof=1) / np.sqrt(40), atol=1e-12)

    def test_step_major_view_matches_einsum_sums(self, rng):
        # the replays hand over (samples, N+1, z) views of (N+1, samples, z)
        # storage; the sums must equal the per-sample einsum formulas
        errors = rng.standard_normal((4, 300, 3)).swapaxes(0, 1)
        run = SimRun.from_errors(errors)
        sq = np.einsum("sni,sni->sn", errors, errors)
        assert_allclose(run.sum_e, errors.sum(axis=0), rtol=1e-12)
        assert_allclose(run.sum_ee, np.einsum("sni,snj->nij", errors, errors),
                        rtol=1e-12)
        assert_allclose(run.sum_sq, sq.sum(axis=0), rtol=1e-12)
        assert_allclose(run.sum_quad, (sq * sq).sum(axis=0), rtol=1e-12)
        assert_allclose(run.sum_cube, np.einsum("sn,sni->ni", sq, errors),
                        rtol=1e-12)

    def test_merge_equals_monolithic(self, rng):
        errors = rng.standard_normal((64, 3, 2))
        merged = (SimRun.from_errors(errors[:40])
                  + SimRun.from_errors(errors[40:]))
        whole = SimRun.from_errors(errors)
        assert merged.samples == whole.samples == 64
        assert_allclose(merged.sum_ee, whole.sum_ee, rtol=1e-12)
        assert_allclose(merged.sum_quad, whole.sum_quad, rtol=1e-12)

    def test_var_is_scalar_only(self, rng):
        scalar = SimRun.from_errors(rng.standard_normal((30, 2, 1)))
        assert_allclose(scalar.var(),
                        np.einsum("nii->ni", scalar.cov())[:, 0], atol=0)
        vector = SimRun.from_errors(rng.standard_normal((30, 2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            vector.var()

    def test_var_stderr_tracks_normal_theory(self, rng):
        # for N(0, 1) samples the variance estimate has stderr
        # close to sqrt(2 / s)
        s = 4096
        run = SimRun.from_errors(rng.standard_normal((s, 1, 1)))
        assert abs(run.var()[0] - 1.0) < 4.0 * run.var_stderr()[0]
        assert_allclose(run.var_stderr()[0], np.sqrt(2.0 / s), rtol=0.2)


class TestStatisticalAgreement:
    def test_matched_filter_moments(self, lgss):
        run = run_monte_carlo(lgss, [FilterSpec("single-mode", 1)], None,
                              6, 40_000, seed=5)[0]
        _, covs = gain_schedule(lgss.modes[0], lgss.meas, lgss.init, 6)
        mean, mean_se = run.mean(), run.mean_stderr()
        var, var_se = run.var(), run.var_stderr()
        assert abs(var[0] - lgss.init.cov[0, 0]) < 4.0 * var_se[0]
        for n in range(1, 7):
            # matched KF: error mean zero, error variance the posterior P
            assert abs(mean[n, 0]) < 4.0 * mean_se[n, 0]
            posterior = covs[n - 1][0, 0]
            assert abs(var[n] - posterior) < 4.0 * var_se[n]

    def test_initial_mse_is_trace_of_prior_cov(self, bench):
        run = run_monte_carlo(bench, [FilterSpec("average")], None, 1,
                              4096, seed=12)[0]
        assert abs(run.mse()[0] - 4.0) < 3.0 * run.mse_stderr()[0]
