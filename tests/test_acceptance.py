"""End-to-end acceptance gate.

Each test exercises one deliverable-level claim at its stated tolerance
and prints a single CRITERION line (run ``pytest -s`` to see them all);
the assertions keep the gate binding.  Criterion 6 runs its beam at the
smallest width whose kept mass can exceed its 0.99 bound on the sticky
chain, and checks the next narrower beam falls short of it.
"""

import csv
import io
import json
import time

import numpy as np
from numpy.testing import assert_allclose

from helpers import (bimodal_model, detection, detection_prob, spd_matrix,
                     stable_matrix)
from slds_mse import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
    bank_series,
    enumerate_filters,
    gain_schedule,
    mismatch_series,
    run_monte_carlo,
    single_mode_slds_moments,
    skf_slds_moments,
)
from slds_mse.cli import main

SEED = 20260823

KF1, SKF = FilterSpec("single-mode", 1), FilterSpec("skf")
ALL_FILTERS = (KF1, FilterSpec("single-mode", 2), FilterSpec("average"), SKF)


def report(num: int, ok: bool, description: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {description}")


def test_criterion_1_analytic_matches_monte_carlo():
    t0 = time.perf_counter()
    model = bimodal_model()
    worst = 0.0
    for p_d in (0.8, 0.9, 1.0):
        det = DetectionModel(p_d)
        runs = run_monte_carlo(model, ALL_FILTERS, det, 20, 20_000,
                               seed=SEED, threads=1)
        aggregate = bank_series(model, det, ALL_FILTERS, 20)
        exact = enumerate_filters(model, det, ALL_FILTERS, 8)
        for run, agg_series, (enum_series, _) in zip(runs, aggregate, exact):
            mse, stderr = run.mse(), run.mse_stderr()
            agg, enum = agg_series.mse, enum_series.mse
            for step in range(2, 21):
                gate = max(0.05 * agg[step], 4.0 * stderr[step])
                worst = max(worst, abs(agg[step] - mse[step]) / gate)
            for step in range(2, 9):
                gate = max(0.05 * enum[step], 4.0 * stderr[step])
                worst = max(worst, abs(enum[step] - mse[step]) / gate)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    report(1, ok,
           "analytic MSE (enumeration to step 8, aggregate to step 20) vs "
           "20k-sample Monte Carlo within max(5% rel, 4 stderr) for 4 "
           f"filters x p_d in {{0.8, 0.9, 1.0}}: worst gate ratio "
           f"{worst:.3f}, runtime {elapsed:.1f} s (budget 60 s)")
    assert worst <= 1.0
    assert elapsed < 60.0


def test_criterion_2_skf_beats_single_filters():
    model = bimodal_model()
    skf, kf1, kf2 = (series.mse for series in bank_series(
        model, DetectionModel(0.9), [SKF, *ALL_FILTERS[:2]], 20))
    singles = np.minimum(kf1, kf2)
    margin = float((singles - skf)[3:21].min())
    ok = margin > 1e-6
    report(2, ok,
           "switching filter MSE strictly below both single-mode filters "
           f"for steps 3..20 at p_d = 0.9: worst margin {margin:.3e} "
           "(required > 1e-6)")
    assert margin > 1e-6


def test_criterion_3_matched_filter_exactness():
    rng = np.random.default_rng(SEED)
    worst_mean = 0.0
    worst_cov = 0.0
    for k in range(50):
        z = (1, 2, 4)[k % 3]
        truth = ModeModel(stable_matrix(rng, z, radius=0.95),
                          spd_matrix(rng, z))
        meas = MeasurementModel(
            np.eye(z) + 0.1 * rng.standard_normal((z, z)),
            spd_matrix(rng, z, 0.05))
        init = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 0.5))
        moments, _ = mismatch_series(truth, truth, meas, init, 50)
        _, covs = gain_schedule(truth, meas, init, 50)
        for n in range(1, 51):
            worst_mean = max(worst_mean,
                             float(np.linalg.norm(moments[n].e_mean)))
            gap = moments[n].e_cov - covs[n - 1]
            worst_cov = max(worst_cov, float(np.linalg.norm(gap)))
    ok = worst_mean <= 1e-9 and worst_cov <= 1e-8
    report(3, ok,
           "matched-filter error analysis on 50 random stable models "
           "(z in {1, 2, 4}, 50 steps): max |E[e]| "
           f"{worst_mean:.2e} (<= 1e-9), max |C(e) - P|_F {worst_cov:.2e} "
           "(<= 1e-8)")
    assert worst_mean <= 1e-9
    assert worst_cov <= 1e-8


def test_criterion_4_aggregate_equals_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for k in range(25):
        z = (1, 2, 3)[k % 3]
        modes = tuple(ModeModel(stable_matrix(rng, z), spd_matrix(rng, z))
                      for _ in range(2))
        meas = MeasurementModel(
            np.eye(z) + 0.1 * rng.standard_normal((z, z)),
            spd_matrix(rng, z, 0.05))
        if k % 2:
            prior = rng.uniform(0.1, 1.0, size=2)
            prior /= prior.sum()
        else:
            prior = np.full(2, 0.5)
        chain = MarkovChain(np.full((2, 2), 0.5), prior)
        init = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 0.5))
        model = SldsModel(modes, meas, chain, init)
        det = DetectionModel(float(rng.uniform(0.6, 1.0)))
        agg = bank_series(model, det, [SKF], 8)[0].mse
        exact = skf_slds_moments(model, det, 8)[0].mse
        worst = max(worst, float(np.abs(agg - exact).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(4, ok,
           "aggregate recursion vs exact pair enumeration on 25 random "
           "uniform-chain bimodal models (z <= 3, 8 steps): max abs gap "
           f"{worst:.2e} (<= 1e-8), runtime {elapsed:.1f} s (budget 30 s)")
    assert worst <= 1e-8
    assert elapsed < 30.0


def trimodal_model(z: int = 1) -> SldsModel:
    eye = np.eye(z)
    modes = tuple(ModeModel(a * eye, 0.01 * eye) for a in (0.9, 0.7, 0.46))
    return SldsModel(modes=modes,
                     meas=MeasurementModel(eye, 0.01 * eye),
                     chain=MarkovChain(np.full((3, 3), 1 / 3),
                                       np.full(3, 1 / 3)),
                     init=GaussianBelief(np.ones(z), eye))


def detection_law_total(n: int, p_d: float, r: int = 3) -> float:
    """Sum of trajectory prob x detection prob over the full (true,
    detected) grid of a uniform r-mode chain, vectorized by mismatch
    count; r^(2n) pairs without materializing them."""
    grid = np.indices((r,) * n).reshape(n, -1).T       # (r^n, n)
    count = grid.shape[0]
    pi = (1.0 / r) ** n                                # uniform chain + prior
    miss = (1.0 - p_d) / (r - 1)
    total = 0.0
    for start in range(0, count, 512):
        block = grid[start:start + 512]
        mism = np.zeros((block.shape[0], count), dtype=np.int8)
        for k in range(n):
            mism += block[:, None, k] != grid[None, :, k]
        total += float(pi * (p_d ** (n - mism) * miss ** mism).sum())
    return total


def test_criterion_5_probability_mass_sums_to_one():
    det = DetectionModel(0.9)
    deviations = {}

    bi = bimodal_model(z=1)
    series, _ = single_mode_slds_moments(bi, bi.modes[0], 8)
    deviations["r=2 trajectories N=8"] = np.abs(series.kept_mass - 1.0).max()
    series, _ = skf_slds_moments(bi, det, 8)
    deviations["r=2 pairs N=8"] = np.abs(series.kept_mass - 1.0).max()

    tri = trimodal_model()
    series, _ = single_mode_slds_moments(tri, tri.modes[0], 8)
    deviations["r=3 trajectories N=8"] = np.abs(series.kept_mass - 1.0).max()
    series, _ = skf_slds_moments(tri, det, 6, cap=9 ** 6)
    deviations["r=3 pairs N=6"] = np.abs(series.kept_mass - 1.0).max()
    # 9^7 and 9^8 pairs exceed any reasonable enumeration budget; the
    # same law is summed over the full grid by mismatch count instead
    for n in (7, 8):
        total = detection_law_total(n, det.p_d)
        deviations[f"r=3 pair law N={n}"] = abs(total - 1.0)

    # spot-check the vectorized law against the per-pair probability
    rng = np.random.default_rng(SEED + 5)
    for _ in range(20):
        truth = rng.integers(1, 4, size=8)
        detected = rng.integers(1, 4, size=8)
        mism = int((truth != detected).sum())
        expected = det.p_d ** (8 - mism) * (0.05 ** mism)
        assert_allclose(detection_prob(truth, detected, det, 3), expected,
                        rtol=1e-12)

    worst = max(deviations.values())
    ok = worst <= 1e-10
    detail = ", ".join(f"{k} {v:.1e}" for k, v in deviations.items())
    report(5, ok,
           f"trajectory/pair probability totals within 1e-10 of 1: {detail}")
    assert worst <= 1e-10


def test_criterion_6_beam_pruning_quality():
    chain = MarkovChain(np.array([[0.99, 0.01], [0.01, 0.99]]),
                        np.array([1.0, 0.0]))
    model = bimodal_model(z=1, rows=chain.Z, prior=chain.prior)
    filt = model.modes[0]
    exact, _ = single_mode_slds_moments(model, filt, 6)

    # full-mass pruning must reproduce the exact aggregates
    full, _ = enumerate_filters(model, None, [KF1], 6, mass=1.0)[0]
    full_gap = float(np.abs(full.mse - exact.mse).max())
    skf_exact, _ = skf_slds_moments(model, detection(), 6)
    skf_full, _ = enumerate_filters(model, detection(), [SKF], 6,
                                    mass=1.0)[0]
    full_gap = max(full_gap,
                   float(np.abs(skf_full.mse - skf_exact.mse).max()))

    # Mode 1 is held with probability 0.99 over 5 transitions, so the
    # all-mode-1 path carries 0.99**5 and each of the five single-defection
    # paths 0.99**4 * 0.01; all other paths carry less.  A beam of width k
    # that keeps the most probable paths therefore keeps the closed-form
    # top-k mass, and 6 is the smallest width above 0.99.
    narrow, _ = enumerate_filters(model, None, [KF1], 6, keep=5)[0]
    narrow_mass = float(narrow.kept_mass[6])
    assert_allclose(narrow_mass, 0.99 ** 5 + 4 * 0.99 ** 4 * 0.01,
                    rtol=1e-12)
    assert narrow_mass < 0.99

    pruned, _ = enumerate_filters(model, None, [KF1], 6, keep=6)[0]
    final_mass = float(pruned.kept_mass[6])
    assert_allclose(final_mass, 0.99 ** 5 + 5 * 0.99 ** 4 * 0.01,
                    rtol=1e-12)
    rel = np.abs(pruned.mse[1:] - exact.mse[1:]) / exact.mse[1:]
    gap = float(rel.max())

    ok = full_gap <= 1e-12 and final_mass > 0.99 and gap < 0.02
    report(6, ok,
           "beam pruning on the sticky two-mode chain (keep=6, 6 steps): "
           f"full-mass pruning vs exact {full_gap:.1e} (<= 1e-12); "
           f"kept mass {final_mass:.6f} (required > 0.99; keep=5 keeps "
           f"{narrow_mass:.6f}), MSE gap {100 * gap:.2f}% (required < 2%)")
    assert full_gap <= 1e-12
    assert final_mass > 0.99 and gap < 0.02


def test_criterion_7_mismatch_recursion_vs_million_samples():
    truth = ModeModel(np.array([[0.9]]), np.array([[0.01]]))
    filt = ModeModel(np.array([[0.46]]), np.array([[0.01]]))
    meas = MeasurementModel(np.array([[1.0]]), np.array([[0.01]]))
    init = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    # lock the chain to mode 1 so the driver runs this fixed pair
    locked = SldsModel((truth, filt), meas,
                       MarkovChain(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                   np.array([1.0, 0.0])), init)
    moments, _ = mismatch_series(truth, filt, meas, init, 10)
    run = run_monte_carlo(locked, [FilterSpec("single-mode", 2)], None,
                          10, 1_000_000, seed=SEED, threads=1)[0]
    mean, mean_se = run.mean(), run.mean_stderr()
    var, var_se = run.var(), run.var_stderr()
    worst = 0.0
    for n in range(11):
        worst = max(worst,
                    abs(mean[n, 0] - moments[n].e_mean[0]) / mean_se[n, 0],
                    abs(var[n] - moments[n].e_cov[0, 0]) / var_se[n])
    ok = worst < 4.0
    report(7, ok,
           "mismatched-filter error mean/variance vs 1e6-sample Monte "
           f"Carlo (scalar 0.9-truth/0.46-filter pair, 10 steps): worst "
           f"z-score {worst:.2f} (required < 4)")
    assert worst < 4.0


def test_criterion_8_simulation_determinism(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "modes": [
            {"A": (0.9 * np.eye(4)).tolist(),
             "Q": (0.01 * np.eye(4)).tolist()},
            {"A": (0.46 * np.eye(4)).tolist(),
             "Q": (0.01 * np.eye(4)).tolist()},
        ],
        "meas": {"H": np.eye(4).tolist(), "R": (0.01 * np.eye(4)).tolist()},
        "chain": {"Z": [[0.5, 0.5], [0.5, 0.5]], "prior": [0.5, 0.5]},
        "init": {"mean": [1.0, 1.0, 1.0, 1.0], "cov": np.eye(4).tolist()},
        "detection": {"p_d": 0.9},
        "horizon": 8,
        "mc_samples": 4096,
        "seed": 42,
    }
    path = tmp_path / "benchmark.json"
    path.write_text(json.dumps(scenario))

    outputs = []
    for threads in ("1", "1", "4"):
        assert main(["simulate", "--scenario", str(path),
                     "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    identical = outputs[0] == outputs[1]

    def values(text):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return np.array([[float(r[2]), float(r[3])] for r in rows])

    thread_gap = float(np.abs(values(outputs[0]) - values(outputs[2])).max())
    ok = identical and thread_gap <= 1e-9
    report(8, ok,
           "simulation CSV byte-identical across two single-threaded runs: "
           f"{identical}; max deviation across thread counts {{1, 4}}: "
           f"{thread_gap:.1e} (<= 1e-9)")
    assert identical
    assert thread_gap <= 1e-9
