"""Shared model builders for the test suite, and the brute-force
trajectory probabilities that the enumeration oracles weigh paths by."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from typing import Sequence

from slds_mse import (
    DetectionModel,
    ErrorMoments,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
)

# The two-mode benchmark used throughout: scaled-identity dynamics
# (a fast mode 0.9 and a slow mode 0.46), identity measurements, equal
# process/measurement noise, uniform switching.
BENCH_A = (0.9, 0.46)
BENCH_Q = 0.01
BENCH_R = 0.01


def bimodal_model(z: int = 4, a_values=BENCH_A, q: float = BENCH_Q,
                  r_noise: float = BENCH_R, prior=(0.5, 0.5),
                  rows=None) -> SldsModel:
    """Two-mode model with scaled-identity dynamics and identity H."""
    eye = np.eye(z)
    modes = tuple(ModeModel(a * eye, q * eye) for a in a_values)
    meas = MeasurementModel(eye, r_noise * eye)
    if rows is None:
        rows = np.full((len(modes),) * 2, 1.0 / len(modes))
    chain = MarkovChain(np.asarray(rows, dtype=float),
                        np.asarray(prior, dtype=float))
    init = GaussianBelief(np.ones(z), eye)
    return SldsModel(modes, meas, chain, init)


def single_mode_model(a: float = 0.9, q: float = BENCH_Q,
                      r_noise: float = BENCH_R, z: int = 1) -> SldsModel:
    """Degenerate one-mode model (plain linear-Gaussian system)."""
    eye = np.eye(z)
    modes = (ModeModel(a * eye, q * eye),)
    meas = MeasurementModel(eye, r_noise * eye)
    chain = MarkovChain(np.ones((1, 1)), np.ones(1))
    init = GaussianBelief(np.ones(z), eye)
    return SldsModel(modes, meas, chain, init)


def stable_matrix(rng: np.random.Generator, z: int,
                  radius: float = 0.9) -> np.ndarray:
    """Random matrix rescaled so its spectral radius is below ``radius``."""
    a = rng.standard_normal((z, z))
    rho = np.abs(np.linalg.eigvals(a)).max()
    return a * (radius * rng.uniform(0.5, 1.0) / max(rho, 1e-12))


def spd_matrix(rng: np.random.Generator, z: int,
               scale: float = 0.1) -> np.ndarray:
    """Random symmetric positive-definite matrix."""
    m = rng.standard_normal((z, z))
    return scale * (m @ m.T + 0.1 * np.eye(z))


def random_mode(rng: np.random.Generator, z: int,
                radius: float = 0.9) -> ModeModel:
    return ModeModel(stable_matrix(rng, z, radius), spd_matrix(rng, z))


def random_chain(rng: np.random.Generator, r: int,
                 uniform_rows: bool = True,
                 uniform_prior: bool = True) -> MarkovChain:
    if uniform_rows:
        rows = np.full((r, r), 1.0 / r)
    else:
        rows = rng.uniform(0.1, 1.0, size=(r, r))
        rows /= rows.sum(axis=1, keepdims=True)
    if uniform_prior:
        prior = np.full(r, 1.0 / r)
    else:
        prior = rng.uniform(0.1, 1.0, size=r)
        prior /= prior.sum()
    return MarkovChain(rows, prior)


def random_model(rng: np.random.Generator, r: int, z: int,
                 uniform_rows: bool = True,
                 uniform_prior: bool = True,
                 radius: float = 0.9) -> SldsModel:
    """Random stable switching model with identity-ish square measurements."""
    modes = tuple(random_mode(rng, z, radius) for _ in range(r))
    meas = MeasurementModel(np.eye(z) + 0.1 * rng.standard_normal((z, z)),
                            spd_matrix(rng, z, 0.05))
    chain = random_chain(rng, r, uniform_rows, uniform_prior)
    init = GaussianBelief(rng.standard_normal(z), spd_matrix(rng, z, 0.5))
    return SldsModel(modes, meas, chain, init)


def initial_moments(init: GaussianBelief) -> ErrorMoments:
    """Error moments at step 0, where the ``mismatch_step`` oracle starts:
    e_0 = x_0 - mean, so C(e_0) = C(x_0) = P_0, and u_0 = 0 because the
    initial estimate is deterministic."""
    z = init.z
    return ErrorMoments(e_mean=np.zeros(z), e_cov=init.cov,
                        x_mean=init.mean, x_cov=init.cov,
                        u=np.zeros((z, z)), step=0)


def filter_specs(r: int, max_size: int = 10):
    """Hypothesis strategy for a filter list of an r-mode scenario: any
    subset of the filters it can name, in any order, with repeats."""
    spec = st.one_of(
        st.just(FilterSpec("skf")), st.just(FilterSpec("average")),
        st.integers(1, r).map(lambda j: FilterSpec("single-mode", mode=j)))
    return st.lists(spec, min_size=1, max_size=max_size)


def detection(p_d: float = 0.9) -> DetectionModel:
    return DetectionModel(p_d)


def trajectory_prob(chain: MarkovChain, modes: Sequence[int]) -> float:
    """Probability of a mode trajectory: prior times transition products."""
    modes = list(modes)
    if not modes:
        raise ValueError("trajectory must contain at least one mode")
    for m in modes:
        if not 1 <= m <= chain.r:
            raise ValueError(f"mode index {m} outside 1..{chain.r}")
    p = chain.prior[modes[0] - 1]
    for a, b in zip(modes, modes[1:]):
        p *= chain.Z[a - 1, b - 1]
    return float(p)


def detection_prob(truth: Sequence[int], detected: Sequence[int],
                   det: DetectionModel, r: int) -> float:
    """P(detected trajectory | true trajectory) under the constant-rate model."""
    truth, detected = list(truth), list(detected)
    if len(truth) != len(detected):
        raise ValueError("trajectories must have equal length")
    p = 1.0
    for i, j in zip(truth, detected):
        if i == j:
            # with a single mode detection cannot err, whatever p_d says
            p *= det.p_d if r > 1 else 1.0
        else:
            if r < 2:
                raise ValueError("false detection impossible with a single mode")
            p *= (1.0 - det.p_d) / (r - 1)
    return float(p)
