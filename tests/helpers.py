"""Shared model builders for the test suite, and the independent
oracles the library is checked against: the step-by-step Kalman filter
(``kf_predict``/``kf_update``, and ``kf_schedule`` over per-step
dynamics such as the average filter's ``average_filter_modes``), the
one-step error-moment recursion of a mismatched filter
(``mismatch_step``), and the brute-force trajectory probabilities that
the enumeration oracles weigh paths by."""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from slds_mse.kalman import _average_dynamics, _check_innovations, _gain_step
from slds_mse.model import symmetrize

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


# Steps per block that the moment-kernel tests pin with ``block_budget``,
# and horizons on both sides of its boundaries.
BLOCK = 25
HORIZONS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


def block_budget(steps: int, model: SldsModel, merge: bool = False) -> int:
    """The ``fast._BLOCK_BYTES`` under which the moment kernel runs in
    blocks of ``steps`` steps: on ``model``'s bank (one system of r modes
    on r + 1 rows) or, with ``merge``, on ``merge_recommendation``'s
    stack (r(r - 1)/2 pair systems of two modes on two rows).  A step's
    maps G are that many (2z)-square float64 matrices."""
    r = model.r
    grid = 2 * r * (r - 1) if merge else r * (r + 1)
    return steps * grid * (2 * model.z) ** 2 * 8


def initial_moments(init: GaussianBelief) -> ErrorMoments:
    """Error moments at step 0, where the ``mismatch_step`` oracle starts:
    e_0 = x_0 - mean, so C(e_0) = C(x_0) = P_0, and u_0 = 0 because the
    initial estimate is deterministic."""
    z = init.z
    return ErrorMoments(e_mean=np.zeros(z), e_cov=init.cov,
                        x_mean=init.mean, x_cov=init.cov,
                        u=np.zeros((z, z)), step=0)


def filter_specs(r: int, max_size: int = 10, labels=st.just("")):
    """Hypothesis strategy for a filter list of an r-mode scenario: any
    subset of the filters it can name, in any order, with repeats, each
    spec's label drawn from ``labels`` (so a labelled twin of a filter
    can join it)."""
    spec = st.one_of(
        st.just(FilterSpec("skf")), st.just(FilterSpec("average")),
        st.integers(1, r).map(lambda j: FilterSpec("single-mode", mode=j)))
    return st.lists(st.builds(lambda spec, label: replace(spec, label=label),
                              spec, labels), min_size=1, max_size=max_size)


TWINS = st.sampled_from(["", "twin"])


def distinct_rows(r: int, specs: Sequence[FilterSpec]) -> list:
    """The bank rows of each distinct filter of ``specs`` per filter
    group: the switching filter's r mode rows, then every fixed-gain
    filter's one row in ascending order (row r is the average filter)."""
    skf = [tuple(range(r))] if any(s.kind == "skf" for s in specs) else []
    fixed = sorted({(r if s.kind == "average" else s.mode - 1,)
                    for s in specs if s.kind != "skf"})
    return [group for group in (skf, fixed) if group]


def raw_moments(m: ErrorMoments) -> np.ndarray:
    """E[w w.T] of w = [x; e] from one step's ``ErrorMoments``: each
    covariance plus its mean outer product, Cov(e, x) = C(x) - u."""
    ex = m.x_cov - m.u + np.outer(m.e_mean, m.x_mean)
    return np.block([[m.x_cov + np.outer(m.x_mean, m.x_mean), ex.T],
                     [ex, m.e_cov + np.outer(m.e_mean, m.e_mean)]])


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


@dataclass(frozen=True)
class KalmanStepOutput:
    """Everything one predict/update cycle produces."""

    predicted: GaussianBelief
    posterior: GaussianBelief
    gain: np.ndarray
    innovation_cov: np.ndarray


def kf_predict(belief: GaussianBelief, mode: ModeModel) -> GaussianBelief:
    """Time update: push a belief through one mode's dynamics."""
    if mode.z != belief.z:
        raise ValueError(f"mode dimension {mode.z} != belief dimension {belief.z}")
    mean = mode.A @ belief.mean
    cov = symmetrize(mode.A @ belief.cov @ mode.A.T + mode.Q)
    return GaussianBelief(mean, cov)


def kf_update(predicted: GaussianBelief, meas: MeasurementModel,
              y: np.ndarray, joseph: bool = False) -> KalmanStepOutput:
    """Measurement update.

    The gain comes from ``_gain_step``, the Riccati kernel's own solve,
    and ``_check_innovations`` vets its innovation covariance, so
    iterating ``kf_predict``/``kf_update`` reproduces ``gain_schedule``
    bit for bit.  ``joseph=True`` switches the covariance update to the
    Joseph form, which is algebraically identical for the optimal gain
    but more tolerant of rounding.
    """
    H, R = meas.H, meas.R
    if meas.z != predicted.z:
        raise ValueError(f"measurement model expects state dimension "
                         f"{meas.z}, belief has {predicted.z}")
    y = np.asarray(y, dtype=float).reshape(H.shape[0])
    P = predicted.cov
    B, K = _gain_step(meas, P)
    _check_innovations(B)
    mean = predicted.mean + K @ (y - H @ predicted.mean)
    ikh = np.eye(P.shape[0]) - K @ H
    if joseph:
        cov = ikh @ P @ ikh.T + K @ R @ K.T
    else:
        cov = ikh @ P
    posterior = GaussianBelief(mean, symmetrize(cov))
    return KalmanStepOutput(predicted, posterior, K, B)


def kf_schedule(modes: Sequence[ModeModel], meas: MeasurementModel,
                init: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Gains (N, z, m) and posterior covariances (N, z, z) of a KF whose
    dynamics at step n are ``modes[n - 1]``, one ``kf_predict``/
    ``kf_update`` per step; measurement values never enter them.  They
    equal the Riccati kernel's rows bit for bit
    (``test_kf_steps_reproduce_gain_schedule_bitwise``)."""
    gains, covs, belief = [], [], init
    for mode in modes:
        out = kf_update(kf_predict(belief, mode), meas, np.zeros(meas.m))
        gains.append(out.gain)
        covs.append(out.posterior.cov)
        belief = out.posterior
    return np.array(gains), np.array(covs)


def average_filter_modes(model: SldsModel, n_steps: int) -> list[ModeModel]:
    """The average filter's dynamics at steps 1..n_steps, one ``ModeModel``
    per step of ``kalman._average_dynamics``: the filter bank's row r in
    the form the step-by-step oracles take."""
    return [ModeModel(A, Q)
            for A, Q in zip(*_average_dynamics(model, n_steps))]


def mismatch_step(prev: ErrorMoments, truth: ModeModel, filt: ModeModel,
                  meas: MeasurementModel, gain: np.ndarray) -> ErrorMoments:
    """Advance the error moments of a Kalman filter running the wrong
    dynamics by one step.

    Let the truth evolve with (A, Q) while the filter assumes (Ad, Qd) and
    therefore uses the gain K of its own covariance recursion.  With
    B = I - K @ H, the estimation error e_n = x_n - xhat_n obeys the
    linear recursion::

        e_n = B (A - Ad) x_{n-1} + B Ad e_{n-1} + B v_n - K w_n

    which is itself a state-space model driven by the true state.  Its
    first two moments therefore close recursively once we also track
    E[x], C(x) and the cross-covariance u_n = Cov(xhat_n, x_n)::

        E[e_n]  = B (A - Ad) E[x_{n-1}] + B Ad E[e_{n-1}]
        u_n     = B Ad u_{n-1} A.T + K H A C(x_{n-1}) A.T + K H Q
        C(e_n)  = J C(x_{n-1}) J.T + M C(e_{n-1}) M.T + S + S.T
                  + B Q B.T + K R K.T

    with J = B (A - Ad), M = B Ad, and the cross term
    S = J Cov(x_{n-1}, e_{n-1}) M.T where Cov(x, e) = C(x) - u.T.  The
    orientation of u in the cross term matters; this one makes the
    matched case collapse exactly to the filter covariance and agrees
    with Monte Carlo.  When the filter is matched (Ad = A, Qd = Q) the
    input term vanishes, the error stays zero-mean and C(e_n) reproduces
    P_{n|n} exactly.

    It is written independently of the lifted-moment kernel
    (``slds_mse.fast._joint_factors``), so it is that kernel's oracle.
    ``gain`` is the filter's gain for this step, normally taken from
    ``gain_schedule`` on the filter model.  ``truth`` supplies the
    dynamics the state actually followed this step.
    """
    H, R = meas.H, meas.R
    K = np.asarray(gain, dtype=float)
    if K.shape != (truth.z, H.shape[0]):
        raise ValueError(f"gain shape {K.shape} does not match "
                         f"({truth.z}, {H.shape[0]})")
    B = np.eye(truth.z) - K @ H
    M = B @ filt.A
    J = B @ (truth.A - filt.A)

    e_mean = J @ prev.x_mean + M @ prev.e_mean
    x_mean = truth.A @ prev.x_mean

    cross_xe = prev.x_cov - prev.u.T          # Cov(x_{n-1}, e_{n-1})
    S = J @ cross_xe @ M.T
    e_cov = (J @ prev.x_cov @ J.T + M @ prev.e_cov @ M.T + S + S.T
             + B @ truth.Q @ B.T + K @ R @ K.T)

    KH = K @ H
    u = (M @ prev.u @ truth.A.T
         + KH @ truth.A @ prev.x_cov @ truth.A.T
         + KH @ truth.Q)
    x_cov = truth.A @ prev.x_cov @ truth.A.T + truth.Q

    return ErrorMoments(
        e_mean=e_mean,
        e_cov=symmetrize(e_cov),
        x_mean=x_mean,
        x_cov=symmetrize(x_cov),
        u=u,
        step=prev.step + 1,
    )
