"""Kalman filter operator and per-mode gain schedules.

Prediction and measurement update for a linear-Gaussian model::

    x_pred = A @ x
    P_pred = A @ P @ A.T + Q
    B      = H @ P_pred @ H.T + R          (innovation covariance)
    K      = P_pred @ H.T @ inv(B)         (computed via a PD solve)
    x_post = x_pred + K @ (y - H @ x_pred)
    P_post = (I - K @ H) @ P_pred

The covariance recursion never touches the data, so the whole gain
sequence K_1..K_N for a filter model can be computed up front; downstream
error analysis consumes only those schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import (
    FilterSpec,
    GaussianBelief,
    MeasurementModel,
    ModeModel,
    SldsModel,
    mode_marginal_series,
    symmetrize,
)

ModeLike = Union[ModeModel, Sequence[ModeModel]]


class InnovationSolveError(RuntimeError):
    """Raised when the innovation covariance cannot be factorized."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class KalmanStepOutput:
    """Everything one predict/update cycle produces."""

    predicted: GaussianBelief
    posterior: GaussianBelief
    gain: np.ndarray
    innovation_cov: np.ndarray


@dataclass(frozen=True)
class GainSchedule:
    """Gains K_1..K_N and posterior covariances P_1..P_N of one filter."""

    gains: tuple
    covariances: tuple

    def __len__(self) -> int:
        return len(self.gains)


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


def as_mode_sequence(modes: ModeLike, n_steps: int) -> list[ModeModel]:
    """Normalize a fixed mode or per-step mode sequence to length n_steps."""
    if isinstance(modes, ModeModel):
        return [modes] * n_steps
    modes = list(modes)
    if len(modes) != n_steps:
        raise ValueError(f"expected {n_steps} per-step modes, got {len(modes)}")
    return modes


def _check_innovations(B: np.ndarray, step: Optional[int] = None) -> None:
    """Raise ``InnovationSolveError`` unless every innovation covariance
    in ``B`` (..., m, m) is finite and positive definite: one finiteness
    check and one batched Cholesky.  With ``step``, ``B`` is (steps, rows,
    m, m) from that 0-based step on and the error names the first bad
    step and its row.  It carries the bad matrix's condition estimate,
    infinite when the matrix is not finite."""
    finite = np.isfinite(B).all(axis=(-2, -1))
    if finite.all():
        try:
            np.linalg.cholesky(B)
            return
        except np.linalg.LinAlgError:
            pass
    for idx in np.ndindex(finite.shape):
        at = "" if step is None else \
            f" at step {step + idx[0] + 1} of row {idx[1]}"
        if not finite[idx]:
            raise InnovationSolveError(
                f"innovation covariance is not finite{at}", np.inf)
        try:
            np.linalg.cholesky(B[idx])
        except np.linalg.LinAlgError:
            raise InnovationSolveError(
                f"innovation covariance is not positive definite{at}",
                float(np.linalg.cond(B[idx]))) from None


def _gain_step(meas: MeasurementModel, P: np.ndarray,
               past: Optional[np.ndarray] = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Innovation covariances B and gains K of predicted covariances
    ``P`` (..., z, z): one solve.  A singular solve raises, with the
    reason ``_check_innovations`` finds; given ``past`` (n, rows, m, m),
    the unchecked innovation covariances of steps 1..n, it checks those
    first, so the error names the first bad step.  Callers vet the B of
    a successful solve."""
    HP = meas.H @ P
    B = HP @ meas.H.T + meas.R
    B = (B + B.swapaxes(-1, -2)) / 2.0
    try:
        return B, np.linalg.solve(B, HP).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        if past is None:
            _check_innovations(B)
        else:
            _check_innovations(np.concatenate((past, B[None])), 0)
        at = "" if past is None else f" at step {len(past) + 1}"
        raise InnovationSolveError(f"innovation covariance is singular{at}",
                                   float(np.max(np.linalg.cond(B)))) from None


def _riccati_step(meas: MeasurementModel, A: np.ndarray, Q: np.ndarray,
                  P: np.ndarray, past: Optional[np.ndarray] = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One predict/update of posterior covariances ``P`` (..., z, z) under
    dynamics ``A``, ``Q``: innovation covariances B, gains K and the new
    posterior covariances, each covariance symmetrized.  ``past`` goes to
    ``_gain_step``; callers vet B."""
    P = A @ P @ A.swapaxes(-1, -2) + Q
    P = (P + P.swapaxes(-1, -2)) / 2.0
    B, K = _gain_step(meas, P, past)
    P = (np.eye(P.shape[-1]) - K @ meas.H) @ P
    return B, K, (P + P.swapaxes(-1, -2)) / 2.0


def _riccati(A: np.ndarray, Q: np.ndarray, meas: MeasurementModel,
             P0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains (B, N, z, m) and posterior covariances (B, N, z, z) of B
    filters with per-step dynamics ``A``, ``Q`` (B, N, z, z) sharing
    ``meas`` and ``P0``: one ``_riccati_step`` per step, then one check
    of all the innovation covariances."""
    gains = np.empty(A.shape[:2] + meas.H.T.shape)
    covs = np.empty(A.shape)
    innov = np.empty((A.shape[1], len(A)) + meas.R.shape)
    P = P0
    for n in range(A.shape[1]):
        innov[n], gains[:, n], P = _riccati_step(meas, A[:, n], Q[:, n], P,
                                                 innov[:n])
        covs[:, n] = P
    _check_innovations(innov, 0)
    return gains, covs


def gain_schedule(mode: ModeLike, meas: MeasurementModel,
                  init: GaussianBelief, n_steps: int) -> GainSchedule:
    """Run the covariance recursion for ``n_steps`` and collect the gains.

    ``mode`` may be a single :class:`ModeModel` or a per-step sequence
    (used for the average filter, whose dynamics follow the mode
    marginals).  Measurement values never enter the recursion.
    """
    steps = as_mode_sequence(mode, n_steps)
    A = np.array([[step.A for step in steps]])
    Q = np.array([[step.Q for step in steps]])
    gains, covs = _riccati(A, Q, meas, init.cov)
    return GainSchedule(tuple(gains[0]), tuple(covs[0]))


def _average_dynamics(model: SldsModel, n_steps: int,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-step ``A`` and ``Q`` (N, z, z) of the average filter for steps
    1..n_steps: each mode's dynamics weighted by its marginal probability
    at that step, from one pass over the marginals.  A and Q share the
    weights, so the construction stays symmetric when process noise
    differs across modes."""
    w = mode_marginal_series(model.chain, max(n_steps, 1))[:n_steps, :, None]
    A = sum(w[:, j, None] * mode.A for j, mode in enumerate(model.modes))
    Q = sum(w[:, j, None] * mode.Q for j, mode in enumerate(model.modes))
    return A, Q


def average_filter_modes(model: SldsModel, n_steps: int) -> list[ModeModel]:
    """Per-step dynamics of the average filter for steps 1..n_steps, one
    ``ModeModel`` per step of ``_average_dynamics``."""
    return [ModeModel(A, Q)
            for A, Q in zip(*_average_dynamics(model, n_steps))]


def _mode_dynamics(model: SldsModel, n_steps: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's ``A`` and ``Q`` at every step, (r, N, z, z) views."""
    shape = (model.r, n_steps, model.z, model.z)
    return tuple(np.broadcast_to(np.stack(mats)[:, None], shape) for mats in
                 ([mode.A for mode in model.modes],
                  [mode.Q for mode in model.modes]))


def mode_schedules(model: SldsModel, n_steps: int) -> list[GainSchedule]:
    """Standalone gain schedule of each mode's own filter (shared P0).

    All modes share the measurement model and the initial covariance, so
    the r recursions run as one batched Riccati iteration; row j equals
    ``gain_schedule(model.modes[j], ...)`` bit for bit.
    """
    gains, covs = _riccati(*_mode_dynamics(model, n_steps), model.meas,
                           model.init.cov)
    return [GainSchedule(tuple(g), tuple(c)) for g, c in zip(gains, covs)]


@dataclass(frozen=True)
class FilterBank:
    """Per-step dynamics ``A`` (r + 1, N, z, z) and gains ``gains``
    (r + 1, N, z, m) of every filter a scenario can name: row j is the
    KF of mode j + 1, row r the average filter."""

    A: np.ndarray
    gains: np.ndarray

    def rows(self, spec: FilterSpec) -> slice:
        """The rows ``spec`` runs: its own row for a fixed-gain filter, the
        r mode rows for the switching filter."""
        r = len(self.A) - 1
        if spec.kind == "skf":
            return slice(0, r)
        if spec.kind == "average":
            return slice(r, r + 1)
        if not 1 <= spec.mode <= r:
            raise ValueError(f"filter mode {spec.mode} is outside 1..{r}")
        return slice(spec.mode - 1, spec.mode)


def filter_bank(model: SldsModel, n_steps: int) -> FilterBank:
    """Every mode's KF and the average filter from one batched Riccati
    pass (B = r + 1).  Row j equals ``gain_schedule(model.modes[j], ...)``
    and row r ``gain_schedule(average_filter_modes(model, n_steps), ...)``
    bit for bit."""
    A, Q = (np.concatenate((modes, average[None])) for modes, average in
            zip(_mode_dynamics(model, n_steps),
                _average_dynamics(model, n_steps)))
    gains, _ = _riccati(A, Q, model.meas, model.init.cov)
    return FilterBank(A, gains)
