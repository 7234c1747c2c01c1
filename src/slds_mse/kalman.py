"""Riccati gain schedules and the filter bank.

The covariance recursion of a Kalman filter on a linear-Gaussian model::

    P_pred = A @ P @ A.T + Q
    B      = H @ P_pred @ H.T + R          (innovation covariance)
    K      = P_pred @ H.T @ inv(B)         (computed via a PD solve)
    P_post = (I - K @ H) @ P_pred

never touches the data, so the whole gain sequence K_1..K_N for a filter
model can be computed up front; downstream error analysis consumes only
those schedules.  ``filter_groups`` maps filter specs to bank rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .model import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MeasurementModel,
    ModeModel,
    SldsModel,
    _check_number,
    mode_marginal_series,
)


class InnovationSolveError(RuntimeError):
    """Raised when the innovation covariance cannot be factorized."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


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


def _check_horizon(n_steps: int) -> None:
    """Refuse a horizon that is not an integer or is negative;
    ``n_steps == 0`` gives step 0 only."""
    _check_number("n_steps", n_steps, int)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")


def _gain_step(meas: MeasurementModel, P: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Innovation covariances B and gains K of predicted covariances
    ``P`` (..., z, z): one solve.  A failed solve leaves NaN gains; the
    caller's check of B names the reason."""
    HP = meas.H @ P
    B = HP @ meas.H.T + meas.R
    B = (B + B.swapaxes(-1, -2)) / 2.0
    try:
        return B, np.linalg.solve(B, HP).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        return B, np.full(HP.swapaxes(-1, -2).shape, np.nan)


def _riccati_step(meas: MeasurementModel, A: np.ndarray, Q: np.ndarray,
                  P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One predict/update of posterior covariances ``P`` (..., z, z) under
    dynamics ``A``, ``Q``: innovation covariances B, gains K and the new
    posterior covariances, each covariance symmetrized.  Callers vet B."""
    P = A @ P @ A.swapaxes(-1, -2) + Q
    P = (P + P.swapaxes(-1, -2)) / 2.0
    B, K = _gain_step(meas, P)
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
        innov[n], gains[:, n], P = _riccati_step(meas, A[:, n], Q[:, n], P)
        covs[:, n] = P
    _check_innovations(innov, 0)
    return gains, covs


def gain_schedule(mode: ModeModel, meas: MeasurementModel,
                  init: GaussianBelief, n_steps: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Gains (N, z, m) and posterior covariances (N, z, z) of the KF of
    ``mode`` over ``n_steps``.  Measurement values never enter the
    recursion."""
    _check_horizon(n_steps)
    if mode.z != meas.z:
        raise ValueError(f"filter mode dimension {mode.z} does not match "
                         f"state dimension {meas.z}")
    if init.z != mode.z:
        raise ValueError(f"initial belief dimension {init.z} does not match "
                         f"state dimension {mode.z}")
    A, Q = (np.tile(X, (1, n_steps, 1, 1)) for X in (mode.A, mode.Q))
    gains, covs = _riccati(A, Q, meas, init.cov)
    return gains[0], covs[0]


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


def _mode_dynamics(model: SldsModel, n_steps: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's ``A`` and ``Q`` at every step, (r, N, z, z) views."""
    shape = (model.r, n_steps, model.z, model.z)
    return tuple(np.broadcast_to(np.stack(mats)[:, None], shape) for mats in
                 ([mode.A for mode in model.modes],
                  [mode.Q for mode in model.modes]))


def filter_bank(model: SldsModel, n_steps: int) -> tuple:
    """Per-step dynamics A (r + 1, N, z, z) and gains (r + 1, N, z, m) of
    every filter a scenario can name, from one batched Riccati pass: row
    j is mode j + 1's KF, ``gain_schedule(model.modes[j], ...)`` bit for
    bit, and row r the average filter, on ``_average_dynamics``."""
    _check_horizon(n_steps)
    A, Q = (np.concatenate((modes, average[None])) for modes, average in
            zip(_mode_dynamics(model, n_steps),
                _average_dynamics(model, n_steps)))
    gains, _ = _riccati(A, Q, model.meas, model.init.cov)
    return A, gains


def _bank(model: SldsModel, n_steps: int, bank: Optional[tuple]) -> tuple:
    """``filter_bank(model, n_steps)``, or the caller's ``bank`` if its
    arrays have that bank's shapes; any other shapes, or a negative
    ``n_steps``, raise ``ValueError``."""
    if bank is None:
        return filter_bank(model, n_steps)
    _check_horizon(n_steps)
    rows = (model.r + 1, n_steps, model.z)
    want = (rows + (model.z,), rows + (model.m,))
    got = tuple(np.shape(X) for X in bank)
    if got != want:
        raise ValueError(f"filter bank arrays of shapes {got} do not match "
                         f"{want}: r + 1 = {model.r + 1} rows over {n_steps} "
                         f"steps")
    return bank


def _branch_weights(r: int, det: Optional[DetectionModel]) -> np.ndarray:
    """The switching filter's branch weights D[i, j] = P(detected mode j |
    true mode i); a lone mode is always detected.  A p_d outside [0, 1],
    NaN included, raises ``ValueError`` at any r."""
    if det is None:
        raise ValueError("switching-filter analysis needs a detection model")
    if not 0.0 <= det.p_d <= 1.0:
        raise ValueError(f"p_d must lie in [0, 1], got {det.p_d}")
    miss = (1.0 - det.p_d) / max(r - 1, 1)
    return np.where(np.eye(r, dtype=bool), det.p_d if r > 1 else 1.0, miss)


def filter_groups(r: int, det: Optional[DetectionModel],
                  specs: Sequence[FilterSpec]) -> tuple[list, np.ndarray]:
    """Groups of the distinct filters of ``specs`` that branch alike on
    ``filter_bank``'s rows, the switching filter's first: (bank rows
    (U, s) in ascending order, shared branch weights D (r, s)), and each
    spec's index (F,) into the filters by ``FilterSpec.key``, whatever
    its label or place.
    Under true mode i a filter runs its slot d's row with probability
    D[i, d]: detection weights over the r mode rows, or ones on one row."""
    keys = [spec.key(r) for spec in specs]
    at = {key: u for u, key in enumerate(sorted(set(keys)))}
    groups = []
    for fixed_gain in (False, True):
        rows = [row for kind, row in at if kind == fixed_gain]
        if rows:
            groups.append((np.array(rows), np.ones((r, 1)) if fixed_gain
                           else _branch_weights(r, det)))
    return groups, np.array([at[key] for key in keys], dtype=int)
