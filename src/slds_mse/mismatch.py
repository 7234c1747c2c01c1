"""Exact error moments of a Kalman filter running the wrong dynamics.

Let the truth evolve with (A, Q) while the filter assumes (Ad, Qd) and
therefore uses the gain K of its own covariance recursion.  With
B = I - K @ H, the estimation error e_n = x_n - xhat_n obeys the linear
recursion::

    e_n = B (A - Ad) x_{n-1} + B Ad e_{n-1} + B v_n - K w_n

which is itself a state-space model driven by the true state.  Its first
two moments therefore close recursively once we also track E[x], C(x)
and the cross-covariance u_n = Cov(xhat_n, x_n):

    E[e_n]  = B (A - Ad) E[x_{n-1}] + B Ad E[e_{n-1}]
    u_n     = B Ad u_{n-1} A.T + K H A C(x_{n-1}) A.T + K H Q
    C(e_n)  = J C(x_{n-1}) J.T + M C(e_{n-1}) M.T + S + S.T
              + B Q B.T + K R K.T

with J = B (A - Ad), M = B Ad, and the cross term
S = J Cov(x_{n-1}, e_{n-1}) M.T where Cov(x, e) = C(x) - u.T.
The orientation of u in the cross term matters; this one makes the
matched case collapse exactly to the filter covariance and agrees with
Monte Carlo (see tests).

When the filter is matched (Ad = A, Qd = Q) the input term vanishes, the
error stays zero-mean and C(e_n) reproduces P_{n|n} exactly.

``mismatch_step`` applies this recursion one step at a time; it is the
independent oracle of the lifted-moment kernel.  Whole series come from
:func:`slds_mse.enumeration.mismatch_series`, the kernel run on a
one-mode system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MeasurementModel, ModeModel, symmetrize


@dataclass(frozen=True)
class ErrorMoments:
    """First and second moments of the filter error at one step.

    ``u`` is Cov(xhat_n, x_n), which is not symmetric in general; the
    error/state cross-covariance is recovered as Cov(e, x) = x_cov - u.
    Enumeration reads the covariances off raw moments, E[x x.T] - E[x]
    E[x].T, so they lose relative precision as |mean|^2/variance grows:
    an initial mean of 1e6 on a scalar pair puts ``e_cov`` 3.2e-4 off.
    The MSE, a raw trace, is unaffected.
    """

    e_mean: np.ndarray
    e_cov: np.ndarray
    x_mean: np.ndarray
    x_cov: np.ndarray
    u: np.ndarray
    step: int

    @property
    def mse(self) -> float:
        """Scalar error size: E[e].E[e] + tr C(e)."""
        return float(self.e_mean @ self.e_mean + np.trace(self.e_cov))


def mismatch_step(prev: ErrorMoments, truth: ModeModel, filt: ModeModel,
                  meas: MeasurementModel, gain: np.ndarray) -> ErrorMoments:
    """Advance the error moments one step.

    ``gain`` is the filter's gain for this step, normally taken from
    :func:`slds_mse.kalman.gain_schedule` on the filter model.  ``truth``
    supplies the dynamics the state actually followed this step.
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
