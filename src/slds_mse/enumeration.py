"""Exact SLDS error moments by enumerating mode trajectories.

A single-mode filter applied to a switching system sees a different truth
along every mode trajectory, so the exact error moments at step n are a
probability-weighted mixture over all r^n trajectories (and over
(true, detected) trajectory pairs, r^(2n) of them, for the switching
filter).

Every live trajectory l carries its lifted moment
Phi_l = E[w w.T | trajectory] of w = [x; e; 1]: the top-left blocks are
the raw second moments of x and e, the last column their means.  Under
the branch (true mode i, filter d) the vector obeys w' = G w + noise,
with the map G and noise covariance C of
:func:`slds_mse.fast._joint_factors`, the step the aggregate recursion
applies too.  So

    Phi_l'       = G Phi_l G.T + C
    E[w_n w_n.T] = sum_l  pi_l Phi_l
    MSE(n)       = tr E[e_n e_n.T]

and every moment of :class:`~slds_mse.mismatch.ErrorMoments` is read off
the mixture.  The leaves are stored as S[a, l, c] = Phi_l[a, c], shape
(k, L, k), so one step for all r (or r^2) branches is two BLAS products
per block of parents: the branch maps stacked into one (branches * k, k)
matrix times the block of S viewed as (k, L * k), then each branch's
part times its G.T, written straight into the next step's storage.
Beam pruning keeps only the highest-probability trajectories and reports
the retained mass per step; by default the dropped tail is simply
ignored (no renormalization).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .model import DetectionModel, MarkovChain, MseSeries, SldsModel
from .mismatch import ErrorMoments
from .kalman import (
    ModeLike,
    _gain_step,
    as_mode_sequence,
    gain_schedule,
    mode_schedules,
)
from .fast import _branch_weights, _initial_moment, _joint_factors

DEFAULT_CAP = 2 ** 20

GAIN_SCHEDULE = "schedule"
GAIN_DETECTED_PATH = "detected-path"

# Multiply-adds per GEMM block.  Below about 10^6 OpenBLAS runs a product
# on one thread.  On a 2-vCPU machine two threads were no faster, and the
# idle worker kept spinning on the second core after the enumeration,
# slowing the commands that followed.  A block's scratch also stays
# cache-sized however many leaves a step creates.
_BLOCK_MACS = 2 ** 19


class EnumerationCapError(RuntimeError):
    """Raised when an exact enumeration would exceed the trajectory cap."""


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


def _lifted_factors(*args) -> np.ndarray:
    """``_joint_factors`` for w = [x; e; 1], stacked as (2, ..., k, k):
    the constant passes through G and takes no noise in C."""
    G, C = _joint_factors(*args)
    k = G.shape[-1] + 1
    lifted = np.zeros((2,) + G.shape[:-2] + (k, k))
    lifted[:, ..., :-1, :-1] = G, C
    lifted[0, ..., -1, -1] = 1.0
    return lifted


def _advance(phi: np.ndarray, G: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Phi' = G Phi G.T + C of every leaf of ``phi`` (k, L, k) under every
    branch: (k, b L, k), leaves in (branch, parent) order.

    ``G``, ``C`` are (b, k, k) maps shared by all leaves, or (b, L, k, k)
    maps of one leaf each (detected-path gains).
    """
    k, L = phi.shape[:2]
    if G.ndim == 4:
        out = G @ phi.swapaxes(0, 1) @ G.swapaxes(-1, -2) + C
        return np.ascontiguousarray(out.transpose(2, 0, 1, 3)).reshape(k, -1, k)
    b = len(G)
    out = np.empty((k, b, L, k))
    by_branch = out.transpose(1, 0, 2, 3)
    stacked = G.reshape(b * k, k)
    maps_t = np.ascontiguousarray(G.swapaxes(-1, -2))[:, None]
    flat = phi.reshape(k, L * k)
    width = max(1, _BLOCK_MACS // (b * k ** 3))
    for lo in range(0, L, width):
        hi = min(L, lo + width)
        left = stacked @ flat[:, lo * k:hi * k]                  # G Phi
        block = by_branch[:, :, lo:hi]
        np.matmul(left.reshape(b, k, hi - lo, k), maps_t, out=block)
        block += C[:, :, None]
    return out.reshape(k, b * L, k)


def _mixture(prob: np.ndarray, phi: np.ndarray,
             renorm: bool) -> tuple[float, np.ndarray]:
    """Kept mass and mixture sum_l p_l Phi_l, with weights rescaled to sum
    to one under ``renorm``."""
    mass = float(prob.sum())
    w = prob / mass if renorm and mass > 0 else prob
    return mass, w @ phi


def _read_moments(mixtures: np.ndarray, z: int,
                  ) -> tuple[np.ndarray, list[ErrorMoments]]:
    """MSE series and per-step moments read off the mixtures
    sum_l p_l Phi_l, (N + 1, k, k)."""
    mix = (mixtures + mixtures.swapaxes(1, 2)) / 2.0
    z2 = 2 * z
    Ex, Ee, Eee = mix[:, :z, z2], mix[:, z:z2, z2], mix[:, z:z2, z:z2]
    x_cov = mix[:, :z, :z] - Ex[:, :, None] * Ex[:, None, :]
    e_cov = Eee - Ee[:, :, None] * Ee[:, None, :]
    # Cov(e, x) = C(x) - u
    u = x_cov - (mix[:, z:z2, :z] - Ee[:, :, None] * Ex[:, None, :])
    moments = [ErrorMoments(*fields, step=n) for n, fields in
               enumerate(zip(Ee, e_cov, Ex, x_cov, u))]
    return np.trace(Eee, axis1=1, axis2=2), moments


def _keep_indices(prob: np.ndarray, keep: Optional[int],
                  mass: Optional[float]) -> np.ndarray:
    """Indices of the retained trajectories, highest probability first.

    Ties are broken by enumeration order (stable sort), which keeps the
    result deterministic.
    """
    order = np.argsort(-prob, kind="stable")
    if keep is not None:
        return order[:keep]
    cum = np.cumsum(prob[order])
    cut = int(np.searchsorted(cum, mass - 1e-15)) + 1
    return order[:cut]


def _run_enumeration(model: SldsModel, n_steps: int, *,
                     det: Optional[DetectionModel],
                     filt: Optional[ModeLike],
                     keep: Optional[int], mass: Optional[float],
                     renormalize: bool, cap: int,
                     gains: str) -> tuple[MseSeries, list[ErrorMoments]]:
    pairs = filt is None
    if pairs and det is None:
        raise ValueError("either a detection model or a filter is required")
    if gains not in (GAIN_SCHEDULE, GAIN_DETECTED_PATH):
        raise ValueError(f"unknown gain policy {gains!r}")
    detected_path = gains == GAIN_DETECTED_PATH
    if detected_path and not pairs:
        raise ValueError("detected-path gains apply to the switching filter only")
    pruning = keep is not None or mass is not None
    if keep is not None and mass is not None:
        raise ValueError("give either keep or mass, not both")
    if keep is not None and keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    if mass is not None and not 0.0 < mass <= 1.0:
        raise ValueError(f"mass target must lie in (0, 1], got {mass}")

    r, z, m = model.r, model.z, model.m
    # D[i, d]: weight of filter branch d under true mode i
    D = _branch_weights(model, det, pairs)
    branch_factor = D.size
    if not pruning and branch_factor ** n_steps > cap:
        kind = "trajectory pairs" if pairs else "trajectories"
        raise EnumerationCapError(
            f"exact enumeration needs {branch_factor}^{n_steps} {kind}, "
            f"over the cap of {cap}; use the aggregate recursion or beam "
            f"pruning instead")

    H, R = model.meas.H, model.meas.R
    chain = model.chain
    A = np.stack([mode.A for mode in model.modes])
    Q = np.stack([mode.Q for mode in model.modes])
    if not pairs:
        A_f = np.reshape([mode.A for mode in as_mode_sequence(filt, n_steps)],
                         (n_steps, 1, z, z))
        K = np.reshape(gain_schedule(filt, model.meas, model.init,
                                     n_steps).gains, (n_steps, 1, z, m))
    elif not detected_path:
        A_f = np.broadcast_to(A, (n_steps, r, z, z))
        K = np.reshape([s.gains for s in mode_schedules(model, n_steps)],
                       (r, n_steps, z, m)).swapaxes(0, 1)
    if not detected_path:
        # maps per (step, branch), branch (true i, filter d) at i * d_count + d
        G_all, C_all = (f.reshape((n_steps, branch_factor) + f.shape[-2:])
                        for f in _lifted_factors(A[:, None], Q[:, None],
                                                 A_f[:, None], K[:, None],
                                                 H, R))

    phi = _initial_moment(model.init)[:, None]               # (k, 1, k)
    prob = np.ones(1)
    last = np.zeros(1, dtype=np.intp)     # placeholder before step 1
    filter_cov = model.init.cov[None] if detected_path else None
    steps = [_mixture(prob, phi, renormalize)]
    for n in range(1, n_steps + 1):
        if prob.size * branch_factor > cap:
            raise EnumerationCapError(
                f"step {n} would create {prob.size * branch_factor} "
                f"trajectories, over the cap of {cap}")
        trans = chain.prior[None] if n == 1 else chain.Z[last]
        if detected_path:
            # each leaf's gain from the filter's own Riccati step along its
            # detected trajectory, as in kalman._riccati, per detected
            # mode d: (d, L, z, m)
            P = (A[:, None] @ filter_cov @ A[:, None].swapaxes(-1, -2)
                 + Q[:, None])
            P = (P + P.swapaxes(-1, -2)) / 2.0
            K_leaf = _gain_step(model.meas, P)[1]
            P = (np.eye(z) - K_leaf @ H) @ P
            filter_cov = np.broadcast_to((P + P.swapaxes(-1, -2)) / 2.0,
                                         (r,) + P.shape).reshape(-1, z, z)
            G, C = (f.reshape((-1,) + f.shape[2:]) for f in
                    _lifted_factors(A[:, None, None], Q[:, None, None],
                                    A[None, :, None], K_leaf[None], H, R))
        else:
            G, C = G_all[n - 1], C_all[n - 1]
        phi = _advance(phi, G, C)
        prob = (prob * (trans.T[:, None] * D[:, :, None])).ravel()
        last = np.repeat(np.arange(r), prob.size // r)
        if pruning:
            idx = _keep_indices(prob, keep, mass)
            prob, last, phi = prob[idx], last[idx], phi[:, idx]
            if filter_cov is not None:
                filter_cov = filter_cov[idx]
        steps.append(_mixture(prob, phi, renormalize))

    kept_mass, mixtures = zip(*steps)
    mse, moments = _read_moments(np.array(mixtures), z)
    # exact runs carry the mass too: it should sum to one at every step,
    # which makes the bookkeeping auditable from the outside
    series = MseSeries(mse=mse,
                       method="pruned" if pruning else "exact",
                       kept_mass=np.array(kept_mass))
    return series, moments


def single_mode_slds_moments(model: SldsModel, filt: ModeLike, n_steps: int,
                             cap: int = DEFAULT_CAP,
                             ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of one fixed filter (or per-step filter sequence) applied
    to the switching system, by full trajectory enumeration."""
    return _run_enumeration(model, n_steps, det=None, filt=filt,
                            keep=None, mass=None, renormalize=False,
                            cap=cap, gains=GAIN_SCHEDULE)


def skf_slds_moments(model: SldsModel, det: DetectionModel, n_steps: int,
                     cap: int = DEFAULT_CAP, gains: str = GAIN_SCHEDULE,
                     ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of the switching filter under the constant detection rate,
    by full (true, detected) trajectory-pair enumeration.

    ``gains`` selects how the filter gain for a detected mode is formed:
    ``"schedule"`` (default) reads the detected mode's standalone gain
    schedule; ``"detected-path"`` runs the filter's Riccati recursion
    along each detected trajectory instead.
    """
    return _run_enumeration(model, n_steps, det=det, filt=None,
                            keep=None, mass=None, renormalize=False,
                            cap=cap, gains=gains)


def pruned_moments(model: SldsModel, det: Optional[DetectionModel],
                   n_steps: int, keep: Optional[int] = None,
                   mass: Optional[float] = None, filt: Optional[ModeLike] = None,
                   renormalize: bool = False, cap: int = DEFAULT_CAP,
                   gains: str = GAIN_SCHEDULE,
                   ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Beam-pruned enumeration: keep the highest-probability trajectories.

    ``keep`` retains a fixed number per step; ``mass`` retains the
    smallest prefix reaching the target probability.  The returned series
    carries the kept mass per step.  By default aggregates are plain
    partial sums over the kept set (the dropped tail is ignored);
    ``renormalize=True`` rescales the kept weights to sum to one.

    With ``filt`` given the beam runs over true trajectories for that
    fixed filter; otherwise it runs over (true, detected) pairs for the
    switching filter under ``det``.
    """
    if keep is None and mass is None:
        raise ValueError("pruning requires keep or mass")
    return _run_enumeration(model, n_steps, det=det, filt=filt,
                            keep=keep, mass=mass, renormalize=renormalize,
                            cap=cap, gains=gains)
